(** A network's collective configuration: the quorum set declared by every
    node in a validator's transitive closure (§6.2), as gathered by the
    misconfiguration detector. *)

type node_id = Scp.Quorum_set.node_id

type t

val of_assoc : (node_id * Scp.Quorum_set.t) list -> t
val nodes : t -> node_id list
val size : t -> int
val qset : t -> node_id -> Scp.Quorum_set.t option
