(** A network's collective configuration: the quorum set declared by every
    node in a validator's transitive closure (§6.2), as gathered by the
    misconfiguration detector. *)

type node_id = Scp.Quorum_set.node_id

type t

val of_assoc : (node_id * Scp.Quorum_set.t) list -> t
val nodes : t -> node_id list
val size : t -> int
val qset : t -> node_id -> Scp.Quorum_set.t option

val transitive_closure : t -> node_id -> node_id list
(** Nodes reachable from a starting node through quorum-set references. *)

val greatest_quorum : t -> node_id list -> node_id list
(** The largest quorum contained in the given set ([\[\]] if none): the
    fixpoint of discarding unsatisfied members. *)
