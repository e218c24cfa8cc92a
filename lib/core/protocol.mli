(** Top-level SCP instance: one per validator, managing a slot per ledger.

    Typical use: the herder calls {!nominate} when it wants the network to
    close a new ledger, feeds every envelope received from peers to
    {!receive_envelope}, and learns the outcome through the driver's
    [value_externalized] callback. *)

type t

val create : driver:Driver.t -> local_id:Types.node_id -> qset:Quorum_set.t -> t

val set_quorum_set : t -> Quorum_set.t -> unit
(** Unilateral reconfiguration (§3.1.1): takes effect immediately — every
    active slot re-evaluates federated voting under the new slices, and
    future statements advertise them. *)

val quorum_set : t -> Quorum_set.t
(** The slices in force: the one given at {!create} or the latest
    {!set_quorum_set}. *)

val nominate : t -> slot:int -> value:Types.value -> prev:Types.value -> unit

val receive_envelope : t -> Types.envelope -> [ `Processed | `Stale | `Invalid ]

val latest_envelopes : t -> slot:int -> Types.envelope list

val purge_slots : t -> below:int -> unit
(** Drop state of old, decided slots to bound memory. *)
