(** Federated leader selection for nomination (§3.2.5).

    Each node computes, per slot and round, a priority for every neighbor —
    a node whose per-slot hash falls below its slice weight — and follows
    the highest-priority neighbor as leader.  As rounds progress the set of
    followed leaders grows, accommodating leader failure. *)

val weight : qset:Quorum_set.t -> self:Types.node_id -> Types.node_id -> float
(** Slice weight as seen from [self]; [self] has weight 1. *)

val hash_fraction :
  slot:int -> prev:Types.value -> tag:int -> round:int -> Types.node_id -> float
(** [H_tag(round, v) / 2^256] in [\[0,1)], from SHA-256 as in stellar-core. *)

val priority : slot:int -> prev:Types.value -> round:int -> Types.node_id -> float

val round_leader :
  qset:Quorum_set.t ->
  self:Types.node_id ->
  slot:int ->
  prev:Types.value ->
  round:int ->
  Types.node_id
(** The leader to follow in the given round: highest-priority neighbor, or —
    when no node qualifies as neighbor — the node minimizing
    [H0(v)/weight(v)] per §3.2.5. *)
