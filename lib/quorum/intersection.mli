(** Quorum-intersection checking (§6.2.1).

    Deciding whether a configuration admits two disjoint quorums is
    co-NP-hard (Lachowski 2019); this checker uses the pruning that makes
    typical instances fast: every quorum lives inside the greatest quorum of
    the node universe, minimal quorums induce strongly-connected subgraphs,
    and a branch-and-bound over candidate quorums prunes any branch whose
    available nodes no longer contain a quorum.

    The optional [byzantine] set models nodes under adversary control (or
    worst-case misconfiguration, §6.2.2): they are assumed to help complete
    anyone's slices, so a set [S] of honest nodes counts as a quorum when
    every member has a slice inside [S ∪ byzantine]. *)

type result =
  | Intersecting  (** every two quorums share at least one honest node *)
  | Disjoint of Network_config.node_id list * Network_config.node_id list
      (** witness: two quorums with no honest node in common *)
  | No_quorum  (** the configuration contains no quorum at all *)

val check : ?byzantine:Network_config.node_id list -> Network_config.t -> result

val check_counted : ?byzantine:Network_config.node_id list -> Network_config.t -> result * int
(** {!check}, with the number of branch-and-bound nodes the search explored
    (for the §6.2.1 performance experiment). *)
