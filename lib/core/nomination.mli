(** The nomination protocol (§3.2.2).

    Nodes federated-vote on [nominate x] statements.  Only round leaders
    introduce new values; everyone else echoes their leaders' votes.  Once a
    node confirms any nominate statement it stops voting for new values, so
    the candidate set converges; the (evolving) deterministic combination of
    all confirmed candidates seeds the ballot protocol. *)

type t

val create :
  slot:int ->
  local_id:Types.node_id ->
  get_qset:(unit -> Quorum_set.t) ->
  driver:Driver.t ->
  index:Federation.index ->
  on_candidates:(Types.value -> unit) ->
  t
(** [get_qset] is read at every use, so a node can adjust its slices at any
    time (§3.1.1).  [index] is the slot's node index, shared with its
    ballot protocol.  [on_candidates composite] fires whenever the combined
    candidate value changes; the slot uses it to (re)start balloting. *)

val nominate : t -> value:Types.value -> prev:Types.value -> unit
(** Start (or re-trigger) nomination with the application's proposed value;
    [prev] is the previous slot's value, which seeds leader selection. *)

val process_envelope : t -> Types.envelope -> [ `Processed | `Stale | `Invalid ]

val stop : t -> unit
(** Stop the round timer and refuse further votes (called once balloting
    reaches the commit phase). *)

val leaders : t -> Types.node_id list
val candidates : t -> Types.value list
val latest_statements : t -> Types.statement list

val latest_envelopes : t -> Types.envelope list
(** The latest signed envelope from each node (including our own), kept so
    a validator can help stragglers finish an old slot (§6). *)

val reevaluate : t -> unit
(** Re-run federated voting against the current quorum set — called after a
    unilateral reconfiguration so a stuck slot can make progress. *)
