(** The ballot protocol (§3.2.1, §3.2.4).

    Nodes proceed through numbered ballots [⟨n, x⟩], federated-voting on
    [prepare] and [commit] statements.  The three phases mirror
    stellar-core: PREPARE (voting/accepting prepare, then confirming it and
    voting commit), CONFIRM (accepted commit; working to confirm it) and
    EXTERNALIZE (commit confirmed — the slot's value is decided).

    Ballot synchronization: the ballot timer only runs while the node sees a
    quorum at its current (or later) ballot counter, and a node jumps
    forward when a v-blocking set is strictly ahead — both per §3.2.4. *)

type phase = Prepare_phase | Confirm_phase | Externalize_phase

type t

val create :
  slot:int ->
  local_id:Types.node_id ->
  get_qset:(unit -> Quorum_set.t) ->
  driver:Driver.t ->
  index:Federation.index ->
  t
(** [index] is the slot's node index, shared with its nomination. *)

val phase : t -> phase
val current_ballot : t -> Types.ballot option
val prepared : t -> Types.ballot option
val externalized_value : t -> Types.value option
val latest_envelopes : t -> Types.envelope list

val bump : t -> value:Types.value -> force:bool -> bool
(** Start balloting on a (composite) value.  With [force] a new ballot is
    started even if one is in progress — used on nomination updates and
    timeouts; otherwise only the first call starts ballot 1. *)

val process_envelope : t -> Types.envelope -> [ `Processed | `Stale | `Invalid ]

val on_nomination_composite : t -> Types.value -> unit
(** Record the latest nomination composite, used as the value when
    abandoning a ballot with no confirmed-prepared value. *)

val reevaluate : t -> unit
(** Re-run the attempt steps against the current quorum set (after a
    unilateral slice reconfiguration, §3.1.1). *)
