(** The herder drives one validator's replicated state machine (§5): it
    builds transaction sets from the pending queue, triggers SCP once per
    ledger interval, validates and combines consensus values, and applies
    externalized transaction sets to the ledger, the bucket list and the
    header chain.

    The herder is transport-agnostic: the node layer supplies callbacks for
    flooding and timers (in the simulator or, in principle, a real
    network). *)

type ledger_stats = {
  header : Stellar_ledger.Header.t;
  value : Value.t;  (** the externalized value the header commits to *)
  tx_set : Tx_set.t;  (** the set the value names, as applied *)
  buckets : Stellar_bucket.Bucket_list.t;  (** the bucket list after the close *)
  nomination_s : float;  (** virtual time: nomination start → first ballot *)
  balloting_s : float;  (** virtual time: first ballot → this node's close *)
  apply_s : float;  (** real CPU time of the close, when first computed *)
  total_s : float;  (** virtual time: trigger → this node's close *)
}
(** One closed ledger: its header, value and tx set are the record an
    archive stores and catch-up replays through {!apply_ledger}. *)

type callbacks = {
  broadcast_envelope : Scp.Types.envelope -> unit;
  broadcast_tx_set : Tx_set.t -> unit;
  broadcast_tx : Stellar_ledger.Tx.signed -> unit;
      (** Send to every peer, also a transaction sent before: a node back
          from being away re-floods its queue this way ({!rejoin}). *)
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
  now : unit -> float;
  on_ledger_closed : ledger_stats -> unit;
  fell_behind : unit -> unit;
      (** SCP externalized a slot more than [slots_to_remember + 1] past the
          last close: the peers that closed it have purged this node's next
          slot, so straggler help cannot bring it forward and only a
          history archive can ({!catch_up}, §5.4).  The value is not kept. *)
  request_scp_state : int -> unit;
      (** Ask peers for their SCP state from this ledger seq on
          ({!help_straggler}); see {!rejoin}. *)
}

type config = {
  seed : string;  (** 32 bytes of key material *)
  qset : Scp.Quorum_set.t;
  is_validator : bool;
  is_governing : bool;  (** participates in upgrade governance (§5.3) *)
  desired_upgrades : Value.upgrade list;
  ledger_interval : float;  (** the 5-second target *)
  max_ops_per_ledger : int;
}

val default_config : seed:string -> qset:Scp.Quorum_set.t -> config

type memo
(** What the herders of one simulated network share: the last
    {!slots_to_remember} ledger closes ({!apply_ledger}) and the envelope
    signatures that passed their check ({!verify_envelope}). *)

val memo : unit -> memo

val verify_envelope : memo:memo -> Scp.Types.envelope -> bool
(** Whether the envelope carries its node's signature over the statement's
    {!Scp.Types.signing_bytes}: the herder's SCP driver's [verify].  An
    envelope physically the one a check passed on is answered from [memo]
    without checking again; only passed checks are kept, and only for
    slots from {!slots_to_remember} behind the newest slot kept.  A memo
    answers for the key table it was filled under; a fresh memo checks. *)

val verified : memo -> int * int
(** The signatures [memo] holds, and the lookups they answered. *)

val apply_ledger :
  memo:memo ->
  ?obs:Stellar_obs.Sink.t ->
  prev:Stellar_ledger.Header.t option ->
  Stellar_ledger.State.t ->
  Stellar_bucket.Bucket_list.t ->
  Value.t ->
  Tx_set.t ->
  Stellar_ledger.State.t * Stellar_bucket.Bucket_list.t * Stellar_ledger.Header.t * float
(** The ledger-close transition (Fig. 3), the one definition of closing a
    ledger, shared by the live close and archive catch-up: apply the tx
    set at the value's close time, apply the value's upgrades, fold the
    touched entries into the bucket list and build the header after
    [prev] (the value's hash, the tx set, results and snapshot hashes).
    The value is the only source of the close time and the parameters.
    Returns the new state, bucket list and header, and the CPU seconds the
    close took when it was computed.  A close [memo] holds that was
    computed from the same (by identity) [prev], state and bucket list,
    for a value and tx set of equal hashes, is returned, not recomputed.
    Otherwise the close is computed; when [memo] holds a close whose
    header hashes the same, that close is returned instead (so the next
    ledger is shared), and when it holds none, the new close is kept.
    Either way [obs]
    sees this close's transactions and merges
    ({!Stellar_ledger.Apply.observe}, {!Stellar_bucket.Bucket_list.observe}). *)

type t

val create :
  config ->
  callbacks ->
  genesis:Stellar_ledger.State.t ->
  ?buckets:Stellar_bucket.Bucket_list.t ->
  ?tip:Stellar_ledger.Header.t ->
  ?obs:Stellar_obs.Sink.t ->
  memo:memo ->
  unit ->
  t
(** [buckets] lets many simulated validators share one precomputed bucket
    list for the same genesis instead of re-hashing it per node.
    [tip] is the header of [genesis]'s ledger when bootstrapping from an
    archive (§5.4) rather than from ledger 1: the next close links to it.
    The herder keeps only its last closed header, never the whole chain.
    [obs] (default disabled) instruments the whole close path: it is handed
    to the SCP driver (which emits the slot events), ledger apply and
    bucket merges, and the herder itself emits [Apply_end] events, the
    per-transaction lifecycle events [Tx_submit] and [Tx_dropped]
    ([Tx_applied] comes from ledger apply), plus the
    [ledger.apply_ms] CPU histogram and [herder.queue.size] gauge.
    [memo] is {!apply_ledger}'s and {!verify_envelope}'s, shared with the
    network's other herders; {!catch_up} keeps it. *)

val catch_up :
  t ->
  callbacks ->
  Stellar_ledger.State.t * Stellar_bucket.Bucket_list.t * Stellar_ledger.Header.t ->
  t
(** [catch_up t cb (state, buckets, tip)] is the herder that replaces a
    running [t] once it has caught up to [tip] from a history archive
    (the triple {!Stellar_archive.Archive.catchup} returns beside its
    checkpoint seq): SCP starts afresh, under
    [t]'s config and current quorum set, and [t]'s queued transactions carry
    over, less those [state] can no longer apply.  [t] is abandoned; its
    callbacks must go inert. *)

val state : t -> Stellar_ledger.State.t

val last_header : t -> Stellar_ledger.Header.t option
(** The tip: the last closed (or caught-up) header, [None] at genesis. *)

val ledger_seq : t -> int
val set_quorum_set : t -> Scp.Quorum_set.t -> unit

val start : t -> unit
(** Begin triggering ledger closes every [ledger_interval]. *)

val rejoin : t -> unit
(** Ask the peers ([request_scp_state]) for their state from the ledger
    after the last close, then re-flood the queue once every slot known
    decided is closed: peers that closed without this node never saw what
    it queued.  For a node restarted or caught up from an archive; a
    running herder rejoins itself, at most once a [ledger_interval], when
    a verified envelope names a slot past the next to close, whether or
    not SCP takes it in (a laggard its quorum needs hears no externalize). *)

val stop : t -> unit

val submit_tx : t -> Stellar_ledger.Tx.signed -> [ `Queued | `Duplicate ]
(** Local submission: queue and flood. *)

val receive_tx : t -> Stellar_ledger.Tx.signed -> [ `New | `Duplicate ]
val receive_tx_set : t -> Tx_set.t -> unit
val receive_envelope : t -> Scp.Types.envelope -> unit
(** Envelopes whose transaction sets have not arrived yet are buffered and
    replayed when the set shows up, or dropped once their slot falls behind
    the {!slots_to_remember} horizon.  Envelopes for slots more than 100
    ahead of the last closed ledger, or already behind the horizon, are
    dropped on receipt. *)

val tx_set : t -> string -> Tx_set.t option

val slots_to_remember : int
(** The slot horizon, 12 (stellar-core's [MAX_SLOTS_TO_REMEMBER]
    default; DESIGN.md argues the value).  After closing ledger [n], a
    herder keeps per-slot state (SCP slots, the tx sets they use, envelopes
    waiting for a tx set) only for slots from [n - slots_to_remember] on,
    drops envelopes for older slots on receipt, and helps stragglers only
    inside the horizon.  A node further behind than that is told through
    [fell_behind]. *)

val table_sizes : t -> int * int
(** The transaction sets held, and the envelopes waiting for a transaction
    set.  Each ledger close drops the ones older than the
    {!slots_to_remember} horizon, so both stay bounded. *)

val recent_envelopes : t -> Scp.Types.envelope list
(** This node's latest envelopes for the in-flight slot and the one just
    closed — the payload a fault-injected Byzantine re-flooder rebroadcasts. *)

val help_straggler : t -> from:int -> Scp.Types.envelope list * Tx_set.t list
(** What a peer asking for the SCP state from ledger seq [from] is sent —
    the fix for the §6 production incident where validators moved on
    without helping stragglers finish the previous ledger: the latest
    envelopes of every closed slot from [from] (or the
    {!slots_to_remember} horizon, if later) to the last close, oldest
    first, and the transaction set each of those slots externalized.
    Both lists are empty when this node has closed nothing from [from] on;
    they can also be empty for a slot it closed without running SCP on it
    (one it caught up to from an archive). *)
