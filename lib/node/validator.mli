(** A full validator on the simulated overlay: a {!Stellar_herder.Herder}
    wired to peers through flood-with-dedup gossip (Fig. 5's stellar-core
    box, minus the SQL database). *)

type t

val create :
  network:Message.wire Stellar_sim.Network.t ->
  index:int ->
  peers:int list ->
  config:Stellar_herder.Herder.config ->
  genesis:Stellar_ledger.State.t ->
  ?buckets:Stellar_bucket.Bucket_list.t ->
  ?tip:Stellar_ledger.Header.t ->
  ?archive:Stellar_archive.Archive.t ->
  ?memo:Stellar_herder.Herder.memo ->
  ?on_ledger_closed:(Stellar_herder.Herder.ledger_stats -> unit) ->
  ?obs:Stellar_obs.Sink.t ->
  unit ->
  t
(** [buckets] and [tip] are handed to {!Stellar_herder.Herder.create}: a
    node bootstrapped from {!Stellar_archive.Archive.catchup} passes the
    caught-up state as [genesis] with its bucket list and tip header.
    [archive] is the history archive this node catches up from (§5.4): on
    {!restart}, and while running, whenever its herder reports it has
    [fell_behind] further than straggler help reaches and the archive holds
    a ledger past its last close.  Such a live catch-up swaps in
    {!Stellar_herder.Herder.catch_up}'s herder (queued transactions kept),
    resets the dedup table and asks the peers for help as a restart does,
    emits [Catchup_done] and counts
    [archive.live_catchups].  Without an archive a node left that far
    behind stays behind.
    Straggler help (§6) is pulled: when its herder rejoins
    ({!Stellar_herder.Herder.rejoin}: right after a restart or live
    catch-up, and when it hears of a slot past the next ledger it needs),
    a node sends each peer one {!Message.Get_scp_state} naming that
    ledger.  A peer answers at once, ahead of the dedup, with
    {!Stellar_herder.Herder.help_straggler}'s envelopes and tx sets, and
    counts [flood.straggler_helped] when the answer is not empty.  It
    answers one peer at most once in half a ledger interval; a sooner
    request from that peer goes unanswered.
    [memo] is the close and verify memo ({!Stellar_herder.Herder.memo})
    this node's herders share with the network's other validators (default
    a fresh one, shared with none); its archive catch-ups replay through
    it too.
    [obs] (default disabled) instruments the flood path — [flood.*]
    counters and, when tracing, [Flood_send], [Flood_recv] and [Dedup_drop]
    events — and is passed down to the herder/SCP/ledger stack.  Node-level
    figures live there: [flood.own_envelopes] counts the SCP envelopes this
    validator itself emitted (the paper's 6-7 logical messages per ledger,
    §7.2). *)

val index : t -> int
val herder : t -> Stellar_herder.Herder.t
val start : t -> unit
val stop : t -> unit

val submit_tx : t -> Stellar_ledger.Tx.signed -> unit
(** Client-facing submission (what horizon forwards, Fig. 5). *)

val seen_size : t -> int
(** Entries in the flood dedup table.  Each entry carries an expiry slot
    (an envelope's statement slot plus a small margin; a fixed horizon for
    transactions and tx sets) and is dropped when a ledger at or past that
    slot closes, so the table stays bounded over long simulations; its size
    is exported as the [validator.seen.size] gauge. *)

(** {2 Fault injection}

    A crash/restart models losing the whole process: the herder (and all its
    SCP timers) is abandoned, the dedup table is lost, and the network
    marks the node down.  Restart rebuilds a fresh herder — from the
    archive's latest checkpoint plus replay when the node has an [archive]
    and catch-up succeeds (§5.4), from genesis otherwise — and rejoins
    consensus, closing any remaining gap live from its peers' answers to
    its {!Message.Get_scp_state} (§6).  An internal generation counter
    keeps timers armed before the fault from acting on the new incarnation.

    Down is the network's flag ({!Stellar_sim.Network.is_down}): a down
    node neither sends nor receives, and its validator takes no
    submission and refloods nothing. *)

val crash : t -> unit
(** Stop the herder, mark the node down, emit [Node_crash].  No-op if the
    node is down. *)

val restart : t -> unit
(** Bring a crashed node back: emits [Node_restart] and [Catchup_done]
    (the checkpoint seq, 0 when restarting from genesis, the archive tip and
    the replayed-ledger count), then starts the rebuilt herder.
    No-op if the node is not down. *)

val reflood : t -> copies:int -> unit
(** Byzantine-style fault: re-broadcast this node's latest envelopes
    [copies] times, bypassing its own dedup table.  Peers' dedup tables
    absorb every copy after the first; counted as [fault.refloods]. *)
