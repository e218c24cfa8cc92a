(** Write-only history archive (§5.4): every closed ledger as the record
    the herder reports it in (header, externalized value and transaction
    set), and periodic bucket snapshots.  New nodes bootstrap from the
    latest checkpoint and replay forward; anyone can look up a transaction
    from two years ago.

    The paper stores archives as flat files on blob stores (S3/Glacier);
    here the archive is an in-memory store with the same access pattern —
    append-only publication, checkpoint-granular reads. *)

type t

val create : ?checkpoint_frequency:int -> unit -> t
(** Default checkpoint every 8 ledgers (stellar-core uses 64). *)

val record_ledger :
  t ->
  header:Stellar_ledger.Header.t ->
  value:Stellar_herder.Value.t ->
  tx_set:Stellar_herder.Tx_set.t ->
  buckets:Stellar_bucket.Bucket_list.t ->
  unit
(** Publish one closed ledger, as {!Stellar_herder.Herder.ledger_stats}
    reports it; [buckets] (the list after the close) is kept only at
    checkpoints.  Ledgers must arrive in sequence order. *)

val latest_seq : t -> int option
val header : t -> int -> Stellar_ledger.Header.t option

val ledger :
  t ->
  int ->
  (Stellar_ledger.Header.t * Stellar_herder.Value.t * Stellar_herder.Tx_set.t) option
(** The archived record of one ledger: header, value, tx set. *)

val find_tx : t -> string -> (int * Stellar_ledger.Tx.signed) option
(** Look a transaction up by hash: (ledger seq, tx), from the newest
    archived ledger that holds it.  A scan of the archived tx sets. *)

val checkpoint_count : t -> int

val catchup :
  memo:Stellar_herder.Herder.memo ->
  t ->
  ( int * (Stellar_ledger.State.t * Stellar_bucket.Bucket_list.t * Stellar_ledger.Header.t),
    string )
  result
(** Bootstrap a new node: rebuild the ledger state from the latest
    checkpoint's buckets, verify it against the header's snapshot hash, then
    replay the archived ledgers up to the tip, each through the call the
    live node made, {!Stellar_herder.Herder.apply_ledger} with [memo] on
    its archived value and tx set, so close time and parameters come only
    from the value.  The value is checked as input from outside first: it
    must name the archived tx set and carry only upgrades that pass
    {!Stellar_herder.Value.valid_upgrade}.  A ledger is accepted only when
    the rebuilt header hashes to the archived one.  Before replay, the
    checkpoint's header must equal the archived ledger at its seq and link
    back through the archived headers before it, or catch-up fails with
    ["header chain broken"].  Replay errors name the ledger.  Returns the
    seq of the checkpoint it replayed from, with the state, the bucket list
    at the tip (level structure identical to a node that closed those
    ledgers live — required to agree on future snapshot hashes), and the
    tip: the rebuilt header of the last ledger, which a node bootstrapping
    from the result hands its herder to link the next close to.  When
    [memo] holds the replayed closes (the run's memo), only the first is
    computed, and all three are the memo's own objects. *)

val size_bytes : t -> int
(** Exact archived volume: the XDR-encoded bytes of every published header,
    value, transaction set and checkpoint snapshot (§7.4-style cost
    accounting), encoded at each call. *)

val to_blob : t -> string
(** The whole archive as one canonical XDR blob, as it would be laid out on
    a blob store. *)

val of_blob : string -> (t, string) result
(** Strict inverse of {!to_blob}: a written archive re-reads to structurally
    equal contents, and [to_blob] of the result is bit-for-bit identical. *)
