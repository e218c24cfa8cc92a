(** The bucket list (§5.1): ledger entries stratified by time of last
    modification into exponentially-sized levels, so that hashing and state
    reconciliation cost is proportional to recent churn rather than total
    ledger size.

    Level 0 receives each ledger's batch of changed entries; when a level
    has absorbed [spill_factor] batches it spills (merges) into the level
    below, giving level [i] a capacity of ~[spill_factor^i] ledgers of
    churn.  The cumulative hash of per-level bucket hashes is the snapshot
    hash committed in the ledger header; reconciling two bucket lists only
    transfers the levels whose hashes differ.

    {!add_batch} computes every merge it needs: validators of one simulated
    network share whole ledger closes through the herder's close memo. *)

type t

val create : ?levels:int -> ?spill_factor:int -> unit -> t
(** Defaults: 10 levels, spill factor 4 (stellar-core's shape). *)

val add_batch : t -> Bucket.item list -> t
(** Absorb one ledger's changes; performs any due spills. *)

val add_batch_merges : t -> Bucket.item list -> t * (int * int) list
(** {!add_batch}, and its merges as [(level, entries)], level 0's first,
    then each spill, with the size of the bucket each produced. *)

val observe : Stellar_obs.Sink.t -> t -> (int * int) list -> unit
(** Show the merges that made [t] on a sink: count [bucket.merge] (level
    0's) and [bucket.spill], set the [bucket.entries] gauge to [t]'s size
    and, when tracing, emit a [Bucket_merge] event per merge. *)

val hash : t -> string
val level_sizes : t -> int list

val find : t -> Stellar_ledger.Entry.key -> Bucket.item option
(** Newest-level match wins (may be a tombstone). *)

val live_entries : t -> Stellar_ledger.Entry.entry list
(** The full live ledger state, rebuilt for catch-up: the levels merged
    newest first ({!Bucket.live_view}), so a tombstone hides every older
    version of its key, in any deeper level. *)

val diff_levels : t -> t -> int list
(** Levels whose bucket hashes differ — the buckets a reconnecting node
    must download (§5.1: "downloading only buckets that differ"). *)

val xdr : t Stellar_xdr.Xdr.codec
(** Canonical XDR of the whole list (spill factor, per-level buckets and
    fill counters), used for archive checkpoint snapshots. *)

val of_state : Stellar_ledger.State.t -> t
(** Bootstrap a bucket list holding a full state snapshot in its bottom
    level. *)
