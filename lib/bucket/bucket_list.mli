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

    Every list grown by {!add_batch} from one {!create}, {!of_state} or
    decoded list shares a bounded memo of that lineage's last 64 merges,
    keyed by their exact inputs: level 0's older bucket hash and the batch
    (compared structurally), or a spill's two bucket hashes and whether it
    keeps tombstones.  Validators of one simulated network that close the
    same ledger therefore merge and hash it once, and hold the same
    buckets. *)

type t

val create : ?levels:int -> ?spill_factor:int -> unit -> t
(** Defaults: 10 levels, spill factor 4 (stellar-core's shape). *)

val add_batch : ?obs:Stellar_obs.Sink.t -> t -> Bucket.item list -> t
(** Absorb one ledger's changes; performs any due spills.  A live [obs]
    sink counts [bucket.merge]/[bucket.spill], tracks the [bucket.entries]
    gauge and, when tracing, emits a [Bucket_merge] event per level
    touched, whether the merge was computed or taken from the memo. *)

val merge_s : t -> float
(** CPU seconds of the merges of the {!add_batch} that returned this list
    ([0.] for a list not made by [add_batch]).  A merge taken from the memo
    counts the seconds it took when first computed, so each node is charged
    its merges as if it had done them itself. *)

val hash : t -> string
val level_bucket : t -> int -> Bucket.t
val level_sizes : t -> int list

val find : t -> Stellar_ledger.Entry.key -> Bucket.item option
(** Newest-level match wins (may be a tombstone). *)

val live_entries : t -> Stellar_ledger.Entry.entry list
(** Reconstruct the full live ledger state (used in catchup). *)

val diff_levels : t -> t -> int list
(** Levels whose bucket hashes differ — the buckets a reconnecting node
    must download (§5.1: "downloading only buckets that differ"). *)

val xdr : t Stellar_xdr.Xdr.codec
(** Canonical XDR of the whole list (spill factor, per-level buckets and
    fill counters), used for archive checkpoint snapshots. *)

val of_state : Stellar_ledger.State.t -> t
(** Bootstrap a bucket list holding a full state snapshot in its bottom
    level. *)
