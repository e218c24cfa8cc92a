(** A bucket: an immutable, key-sorted run of ledger entries (live or
    tombstoned), hashed once at construction (§5.1).

    Buckets are only ever read sequentially as part of merges — the paper
    notes random access by key is not required, which lets the structure
    relax LSM-tree constraints.  We keep a binary-search [find] anyway for
    the archive/catchup tests. *)

type item = { key : Stellar_ledger.Entry.key; entry : Stellar_ledger.Entry.entry option }
(** [entry = None] is a tombstone (the entry died). *)

type t

val empty : t
val size : t -> int

val of_items : item list -> t
(** Sorts and deduplicates by key (last write wins). *)

val of_sorted : item array -> t
(** [of_items] for a run already in strictly increasing key order, taken
    as it is (the array becomes the bucket's own; do not mutate it):
    checked and hashed, never sorted or copied.  Raises [Invalid_argument]
    on any other order, a repeated key included. *)

val items : t -> item list
val hash : t -> string
(** SHA-256 over the serialized run; the empty bucket hashes to a fixed
    sentinel. *)

val item_xdr : item Stellar_xdr.Xdr.codec

val xdr : t Stellar_xdr.Xdr.codec
(** Canonical XDR of the sorted run; decoding recomputes the hash. *)

val find : t -> Stellar_ledger.Entry.key -> item option

val merge : newer:t -> older:t -> keep_tombstones:bool -> t
(** Sequential merge-join: entries from [newer] shadow [older].  At the
    bottom level tombstones are dropped ([keep_tombstones = false]),
    reclaiming space for entries that died long ago. *)

val merge_batch : item list -> older:t -> t
(** [merge_batch items ~older] is
    [merge ~newer:(of_items items) ~older ~keep_tombstones:true] without
    building or hashing the intermediate bucket. *)

val live_view : t list -> Stellar_ledger.Entry.entry list
(** [live_view buckets], newest bucket first, is the live entries in key
    order: of each key only the newest item counts, and a tombstone hides
    the key in every older bucket.  No bucket is built or hashed. *)
