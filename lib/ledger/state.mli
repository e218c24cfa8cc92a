(** The ledger state: an immutable snapshot of all ledger entries plus the
    global parameters carried in the header (§5.1).

    Immutability gives transaction atomicity for free: operations build a
    tentative state and the caller discards it wholesale if any operation
    fails (§5.2). *)

type t

val genesis :
  ?base_fee:int ->
  ?base_reserve:int ->
  ?protocol_version:int ->
  master:Entry.account_id ->
  total_xlm:int ->
  unit ->
  t
(** Initial state with one master account holding the pre-mined supply. *)

(* ---- header parameters ---- *)

val ledger_seq : t -> int
val close_time : t -> int
val base_fee : t -> int
val base_reserve : t -> int
val protocol_version : t -> int
val fee_pool : t -> int
val set_header : t -> ledger_seq:int -> close_time:int -> t
val with_params : ?base_fee:int -> ?base_reserve:int -> ?protocol_version:int -> t -> t
val add_fee : t -> int -> t

val min_balance : t -> num_sub_entries:int -> int
(** [(2 + num_sub_entries) * base_reserve]. *)

(* ---- accounts ---- *)

val account : t -> Entry.account_id -> Entry.account option
val put_account : t -> Entry.account -> t
val remove_account : t -> Entry.account_id -> t
val account_count : t -> int

(* ---- trustlines ---- *)

val trustline : t -> Entry.account_id -> Asset.t -> Entry.trustline option
val put_trustline : t -> Entry.trustline -> t
val remove_trustline : t -> Entry.account_id -> Asset.t -> t
val trustlines_of : t -> Entry.account_id -> Entry.trustline list

(* ---- offers ---- *)

val offer : t -> int -> Entry.offer option
val put_offer : t -> Entry.offer -> t
(** Inserts or replaces, keeping the order-book index consistent. *)

val remove_offer : t -> int -> t
val next_offer_id : t -> t * int
val offers_of : t -> Entry.account_id -> Entry.offer list

val best_offers : t -> selling:Asset.t -> buying:Asset.t -> Entry.offer list
(** Offers selling [selling] for [buying], best (lowest) price first, ties
    by offer id — the order book of §5.1. *)

(* ---- data entries ---- *)

val data : t -> Entry.account_id -> string -> Entry.data option
val put_data : t -> Entry.data -> t
val remove_data : t -> Entry.account_id -> string -> t

(* ---- whole-ledger views ---- *)

val all_entries : t -> Entry.entry list
(** Every entry, sorted by key. *)

val iter_entries : (Entry.entry -> unit) -> t -> unit
(** [f] on every entry in key order, as {!all_entries} lists them, with no
    list built; feeds snapshot hashing and the bucket list's bottom
    bucket. *)

val entry_count : t -> int
(** The number of entries {!iter_entries} visits. *)

val lookup : t -> Entry.key -> Entry.entry option

val take_dirty : t -> t * Entry.key list
(** Keys touched since the last [take_dirty] (deduplicated).  Because the
    dirty log is part of the immutable state value, discarding a tentative
    state also discards its dirty entries — failed transactions leave no
    trace.  Feeds incremental bucket-list updates each ledger close. *)

val snapshot_hash : t -> string

val total_native : t -> int
(** Sum of all native balances plus the fee pool (conserved by every
    transaction: only fees move XLM out of accounts). *)

val total_issued : t -> Asset.t -> int
(** Sum of trustline balances of an issued asset. *)

val id_pool : t -> int
(** Next offer id to be allocated (the header's idPool). *)

val of_entries :
  ledger_seq:int ->
  close_time:int ->
  base_fee:int ->
  base_reserve:int ->
  protocol_version:int ->
  fee_pool:int ->
  id_pool:int ->
  Entry.entry array ->
  t
(** Build a state from a full entry snapshot plus the header-carried
    counters.  The entries must be in strictly increasing
    {!Entry.compare_key} order of their keys, as {!all_entries} lists
    them; anything else, a repeated key included, raises
    [Invalid_argument].  Each map is then built from its run in linear
    time, with an empty dirty log.  Its callers: {!genesis} and
    [Genesis.make] (the genesis ledger, sorted by account id) and
    [Archive.catchup] (a checkpoint's live entries, which the bucket list
    yields in key order). *)

val check_integrity : t -> (unit, string) result
(** Structural invariants: non-negative balances, trustline balance within
    limit, order-book index consistent with offers, sub-entry counts
    correct.  Used by property tests and examples. *)
