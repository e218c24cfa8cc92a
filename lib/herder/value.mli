(** The value SCP agrees on for each ledger (§5.3): a transaction-set hash,
    a close time, and a set of upgrades, with the combination rules used
    during nomination. *)

type upgrade =
  | Upgrade_base_fee of int
  | Upgrade_base_reserve of int
  | Upgrade_protocol_version of int

type t = { tx_set_hash : string; close_time : int; upgrades : upgrade list }

val xdr : t Stellar_xdr.Xdr.codec

val encode : t -> string
(** Canonical XDR bytes (upgrades sorted by tag). *)

val decode : string -> t option
(** Strict decode: [None] on malformed input, trailing bytes, or upgrades
    not in strictly increasing tag order, so only {!encode}'s bytes decode. *)

val hash : t -> string
(** SHA-256 of {!encode}. *)

val merge_upgrades : upgrade list -> upgrade list
(** One upgrade per parameter, the highest value of each, in tag order: the
    only upgrade lists {!decode} accepts. *)

val combine_with :
  lookup:(string -> Tx_set.t option) -> t list -> t option
(** §5.3: take the transaction set with the most operations (ties broken by
    total fees, then by hash), the union of all upgrades (higher values
    supersede), and the highest close time.  The op and fee counts come
    from [lookup]; values whose tx set it does not know are skipped. *)

val apply_upgrades : Stellar_ledger.State.t -> upgrade list -> Stellar_ledger.State.t

val valid_upgrade : upgrade -> bool
(** Sanity bounds a validator is willing to go along with. *)
