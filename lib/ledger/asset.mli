(** Assets (§5.1): the native token (XLM) or an issued credit named by an
    (issuer account, short code) pair.  Amounts everywhere in the ledger are
    integers in the asset's smallest unit (stroops for XLM: 10^7 per XLM). *)

type account_id = string
(** 32-byte public key of the owning/issuing account. *)

type t = Native | Credit of { code : string; issuer : account_id }

val native : t

val credit : code:string -> issuer:account_id -> t
(** @raise Invalid_argument if [code] is empty or longer than 12 bytes. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_native : t -> bool
val issuer : t -> account_id option

val encode : t -> string
(** Short printable key, for hashtable keys only — wire format is {!xdr}. *)

val xdr : t Stellar_xdr.Xdr.codec
(** Union: 0 = native, 1 = credit (code ≤ 12 bytes, issuer). *)

val pp : Format.formatter -> t -> unit

(** Fixed-point helpers. *)

val of_units : int -> int
(** Whole units to stroops (10^7 per unit). *)

val pp_amount : Format.formatter -> int -> unit
(** Renders stroops as a decimal unit amount. *)
