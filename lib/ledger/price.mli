(** Exact rational prices for offers.

    An offer selling asset S for asset B at price [n/d] asks [n] units of B
    for every [d] units of S.  Prices compare by cross-multiplication, so no
    floating point enters the order book. *)

type t = { n : int; d : int }

val make : n:int -> d:int -> t
(** @raise Invalid_argument unless [0 < n] and [0 < d] and both fit 31 bits
    (so cross products cannot overflow a 63-bit int against ledger
    amounts). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val inverse : t -> t
val to_float : t -> float
val pp : Format.formatter -> t -> unit

val mul_floor : int -> t -> int option
(** [mul_floor x p = ⌊x·n/d⌋]; [None] on overflow. *)

val mul_ceil : int -> t -> int option
val div_floor : int -> t -> int option
(** [div_floor x p = ⌊x·d/n⌋]; [None] on overflow. *)

val crosses : taker:t -> maker:t -> bool
(** Does a taker offer (selling S for B at [taker]) cross a maker offer
    (selling B for S at [maker])?  True when [taker · maker <= 1], i.e. the
    maker asks no more than the taker concedes. *)

val xdr : t Stellar_xdr.Xdr.codec
(** Two uint32 components; decoding enforces the {!make} invariants. *)
