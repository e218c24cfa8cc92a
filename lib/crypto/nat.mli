(** Arbitrary-precision natural numbers.

    The sealed build environment has no [zarith], so the signature schemes
    and the derivation of SHA-2 round constants are built on this module.
    Numbers are immutable; all operations return fresh values. *)

type t

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a non-negative [int]. @raise Invalid_argument on
    negative input. *)

val to_int : t -> int
(** @raise Invalid_argument if the value exceeds [max_int]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** [sub a b] is [a - b]. @raise Invalid_argument if [a < b]. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b] is [(a / b, a mod b)] with [0 <= a mod b < b].
    @raise Division_by_zero if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

val modpow : t -> t -> t -> t
(** [modpow base exp m] is [base{^exp} mod m]. *)

val bit_length : t -> int
(** Number of significant bits; [bit_length zero = 0]. *)

val testbit : t -> int -> bool
(** [testbit n i] is bit [i] (little-endian) of [n]. *)

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val isqrt : t -> t
(** Integer square root: greatest [r] with [r * r <= n]. *)

val icbrt : t -> t
(** Integer cube root: greatest [r] with [r * r * r <= n]. *)

val of_bytes_be : string -> t
val to_bytes_be : t -> len:int -> string
(** [to_bytes_be n ~len] is the big-endian encoding padded to [len] bytes.
    @raise Invalid_argument if [n] does not fit. *)

val of_bytes_le : string -> t
val to_bytes_le : t -> len:int -> string

val of_hex : string -> t
val to_hex : t -> string

val to_string : t -> string
(** Decimal rendering. *)
