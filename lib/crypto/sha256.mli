(** SHA-256 (FIPS 180-4), implemented from scratch for the sealed build
    environment.  Digests are 32-byte binary strings. *)

type ctx
(** Incremental hashing context (mutable). *)

val init : unit -> ctx
val update : ctx -> string -> unit

val update_sub : ctx -> Bytes.t -> int -> int -> unit
(** [update_sub ctx b off len] absorbs [len] bytes of [b] from [off], reading
    whole blocks in place.  It never modifies [b].
    @raise Invalid_argument if the range is not within [b]. *)

val final : ctx -> string
(** [final ctx] returns the 32-byte digest.  The context must not be used
    afterwards. *)

type midstate
(** The chaining words and byte count of a context that has absorbed whole
    blocks only: a prefix hashed once and resumed many times. *)

val midstate : ctx -> midstate
(** Raises [Invalid_argument] unless the bytes absorbed so far fill whole
    64-byte blocks. *)

val resume : midstate -> ctx
(** A fresh context in the state the midstate was taken in. *)

val digest : string -> string
(** One-shot hash. *)

val digest_list : string list -> string
(** Hash of the concatenation, without materializing it. *)

val hex : string -> string
(** [hex msg] is the lowercase hex digest of [msg]. *)
