(** RFC 4506 XDR: canonical binary wire format.

    Every serialized item occupies a multiple of 4 bytes; integers are
    big-endian; variable-length data carries a 4-byte length prefix and is
    zero-padded to the next 4-byte boundary.  Decoding is strict: padding
    must be zero, lengths are bounds-checked against the buffer and any
    declared maximum, and a top-level decode must consume the whole input.
    This makes encodings canonical — a value has exactly one encoding, so
    content hashes computed over encoded bytes are well-defined. *)

exception Error of string
(** Raised on malformed input (bounds, padding, bad discriminant, range). *)

(** Output stream obeying XDR alignment: an append-only buffer, or a fixed
    chunk drained into a sink. *)
module Writer : sig
  type t

  val create : unit -> t
  (** A writer that keeps every byte, for {!contents}. *)

  val chunk_size : int
  (** 512: the chunk of a {!to_sink} writer. *)

  val to_sink : (Bytes.t -> int -> int -> unit) -> t
  (** A writer over a fixed chunk of {!chunk_size} bytes: each time it
      fills, the chunk is handed to the sink as [sink bytes off len], and
      an opaque longer than the chunk is handed over in place.  The sink
      must not keep or modify what it is given.  The whole encoding is
      never held. *)

  val flush : t -> unit
  (** Hand any bytes still in the chunk to the sink (no-op without one). *)

  val length : t -> int
  (** Bytes written so far, including those already given to the sink. *)

  val int32 : t -> int -> unit
  (** Signed 32-bit, big-endian. @raise Error outside [-2^31, 2^31). *)

  val uint32 : t -> int -> unit
  (** Unsigned 32-bit. @raise Error outside [0, 2^32). *)

  val hyper : t -> int -> unit
  (** Signed 64-bit (every OCaml int fits). *)

  val bool : t -> bool -> unit
  (** Encoded as uint32 0 / 1. *)

  val opaque_fixed : t -> string -> unit
  (** Raw bytes, zero-padded to a 4-byte boundary (no length prefix). *)

  val opaque_var : t -> ?max:int -> string -> unit
  (** Length prefix + bytes + zero padding. @raise Error if longer than
      [max]. XDR strings share this representation. *)

  val contents : t -> string
  (** @raise Invalid_argument on a {!to_sink} writer. *)
end

(** Input stream over an immutable string, with bounds checking. *)
module Reader : sig
  type t

  val of_string : string -> t
  val pos : t -> int
  val remaining : t -> int

  val int32 : t -> int
  val uint32 : t -> int
  val hyper : t -> int
  (** @raise Error outside OCaml's 63-bit [int] range, where the writer
      cannot have produced it. *)

  val bool : t -> bool
  val opaque_fixed : t -> int -> string
  val opaque_var : t -> ?max:int -> unit -> string

  val expect_end : t -> unit
  (** @raise Error if any input remains. *)
end

type 'a codec = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }
(** A codec pairs one encoder with one decoder so that round-tripping is
    checked by construction: [decode c (encode c v)] must return a value
    that re-encodes to the same bytes. *)

(* ---- primitive codecs ---- *)

val int32 : int codec
val uint32 : int codec
val hyper : int codec
val bool : bool codec

val str : ?max:int -> unit -> string codec
(** Variable-length opaque/string. *)

val opaque : int -> string codec
(** Fixed-length opaque of exactly [n] bytes. *)

(* ---- combinators ---- *)

val list : ?max:int -> 'a codec -> 'a list codec
(** Variable-length array: uint32 count then elements.  [max] bounds the
    declared count before any element is decoded. *)

val option : 'a codec -> 'a option codec
(** XDR optional-data: bool discriminant then the value if present. *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec

val conv : ('a -> 'b) -> ('b -> 'a) -> 'b codec -> 'a codec
(** [conv project inject c] maps a codec across an isomorphism. *)

val union :
  tag:('a -> int) ->
  write_arm:(Writer.t -> 'a -> unit) ->
  read_arm:(int -> Reader.t -> 'a) ->
  'a codec
(** Discriminated union: uint32 tag then the arm body.  [read_arm] should
    raise {!Error} on an unknown tag. *)

(* ---- top-level entry points ---- *)

val encode : 'a codec -> 'a -> string

val stream : 'a codec -> 'a -> (Bytes.t -> int -> int -> unit) -> int
(** [stream c v sink] feeds the bytes of [encode c v] to [sink] in order,
    through a {!Writer.to_sink} writer, and returns their length. *)

val encoded_length : 'a codec -> 'a -> int
(** Exact length in bytes of [encode c v] (always a multiple of 4),
    measured by streaming into a sink that drops the bytes. *)

val decode : 'a codec -> string -> ('a, string) result
(** Strict: the whole input must be consumed. *)

val round_trips : 'a codec -> 'a -> bool
(** [round_trips c v]: encoding, decoding and re-encoding [v] reproduces
    the same bytes.  The property every domain codec must satisfy. *)
