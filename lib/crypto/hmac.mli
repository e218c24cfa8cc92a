(** HMAC-SHA256 (RFC 2104), used for deterministic key/nonce derivation. *)

type key
(** A prepared key: the SHA-256 midstates after the inner and outer padded
    key blocks, so each MAC under it hashes only the message. *)

val prepare : string -> key

val mac : key -> string -> string
(** [mac (prepare key) msg] is [sha256 ~key msg]. *)

val sha256 : key:string -> string -> string
(** [sha256 ~key msg] is the 32-byte MAC. *)

val hex : key:string -> string -> string
