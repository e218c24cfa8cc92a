(** SHA-512 (FIPS 180-4); needed by the Ed25519 signature scheme.
    Digests are 64-byte binary strings. *)

val digest : string -> string
val digest_list : string list -> string
val hex : string -> string
