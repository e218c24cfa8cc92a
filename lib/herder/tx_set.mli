(** A transaction set: the batch of transactions one ledger applies.  SCP
    agrees only on its hash (§5.3); the set itself floods separately. *)

type t

val make : prev_header_hash:string -> Stellar_ledger.Tx.signed list -> t
val txs : t -> Stellar_ledger.Tx.signed list

val hash : t -> string
(** SHA-256 of the canonical XDR encoding, which binds the transactions AND
    the previous ledger header (§5.3: "including a hash of the previous
    ledger header"). *)

val xdr : t Stellar_xdr.Xdr.codec
(** Decoding accepts transactions only in the hash order {!make} writes
    them in, so a decoded set re-encodes to the bytes received and carries
    their hash. *)

val encode : t -> string

val prev_header_hash : t -> string
val op_count : t -> int
val total_fees : t -> int

val size_bytes : t -> int
(** Exact wire size: [Bytes.length] of {!encode}. *)

val tx_count : t -> int
