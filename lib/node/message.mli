(** Overlay wire messages: SCP envelopes, transaction sets and transactions
    flooded among peers (§5.4, §7.5: a naive flooding protocol), and the
    one request a node sends its peers point to point.  The flood
    wrapper is an XDR union, so its overhead is the measured 4-byte
    discriminant plus the member's canonical encoding — no estimates. *)

type t =
  | Envelope of Scp.Types.envelope
  | Tx_set_msg of Stellar_herder.Tx_set.t
  | Tx_msg of Stellar_ledger.Tx.signed
  | Get_scp_state of int
      (** stellar-core's [GET_SCP_STATE]: a ledger seq (XDR [uint32]).  A
          node that has fallen behind asks its peers for what they remember
          of every slot from that seq on; it is answered, never flooded. *)

val xdr : t Stellar_xdr.Xdr.codec

val encode : t -> string
(** Canonical XDR bytes of the flood wrapper. *)

val decode : string -> (t, string) result

type wire = private {
  msg : t;
  size : int;  (** [String.length (encode msg)], for bandwidth accounting (§7.4) *)
  id : string;
      (** The flood dedup key: SHA-256 of [encode msg] for envelopes and
          txs, {!Stellar_herder.Tx_set.hash} for a tx set *)
}
(** A message as the overlay carries it.  The origin builds it once with
    {!wire}; every hop dedups on [id], accounts [size] and forwards the same
    record, so each message is encoded and hashed exactly once. *)

val wire : t -> wire
(** Encode once, measure and hash the bytes, then drop them.  A tx set
    reuses the size and hash it was built with. *)

val kind_name : t -> string
(** Short stable label ("envelope" | "txset" | "tx" | "getscpstate") for
    trace events. *)
