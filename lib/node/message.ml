module Xdr = Stellar_xdr.Xdr

type t =
  | Envelope of Scp.Types.envelope
  | Tx_set_msg of Stellar_herder.Tx_set.t
  | Tx_msg of Stellar_ledger.Tx.signed
  | Get_scp_state of int

let xdr =
  Xdr.union
    ~tag:(function Envelope _ -> 0 | Tx_set_msg _ -> 1 | Tx_msg _ -> 2 | Get_scp_state _ -> 3)
    ~write_arm:(fun w -> function
      | Envelope env -> Scp.Types.envelope_xdr.Xdr.write w env
      | Tx_set_msg ts -> Stellar_herder.Tx_set.xdr.Xdr.write w ts
      | Tx_msg signed -> Stellar_ledger.Tx.signed_xdr.Xdr.write w signed
      | Get_scp_state seq -> Xdr.uint32.Xdr.write w seq)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Envelope (Scp.Types.envelope_xdr.Xdr.read r)
      | 1 -> Tx_set_msg (Stellar_herder.Tx_set.xdr.Xdr.read r)
      | 2 -> Tx_msg (Stellar_ledger.Tx.signed_xdr.Xdr.read r)
      | 3 -> Get_scp_state (Xdr.uint32.Xdr.read r)
      | _ -> raise (Xdr.Error "Message: bad discriminant"))

let encode m = Xdr.encode xdr m

let decode s = Xdr.decode xdr s

type wire = { msg : t; size : int; id : string }

(* The bytes are dropped once measured and hashed: every hop only needs the
   value, the size and the id, and keeping the bytes alive in flight would
   hold a copy of every message in the heap.  A tx set already carries its
   size and the hash of its bytes, which name it exactly as the hash of the
   wrapper would, so it is neither encoded nor hashed again. *)
let wire msg =
  match msg with
  | Tx_set_msg ts ->
      { msg; size = 4 + Stellar_herder.Tx_set.size_bytes ts; id = Stellar_herder.Tx_set.hash ts }
  | Envelope _ | Tx_msg _ | Get_scp_state _ ->
      let bytes = encode msg in
      { msg; size = String.length bytes; id = Stellar_crypto.Sha256.digest bytes }

let kind_name = function
  | Envelope _ -> "envelope"
  | Tx_set_msg _ -> "txset"
  | Tx_msg _ -> "tx"
  | Get_scp_state _ -> "getscpstate"
