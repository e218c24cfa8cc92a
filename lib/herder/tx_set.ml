open Stellar_ledger
module Xdr = Stellar_xdr.Xdr
module Sha256 = Stellar_crypto.Sha256

type t = {
  prev_header_hash : string;
  txs : Tx.signed list;
  hash : string;
  op_count : int;
  total_fees : int;
  size_bytes : int;
}

let components_xdr = Xdr.(pair (str ()) (list Tx.signed_xdr))

let by_hash a b = String.compare a.Tx.tx_hash b.Tx.tx_hash

let make ~prev_header_hash txs =
  (* Canonical order: by hash, so identical sets have identical bytes. *)
  let txs = List.sort by_hash txs in
  (* The bytes are hashed as they are written, never held whole. *)
  let ctx = Sha256.init () in
  let size_bytes = Xdr.stream components_xdr (prev_header_hash, txs) (Sha256.update_sub ctx) in
  {
    prev_header_hash;
    txs;
    hash = Sha256.final ctx;
    op_count = List.fold_left (fun acc s -> acc + Tx.operation_count s.Tx.tx) 0 txs;
    total_fees = List.fold_left (fun acc s -> acc + s.Tx.tx.Tx.fee) 0 txs;
    size_bytes;
  }

let xdr =
  Xdr.conv
    (fun t -> (t.prev_header_hash, t.txs))
    (fun (prev_header_hash, txs) ->
      (* in [make]'s order only: any other order would be a second
         encoding of the set *)
      let rec in_order = function
        | a :: (b :: _ as rest) -> by_hash a b <= 0 && in_order rest
        | _ -> true
      in
      if not (in_order txs) then raise (Xdr.Error "Tx_set: transactions not in hash order");
      make ~prev_header_hash txs)
    components_xdr

let encode t = Xdr.encode xdr t

let txs t = t.txs
let hash t = t.hash
let prev_header_hash t = t.prev_header_hash
let op_count t = t.op_count
let total_fees t = t.total_fees
let size_bytes t = t.size_bytes
let tx_count t = List.length t.txs
