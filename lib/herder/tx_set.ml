open Stellar_ledger
module Xdr = Stellar_xdr.Xdr

type t = {
  prev_header_hash : string;
  txs : Tx.signed list;
  hash : string;
  op_count : int;
  total_fees : int;
  size_bytes : int;
}

let write_components w ~prev_header_hash txs =
  Xdr.Writer.opaque_var w prev_header_hash;
  (Xdr.list Tx.signed_xdr).Xdr.write w txs

let make ~prev_header_hash txs =
  (* Canonical order: by hash, so identical sets have identical bytes. *)
  let txs = List.sort (fun a b -> String.compare a.Tx.tx_hash b.Tx.tx_hash) txs in
  let w = Xdr.Writer.create ~initial_size:1024 () in
  write_components w ~prev_header_hash txs;
  let encoded = Xdr.Writer.contents w in
  {
    prev_header_hash;
    txs;
    hash = Stellar_crypto.Sha256.digest encoded;
    op_count = List.fold_left (fun acc s -> acc + Tx.operation_count s.Tx.tx) 0 txs;
    total_fees = List.fold_left (fun acc s -> acc + s.Tx.tx.Tx.fee) 0 txs;
    size_bytes = String.length encoded;
  }

let xdr =
  {
    Xdr.write = (fun w t -> write_components w ~prev_header_hash:t.prev_header_hash t.txs);
    read =
      (fun r ->
        let prev_header_hash = Xdr.Reader.opaque_var r () in
        let txs = (Xdr.list Tx.signed_xdr).Xdr.read r in
        make ~prev_header_hash txs);
  }

let encode t = Xdr.encode xdr t
let decode s = Xdr.decode xdr s

let txs t = t.txs
let hash t = t.hash
let prev_header_hash t = t.prev_header_hash
let op_count t = t.op_count
let total_fees t = t.total_fees
let size_bytes t = t.size_bytes
let tx_count t = List.length t.txs
