type t = {
  ledger_seq : int;
  prev_hash : string;
  scp_value_hash : string;
  tx_set_hash : string;
  results_hash : string;
  snapshot_hash : string;
  close_time : int;
  base_fee : int;
  base_reserve : int;
  protocol_version : int;
  fee_pool : int;
  id_pool : int;
  skip_list : string list;
}

let genesis_hash = Stellar_crypto.Sha256.digest "stellar-repro genesis"

module Xdr = Stellar_xdr.Xdr

let xdr =
  let open Xdr in
  let skip_list_xdr = list ~max:4 (str ()) in
  {
    write =
      (fun w h ->
        Writer.hyper w h.ledger_seq;
        Writer.opaque_var w h.prev_hash;
        Writer.opaque_var w h.scp_value_hash;
        Writer.opaque_var w h.tx_set_hash;
        Writer.opaque_var w h.results_hash;
        Writer.opaque_var w h.snapshot_hash;
        Writer.hyper w h.close_time;
        Writer.hyper w h.base_fee;
        Writer.hyper w h.base_reserve;
        Writer.hyper w h.protocol_version;
        Writer.hyper w h.fee_pool;
        Writer.hyper w h.id_pool;
        skip_list_xdr.write w h.skip_list);
    read =
      (fun r ->
        let ledger_seq = Reader.hyper r in
        let prev_hash = Reader.opaque_var r () in
        let scp_value_hash = Reader.opaque_var r () in
        let tx_set_hash = Reader.opaque_var r () in
        let results_hash = Reader.opaque_var r () in
        let snapshot_hash = Reader.opaque_var r () in
        let close_time = Reader.hyper r in
        let base_fee = Reader.hyper r in
        let base_reserve = Reader.hyper r in
        let protocol_version = Reader.hyper r in
        let fee_pool = Reader.hyper r in
        let id_pool = Reader.hyper r in
        let skip_list = skip_list_xdr.read r in
        { ledger_seq; prev_hash; scp_value_hash; tx_set_hash; results_hash; snapshot_hash;
          close_time; base_fee; base_reserve; protocol_version; fee_pool; id_pool; skip_list });
  }

let encode h = Xdr.encode xdr h

let hash h = Stellar_crypto.Sha256.digest (encode h)

(* Skip-list slot i points 4^i headers back, updated when the sequence is
   divisible by 4^i (a simplified version of stellar-core's scheme). *)
let update_skip_list prev seq =
  match prev with
  | None -> []
  | Some p ->
      let prev_hash = hash p in
      let rec go i acc =
        if i >= 4 then List.rev acc
        else
          let stride = 1 lsl (2 * i) in
          let inherited = List.nth_opt p.skip_list i in
          let slot =
            if seq mod stride = 0 then prev_hash
            else Option.value ~default:prev_hash inherited
          in
          go (i + 1) (slot :: acc)
      in
      go 0 []

let make ~prev ~scp_value_hash ~tx_set_hash ~results_hash ~snapshot_hash ~state =
  let seq = State.ledger_seq state in
  {
    ledger_seq = seq;
    prev_hash = (match prev with Some p -> hash p | None -> genesis_hash);
    scp_value_hash;
    tx_set_hash;
    results_hash;
    snapshot_hash;
    close_time = State.close_time state;
    base_fee = State.base_fee state;
    base_reserve = State.base_reserve state;
    protocol_version = State.protocol_version state;
    fee_pool = State.fee_pool state;
    id_pool = State.id_pool state;
    skip_list = update_skip_list prev seq;
  }

let verify_chain headers =
  let rec go = function
    | a :: (b :: _ as rest) ->
        String.equal b.prev_hash (hash a) && b.ledger_seq = a.ledger_seq + 1 && go rest
    | _ -> true
  in
  go headers
