open Stellar_ledger
module Xdr = Stellar_xdr.Xdr

type checkpoint = {
  seq : int;
  chk_header : Header.t;
  chk_buckets : Stellar_bucket.Bucket_list.t;
}

module Tx_set = Stellar_herder.Tx_set
module Value = Stellar_herder.Value

type t = {
  checkpoint_frequency : int;
  ledgers : (int, Header.t * Value.t * Tx_set.t) Hashtbl.t;
  mutable checkpoints : checkpoint list;  (* newest first *)
  mutable latest : int option;
}

let create ?(checkpoint_frequency = 8) () =
  {
    checkpoint_frequency;
    ledgers = Hashtbl.create 256;
    checkpoints = [];
    latest = None;
  }

let follows t seq = match t.latest with Some prev -> seq = prev + 1 | None -> true

let add_record t ((header, _, _) as r) =
  let seq = header.Header.ledger_seq in
  Hashtbl.replace t.ledgers seq r;
  t.latest <- Some seq

let add_checkpoint t c = t.checkpoints <- c :: t.checkpoints

let record_ledger t ~header ~value ~tx_set ~buckets =
  let seq = header.Header.ledger_seq in
  if not (follows t seq) then
    invalid_arg
      (Printf.sprintf "Archive.record_ledger: out of order (%d after %d)" seq
         (Option.get t.latest));
  add_record t (header, value, tx_set);
  if seq mod t.checkpoint_frequency = 0 then
    add_checkpoint t { seq; chk_header = header; chk_buckets = buckets }

let latest_seq t = t.latest
let ledger t seq = Hashtbl.find_opt t.ledgers seq
let header t seq = Option.map (fun (h, _, _) -> h) (ledger t seq)

(* newest ledger first; the archived seqs run without a gap up to [latest] *)
let find_tx t hash =
  let rec from seq =
    match ledger t seq with
    | None -> None
    | Some (_, _, ts) -> (
        match List.find_opt (fun s -> String.equal s.Tx.tx_hash hash) (Tx_set.txs ts) with
        | Some s -> Some (seq, s)
        | None -> from (seq - 1))
  in
  Option.bind t.latest from

let checkpoint_count t = List.length t.checkpoints

let catchup ~memo t =
  let ( let* ) = Result.bind in
  match t.checkpoints with
  | [] -> Error "no checkpoint available"
  | { seq; chk_header; chk_buckets } :: _ ->
      (* rebuild state from the checkpoint's buckets *)
      let* () =
        if String.equal (Stellar_bucket.Bucket_list.hash chk_buckets) chk_header.Header.snapshot_hash
        then Ok ()
        else Error "checkpoint bucket hash does not match header"
      in
      (* the checkpoint's header must be the archived ledger at its seq and
         link back through the archived headers before it; replay links
         every later header to it *)
      let rec back acc n =
        match header t n with Some h -> back (h :: acc) (n - 1) | None -> acc
      in
      let* () =
        let archived =
          match header t seq with
          | Some h -> String.equal (Header.hash h) (Header.hash chk_header)
          | None -> true
        in
        if archived && Header.verify_chain (back [ chk_header ] (seq - 1)) then Ok ()
        else Error "header chain broken"
      in
      let entries = Array.of_list (Stellar_bucket.Bucket_list.live_entries chk_buckets) in
      let state =
        State.of_entries ~ledger_seq:seq ~close_time:chk_header.Header.close_time
          ~base_fee:chk_header.Header.base_fee ~base_reserve:chk_header.Header.base_reserve
          ~protocol_version:chk_header.Header.protocol_version
          ~fee_pool:chk_header.Header.fee_pool ~id_pool:chk_header.Header.id_pool entries
      in
      (* replay forward to the tip through the herder's own close, fed the
         archived value and tx set as the live node was: each rebuilt header
         must hash to the archived one, so the value, results, fee and id
         pools, parameters and skip list are checked along with the
         snapshot, whose level structure a catching-up node must reproduce
         to agree with the network's future headers.  Through the run's
         memo, every replay after the first is an identity hit *)
      let last = Option.value ~default:seq t.latest in
      let rec replay prev state buckets n =
        if n > last then Ok (state, buckets, prev)
        else
          let* h, v, ts =
            Option.to_result ~none:(Printf.sprintf "missing ledger %d" n) (ledger t n)
          in
          (* the value comes from outside: hold it to what a live node
             validates before it votes *)
          let* () =
            if not (String.equal v.Value.tx_set_hash (Tx_set.hash ts)) then
              Error (Printf.sprintf "value names another tx set at ledger %d" n)
            else if not (List.for_all Value.valid_upgrade v.Value.upgrades) then
              Error (Printf.sprintf "invalid upgrade at ledger %d" n)
            else Ok ()
          in
          let state, buckets, rebuilt, _ =
            Stellar_herder.Herder.apply_ledger ~memo ~prev:(Some prev) state buckets v ts
          in
          if String.equal (Header.hash rebuilt) (Header.hash h) then
            replay rebuilt state buckets (n + 1)
          else Error (Printf.sprintf "replayed header mismatch at ledger %d" n)
      in
      let* caught = replay chk_header state chk_buckets (seq + 1) in
      Ok (seq, caught)

let size_bytes t =
  let record _ (h, v, ts) n =
    n + Xdr.encoded_length Header.xdr h + Xdr.encoded_length Value.xdr v + Tx_set.size_bytes ts
  in
  let checkpoint n c = n + Xdr.encoded_length Stellar_bucket.Bucket_list.xdr c.chk_buckets in
  Hashtbl.fold record t.ledgers (List.fold_left checkpoint 0 t.checkpoints)

(* ---- XDR blob serialization (§5.4: archives are flat files on blob
   stores; here, one blob for the whole archive) ---- *)

let record_xdr =
  Xdr.conv
    (fun (h, v, ts) -> (h, (v, ts)))
    (fun (h, (v, ts)) -> (h, v, ts))
    Xdr.(pair Header.xdr (pair Value.xdr Tx_set.xdr))

let checkpoint_xdr =
  Xdr.conv
    (fun c -> (c.seq, (c.chk_header, c.chk_buckets)))
    (fun (seq, (chk_header, chk_buckets)) -> { seq; chk_header; chk_buckets })
    Xdr.(pair hyper (pair Header.xdr Stellar_bucket.Bucket_list.xdr))

let blob_xdr =
  Xdr.(pair uint32 (pair (list record_xdr) (list checkpoint_xdr)))

let to_blob t =
  let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.ledgers [] |> List.sort Int.compare in
  let records = List.map (Hashtbl.find t.ledgers) seqs in
  Xdr.encode blob_xdr (t.checkpoint_frequency, (records, t.checkpoints))

let of_blob s =
  match Xdr.decode blob_xdr s with
  | Error e -> Error e
  | Ok (checkpoint_frequency, (records, checkpoints)) ->
      if checkpoint_frequency < 1 then Error "archive blob: bad checkpoint frequency"
      else begin
        let t = create ~checkpoint_frequency () in
        let ordered =
          List.fold_left
            (fun ok ((header, _, _) as r) ->
              let ok = ok && follows t header.Header.ledger_seq in
              add_record t r;
              ok)
            true records
        in
        List.iter (add_checkpoint t) (List.rev checkpoints);
        if not ordered then Error "archive blob: ledgers out of order" else Ok t
      end
