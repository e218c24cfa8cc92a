open Stellar_ledger

type t = {
  by_hash : (string, Tx.signed) Hashtbl.t;
  by_account : (string, Tx.signed list ref) Hashtbl.t;  (* sorted by seq *)
}

let create () = { by_hash = Hashtbl.create 256; by_account = Hashtbl.create 64 }

let add t signed =
  let h = signed.Tx.tx_hash in
  if Hashtbl.mem t.by_hash h then false
  else begin
    Hashtbl.replace t.by_hash h signed;
    let src = signed.Tx.tx.Tx.source in
    let q =
      match Hashtbl.find_opt t.by_account src with
      | Some q -> q
      | None ->
          let q = ref [] in
          Hashtbl.replace t.by_account src q;
          q
    in
    (* Before the first queued tx with an equal or higher sequence number:
       where a stable sort of [signed :: !q] would put it. *)
    let seq = signed.Tx.tx.Tx.seq_num in
    let rec insert = function
      | s :: rest when s.Tx.tx.Tx.seq_num < seq -> s :: insert rest
      | l -> signed :: l
    in
    q := insert !q;
    true
  end

let size t = Hashtbl.length t.by_hash
let txs t = Hashtbl.fold (fun _ q acc -> !q @ acc) t.by_account []

let fee_rate s = s.Tx.tx.Tx.fee / max 1 (Tx.operation_count s.Tx.tx)

let candidates t ~state ~max_ops =
  (* Under congestion the scarce resource is operations per ledger; include
     the highest fee-per-operation account chains first (§5.2's surge
     pricing / Dutch auction behaviour). *)
  let chains =
    Hashtbl.fold
      (fun src q acc ->
        match State.account state src with
        | None -> acc
        | Some acct ->
            let rec chain next = function
              | s :: rest when s.Tx.tx.Tx.seq_num = next -> s :: chain (next + 1) rest
              | s :: rest when s.Tx.tx.Tx.seq_num <= next -> chain next rest (* stale *)
              | _ -> []
            in
            (match chain (acct.Entry.seq_num + 1) !q with [] -> acc | c -> c :: acc))
      t.by_account []
  in
  let sorted =
    List.sort
      (fun a b -> Int.compare (fee_rate (List.hd b)) (fee_rate (List.hd a)))
      chains
  in
  let ops = ref 0 in
  let picked = ref [] in
  List.iter
    (fun chain ->
      let rec take = function
        | s :: rest when !ops + Tx.operation_count s.Tx.tx <= max_ops || !ops = 0 ->
            ops := !ops + Tx.operation_count s.Tx.tx;
            picked := s :: !picked;
            if !ops < max_ops then take rest
        | _ -> ()
      in
      if !ops < max_ops then take chain)
    sorted;
  !picked

let remove_one t signed =
  let h = signed.Tx.tx_hash in
  if Hashtbl.mem t.by_hash h then begin
    Hashtbl.remove t.by_hash h;
    let src = signed.Tx.tx.Tx.source in
    match Hashtbl.find_opt t.by_account src with
    | None -> ()
    | Some q ->
        q := List.filter (fun s -> not (String.equal s.Tx.tx_hash h)) !q;
        if !q = [] then Hashtbl.remove t.by_account src
  end

let remove_applied t txs = List.iter (remove_one t) txs

let purge_invalid t ~state =
  let stale = ref [] in
  Hashtbl.iter
    (fun src q ->
      let current =
        match State.account state src with
        | Some a -> a.Entry.seq_num
        | None -> max_int (* account gone: everything is stale *)
      in
      List.iter
        (fun s -> if s.Tx.tx.Tx.seq_num <= current then stale := s :: !stale)
        !q)
    t.by_account;
  List.iter (remove_one t) !stale;
  !stale
