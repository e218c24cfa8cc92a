type upgrade =
  | Upgrade_base_fee of int
  | Upgrade_base_reserve of int
  | Upgrade_protocol_version of int

type t = { tx_set_hash : string; close_time : int; upgrades : upgrade list }

let upgrade_tag = function
  | Upgrade_base_fee _ -> 0
  | Upgrade_base_reserve _ -> 1
  | Upgrade_protocol_version _ -> 2

let upgrade_value = function
  | Upgrade_base_fee v | Upgrade_base_reserve v | Upgrade_protocol_version v -> v

module Xdr = Stellar_xdr.Xdr

let upgrade_xdr =
  Xdr.union ~tag:upgrade_tag
    ~write_arm:(fun w u -> Xdr.Writer.hyper w (upgrade_value u))
    ~read_arm:(fun tag r ->
      let v = Xdr.Reader.hyper r in
      match tag with
      | 0 -> Upgrade_base_fee v
      | 1 -> Upgrade_base_reserve v
      | 2 -> Upgrade_protocol_version v
      | _ -> raise (Xdr.Error "Value.upgrade: bad discriminant"))

let xdr =
  let open Xdr in
  let upgrades_xdr = list ~max:16 upgrade_xdr in
  {
    write =
      (fun w v ->
        Writer.opaque_var w v.tx_set_hash;
        Writer.hyper w v.close_time;
        (* sorted by tag, so the encoding is canonical *)
        let upgrades =
          List.sort (fun a b -> Int.compare (upgrade_tag a) (upgrade_tag b)) v.upgrades
        in
        upgrades_xdr.write w upgrades);
    read =
      (fun r ->
        let tx_set_hash = Reader.opaque_var r () in
        let close_time = Reader.hyper r in
        let upgrades = upgrades_xdr.read r in
        (* strictly increasing tags, as the writer emits them: any other
           order or a repeated tag would be a second encoding of a value *)
        let rec canonical = function
          | a :: (b :: _ as rest) -> upgrade_tag a < upgrade_tag b && canonical rest
          | _ -> true
        in
        if not (canonical upgrades) then raise (Error "Value: upgrades not in tag order");
        { tx_set_hash; close_time; upgrades });
  }

let encode v = Xdr.encode xdr v
let decode s = match Xdr.decode xdr s with Ok v -> Some v | Error _ -> None

let hash v = Stellar_crypto.Sha256.digest (encode v)

let merge_upgrades upgrades =
  (* on conflicting values for the same parameter the higher wins (§5.3:
     "higher fees and protocol version numbers supersede") *)
  let best = Hashtbl.create 4 in
  List.iter
    (fun u ->
      let tag = upgrade_tag u in
      match Hashtbl.find_opt best tag with
      | Some u' when upgrade_value u' >= upgrade_value u -> ()
      | _ -> Hashtbl.replace best tag u)
    upgrades;
  Hashtbl.fold (fun _ u acc -> u :: acc) best []
  |> List.sort (fun a b -> Int.compare (upgrade_tag a) (upgrade_tag b))

let combine_with ~lookup values =
  let known = List.filter (fun v -> lookup v.tx_set_hash <> None) values in
  match known with
  | [] -> None
  | _ ->
      let score v =
        match lookup v.tx_set_hash with
        | Some ts -> (Tx_set.op_count ts, Tx_set.total_fees ts, v.tx_set_hash)
        | None -> (0, 0, v.tx_set_hash)
      in
      let best =
        List.fold_left
          (fun acc v -> if compare (score v) (score acc) > 0 then v else acc)
          (List.hd known) (List.tl known)
      in
      let close_time = List.fold_left (fun acc v -> max acc v.close_time) 0 known in
      let upgrades = merge_upgrades (List.concat_map (fun v -> v.upgrades) known) in
      Some { tx_set_hash = best.tx_set_hash; close_time; upgrades }

let valid_upgrade = function
  | Upgrade_base_fee v -> v >= 1 && v <= 10_000
  | Upgrade_base_reserve v -> v >= 1 && v <= 100_000_000
  | Upgrade_protocol_version v -> v >= 1 && v <= 100

let apply_upgrades state upgrades =
  List.fold_left
    (fun state u ->
      match u with
      | Upgrade_base_fee v -> Stellar_ledger.State.with_params ~base_fee:v state
      | Upgrade_base_reserve v -> Stellar_ledger.State.with_params ~base_reserve:v state
      | Upgrade_protocol_version v ->
          Stellar_ledger.State.with_params ~protocol_version:v state)
    state upgrades
