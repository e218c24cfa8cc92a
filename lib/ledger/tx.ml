type account_id = Asset.account_id

type time_bounds = { min_time : int; max_time : int }

type memo = Memo_none | Memo_text of string | Memo_hash of string

type signer_update = Set_signer of Entry.signer | Remove_signer of string

type operation_body =
  | Create_account of { destination : account_id; starting_balance : int }
  | Payment of { destination : account_id; asset : Asset.t; amount : int }
  | Path_payment of {
      send_asset : Asset.t;
      send_max : int;
      destination : account_id;
      dest_asset : Asset.t;
      dest_amount : int;
      path : Asset.t list;
    }
  | Manage_offer of {
      offer_id : int;
      selling : Asset.t;
      buying : Asset.t;
      amount : int;
      price : Price.t;
      passive : bool;
    }
  | Set_options of {
      master_weight : int option;
      low : int option;
      medium : int option;
      high : int option;
      signer : signer_update option;
      home_domain : string option;
      set_auth_required : bool option;
      set_auth_revocable : bool option;
      set_auth_immutable : bool option;
    }
  | Change_trust of { asset : Asset.t; limit : int }
  | Allow_trust of { trustor : account_id; asset_code : string; authorize : bool }
  | Account_merge of { destination : account_id }
  | Manage_data of { name : string; value : string option }
  | Bump_sequence of { bump_to : int }
  | Set_inflation_dest of { dest : account_id }
  | Inflation

type operation = { op_source : account_id option; body : operation_body }

let op ?source body = { op_source = source; body }

type t = {
  source : account_id;
  fee : int;
  seq_num : int;
  time_bounds : time_bounds option;
  memo : memo;
  operations : operation list;
}

type signed = { tx : t; signatures : (account_id * string) list; tx_hash : string }

let make ~source ~seq_num ?fee ?time_bounds ?(memo = Memo_none) operations =
  let fee = match fee with Some f -> f | None -> 100 * List.length operations in
  { source; fee; seq_num; time_bounds; memo; operations }

module Xdr = Stellar_xdr.Xdr

let time_bounds_xdr =
  Xdr.conv
    (fun tb -> (tb.min_time, tb.max_time))
    (fun (min_time, max_time) -> { min_time; max_time })
    Xdr.(pair hyper hyper)

let memo_xdr =
  Xdr.union
    ~tag:(function Memo_none -> 0 | Memo_text _ -> 1 | Memo_hash _ -> 2)
    ~write_arm:(fun w -> function
      | Memo_none -> ()
      | Memo_text s -> Xdr.Writer.opaque_var w ~max:28 s
      | Memo_hash h -> Xdr.Writer.opaque_var w h)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Memo_none
      | 1 -> Memo_text (Xdr.Reader.opaque_var r ~max:28 ())
      | 2 -> Memo_hash (Xdr.Reader.opaque_var r ())
      | _ -> raise (Xdr.Error "Tx.memo: bad discriminant"))

let signer_update_xdr =
  Xdr.union
    ~tag:(function Set_signer _ -> 0 | Remove_signer _ -> 1)
    ~write_arm:(fun w -> function
      | Set_signer s ->
          Xdr.Writer.opaque_var w s.Entry.key;
          Xdr.Writer.hyper w s.Entry.weight
      | Remove_signer k -> Xdr.Writer.opaque_var w k)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 ->
          let key = Xdr.Reader.opaque_var r () in
          let weight = Xdr.Reader.hyper r in
          Set_signer { Entry.key; weight }
      | 1 -> Remove_signer (Xdr.Reader.opaque_var r ())
      | _ -> raise (Xdr.Error "Tx.signer_update: bad discriminant"))

let body_tag = function
  | Create_account _ -> 0
  | Payment _ -> 1
  | Path_payment _ -> 2
  | Manage_offer _ -> 3
  | Set_options _ -> 4
  | Change_trust _ -> 5
  | Allow_trust _ -> 6
  | Account_merge _ -> 7
  | Manage_data _ -> 8
  | Bump_sequence _ -> 9
  | Set_inflation_dest _ -> 10
  | Inflation -> 11

let body_xdr =
  let open Xdr in
  let acct = str () in
  let path_xdr = list ~max:5 Asset.xdr and opt_hyper = option hyper and opt_bool = option bool in
  let opt_str = option (str ()) and opt_signer = option signer_update_xdr in
  union ~tag:body_tag
    ~write_arm:(fun w -> function
      | Create_account { destination; starting_balance } ->
          acct.write w destination;
          Writer.hyper w starting_balance
      | Payment { destination; asset; amount } ->
          acct.write w destination;
          Asset.xdr.write w asset;
          Writer.hyper w amount
      | Path_payment { send_asset; send_max; destination; dest_asset; dest_amount; path } ->
          Asset.xdr.write w send_asset;
          Writer.hyper w send_max;
          acct.write w destination;
          Asset.xdr.write w dest_asset;
          Writer.hyper w dest_amount;
          path_xdr.write w path
      | Manage_offer { offer_id; selling; buying; amount; price; passive } ->
          Writer.hyper w offer_id;
          Asset.xdr.write w selling;
          Asset.xdr.write w buying;
          Writer.hyper w amount;
          Price.xdr.write w price;
          Writer.bool w passive
      | Set_options o ->
          opt_hyper.write w o.master_weight;
          opt_hyper.write w o.low;
          opt_hyper.write w o.medium;
          opt_hyper.write w o.high;
          opt_signer.write w o.signer;
          opt_str.write w o.home_domain;
          opt_bool.write w o.set_auth_required;
          opt_bool.write w o.set_auth_revocable;
          opt_bool.write w o.set_auth_immutable
      | Change_trust { asset; limit } ->
          Asset.xdr.write w asset;
          Writer.hyper w limit
      | Allow_trust { trustor; asset_code; authorize } ->
          acct.write w trustor;
          Writer.opaque_var w ~max:12 asset_code;
          Writer.bool w authorize
      | Account_merge { destination } -> acct.write w destination
      | Manage_data { name; value } ->
          Writer.opaque_var w name;
          opt_str.write w value
      | Bump_sequence { bump_to } -> Writer.hyper w bump_to
      | Set_inflation_dest { dest } -> acct.write w dest
      | Inflation -> ())
    ~read_arm:(fun tag r ->
      match tag with
      | 0 ->
          let destination = acct.read r in
          let starting_balance = Reader.hyper r in
          Create_account { destination; starting_balance }
      | 1 ->
          let destination = acct.read r in
          let asset = Asset.xdr.read r in
          let amount = Reader.hyper r in
          Payment { destination; asset; amount }
      | 2 ->
          let send_asset = Asset.xdr.read r in
          let send_max = Reader.hyper r in
          let destination = acct.read r in
          let dest_asset = Asset.xdr.read r in
          let dest_amount = Reader.hyper r in
          let path = path_xdr.read r in
          Path_payment { send_asset; send_max; destination; dest_asset; dest_amount; path }
      | 3 ->
          let offer_id = Reader.hyper r in
          let selling = Asset.xdr.read r in
          let buying = Asset.xdr.read r in
          let amount = Reader.hyper r in
          let price = Price.xdr.read r in
          let passive = Reader.bool r in
          Manage_offer { offer_id; selling; buying; amount; price; passive }
      | 4 ->
          let master_weight = opt_hyper.read r in
          let low = opt_hyper.read r in
          let medium = opt_hyper.read r in
          let high = opt_hyper.read r in
          let signer = opt_signer.read r in
          let home_domain = opt_str.read r in
          let set_auth_required = opt_bool.read r in
          let set_auth_revocable = opt_bool.read r in
          let set_auth_immutable = opt_bool.read r in
          Set_options
            { master_weight; low; medium; high; signer; home_domain; set_auth_required;
              set_auth_revocable; set_auth_immutable }
      | 5 ->
          let asset = Asset.xdr.read r in
          let limit = Reader.hyper r in
          Change_trust { asset; limit }
      | 6 ->
          let trustor = acct.read r in
          let asset_code = Reader.opaque_var r ~max:12 () in
          let authorize = Reader.bool r in
          Allow_trust { trustor; asset_code; authorize }
      | 7 -> Account_merge { destination = acct.read r }
      | 8 ->
          let name = Reader.opaque_var r () in
          let value = opt_str.read r in
          Manage_data { name; value }
      | 9 -> Bump_sequence { bump_to = Reader.hyper r }
      | 10 -> Set_inflation_dest { dest = acct.read r }
      | 11 -> Inflation
      | _ -> raise (Xdr.Error "Tx.operation: bad discriminant"))

let operation_xdr =
  Xdr.conv
    (fun o -> (o.op_source, o.body))
    (fun (op_source, body) -> { op_source; body })
    Xdr.(pair (option (str ())) body_xdr)

let xdr =
  let open Xdr in
  let opt_time_bounds = option time_bounds_xdr and operations_xdr = list ~max:100 operation_xdr in
  {
    write =
      (fun w tx ->
        Writer.opaque_var w tx.source;
        Writer.hyper w tx.fee;
        Writer.hyper w tx.seq_num;
        opt_time_bounds.write w tx.time_bounds;
        memo_xdr.write w tx.memo;
        operations_xdr.write w tx.operations);
    read =
      (fun r ->
        let source = Reader.opaque_var r () in
        let fee = Reader.hyper r in
        let seq_num = Reader.hyper r in
        let time_bounds = opt_time_bounds.read r in
        let memo = memo_xdr.read r in
        let operations = operations_xdr.read r in
        { source; fee; seq_num; time_bounds; memo; operations });
  }

let encode tx = Xdr.encode xdr tx

let network_id = Stellar_crypto.Sha256.digest "stellar-repro network ; 2026"

let hash tx = Stellar_crypto.Sha256.digest_list [ network_id; encode tx ]

let make_signed tx signatures = { tx; signatures; tx_hash = hash tx }

let signed_xdr =
  Xdr.conv
    (fun s -> (s.tx, s.signatures))
    (fun (tx, signatures) -> make_signed tx signatures)
    Xdr.(pair xdr (list ~max:20 (pair (str ()) (str ()))))

let sign tx ~secret ~public ~scheme =
  let module S = (val scheme : Stellar_crypto.Sig_intf.SCHEME with type secret = string) in
  let tx_hash = hash tx in
  { tx; signatures = [ (public, S.sign secret tx_hash) ]; tx_hash }

let co_sign signed ~secret ~public ~scheme =
  let module S = (val scheme : Stellar_crypto.Sig_intf.SCHEME with type secret = string) in
  { signed with signatures = (public, S.sign secret signed.tx_hash) :: signed.signatures }

let operation_count tx = List.length tx.operations

let size signed = Xdr.encoded_length signed_xdr signed

type threshold_level = Low | Medium | High

let threshold_level = function
  | Allow_trust _ | Bump_sequence _ | Inflation -> Low
  | Set_options _ | Account_merge _ -> High
  | Create_account _ | Payment _ | Path_payment _ | Manage_offer _ | Change_trust _
  | Manage_data _ | Set_inflation_dest _ ->
      Medium
