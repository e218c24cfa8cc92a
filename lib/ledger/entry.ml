type account_id = Asset.account_id

type flags = { auth_required : bool; auth_revocable : bool; auth_immutable : bool }

let default_flags = { auth_required = false; auth_revocable = false; auth_immutable = false }

type thresholds = { master_weight : int; low : int; medium : int; high : int }

let default_thresholds = { master_weight = 1; low = 0; medium = 0; high = 0 }

type signer = { key : string; weight : int }

type account = {
  id : account_id;
  balance : int;
  seq_num : int;
  num_sub_entries : int;
  flags : flags;
  thresholds : thresholds;
  signers : signer list;
  home_domain : string;
  inflation_dest : account_id option;
}

let new_account ~id ~balance ~seq_num =
  {
    id;
    balance;
    seq_num;
    num_sub_entries = 0;
    flags = default_flags;
    thresholds = default_thresholds;
    signers = [];
    home_domain = "";
    inflation_dest = None;
  }

type trustline = {
  account : account_id;
  asset : Asset.t;
  tl_balance : int;
  limit : int;
  authorized : bool;
}

type offer = {
  offer_id : int;
  seller : account_id;
  selling : Asset.t;
  buying : Asset.t;
  amount : int;
  price : Price.t;
  passive : bool;
}

type data = { owner : account_id; name : string; value : string }

type key =
  | Account_key of account_id
  | Trustline_key of account_id * Asset.t
  | Offer_key of int
  | Data_key of account_id * string

type entry =
  | Account_entry of account
  | Trustline_entry of trustline
  | Offer_entry of offer
  | Data_entry of data

let key_of_entry = function
  | Account_entry a -> Account_key a.id
  | Trustline_entry t -> Trustline_key (t.account, t.asset)
  | Offer_entry o -> Offer_key o.offer_id
  | Data_entry d -> Data_key (d.owner, d.name)

let compare_key a b =
  let rank = function
    | Account_key _ -> 0
    | Trustline_key _ -> 1
    | Offer_key _ -> 2
    | Data_key _ -> 3
  in
  match (a, b) with
  | Account_key x, Account_key y -> String.compare x y
  | Trustline_key (x1, x2), Trustline_key (y1, y2) ->
      let c = String.compare x1 y1 in
      if c <> 0 then c else Asset.compare x2 y2
  | Offer_key x, Offer_key y -> Int.compare x y
  | Data_key (x1, x2), Data_key (y1, y2) ->
      let c = String.compare x1 y1 in
      if c <> 0 then c else String.compare x2 y2
  | _ -> Int.compare (rank a) (rank b)

let encode_key = function
  | Account_key id -> "A:" ^ id
  | Trustline_key (id, asset) -> "T:" ^ id ^ ":" ^ Asset.encode asset
  | Offer_key id -> Printf.sprintf "O:%d" id
  | Data_key (id, name) -> "D:" ^ id ^ ":" ^ name

module Xdr = Stellar_xdr.Xdr

let signer_xdr =
  Xdr.conv
    (fun s -> (s.key, s.weight))
    (fun (key, weight) -> { key; weight })
    Xdr.(pair (str ()) hyper)

let flags_xdr =
  Xdr.conv
    (fun f -> (f.auth_required, (f.auth_revocable, f.auth_immutable)))
    (fun (auth_required, (auth_revocable, auth_immutable)) ->
      { auth_required; auth_revocable; auth_immutable })
    Xdr.(pair bool (pair bool bool))

let thresholds_xdr =
  Xdr.conv
    (fun t -> (t.master_weight, (t.low, (t.medium, t.high))))
    (fun (master_weight, (low, (medium, high))) -> { master_weight; low; medium; high })
    Xdr.(pair hyper (pair hyper (pair hyper hyper)))

let key_xdr =
  Xdr.union
    ~tag:(function Account_key _ -> 0 | Trustline_key _ -> 1 | Offer_key _ -> 2 | Data_key _ -> 3)
    ~write_arm:(fun w -> function
      | Account_key id -> Xdr.Writer.opaque_var w id
      | Trustline_key (id, asset) ->
          Xdr.Writer.opaque_var w id;
          Asset.xdr.Xdr.write w asset
      | Offer_key id -> Xdr.Writer.hyper w id
      | Data_key (id, name) ->
          Xdr.Writer.opaque_var w id;
          Xdr.Writer.opaque_var w name)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Account_key (Xdr.Reader.opaque_var r ())
      | 1 ->
          let id = Xdr.Reader.opaque_var r () in
          Trustline_key (id, Asset.xdr.Xdr.read r)
      | 2 -> Offer_key (Xdr.Reader.hyper r)
      | 3 ->
          let id = Xdr.Reader.opaque_var r () in
          Data_key (id, Xdr.Reader.opaque_var r ())
      | _ -> raise (Xdr.Error "Entry.key: bad discriminant"))

let account_xdr =
  let open Xdr in
  let signers_xdr = list signer_xdr and inflation_dest_xdr = option (str ()) in
  {
    write =
      (fun w a ->
        Writer.opaque_var w a.id;
        Writer.hyper w a.balance;
        Writer.hyper w a.seq_num;
        Writer.hyper w a.num_sub_entries;
        flags_xdr.write w a.flags;
        thresholds_xdr.write w a.thresholds;
        signers_xdr.write w a.signers;
        Writer.opaque_var w a.home_domain;
        inflation_dest_xdr.write w a.inflation_dest);
    read =
      (fun r ->
        let id = Reader.opaque_var r () in
        let balance = Reader.hyper r in
        let seq_num = Reader.hyper r in
        let num_sub_entries = Reader.hyper r in
        let flags = flags_xdr.read r in
        let thresholds = thresholds_xdr.read r in
        let signers = signers_xdr.read r in
        let home_domain = Reader.opaque_var r () in
        let inflation_dest = inflation_dest_xdr.read r in
        { id; balance; seq_num; num_sub_entries; flags; thresholds; signers;
          home_domain; inflation_dest });
  }

let trustline_xdr =
  let open Xdr in
  {
    write =
      (fun w t ->
        Writer.opaque_var w t.account;
        Asset.xdr.write w t.asset;
        Writer.hyper w t.tl_balance;
        Writer.hyper w t.limit;
        Writer.bool w t.authorized);
    read =
      (fun r ->
        let account = Reader.opaque_var r () in
        let asset = Asset.xdr.read r in
        let tl_balance = Reader.hyper r in
        let limit = Reader.hyper r in
        let authorized = Reader.bool r in
        { account; asset; tl_balance; limit; authorized });
  }

let offer_xdr =
  let open Xdr in
  {
    write =
      (fun w o ->
        Writer.hyper w o.offer_id;
        Writer.opaque_var w o.seller;
        Asset.xdr.write w o.selling;
        Asset.xdr.write w o.buying;
        Writer.hyper w o.amount;
        Price.xdr.write w o.price;
        Writer.bool w o.passive);
    read =
      (fun r ->
        let offer_id = Reader.hyper r in
        let seller = Reader.opaque_var r () in
        let selling = Asset.xdr.read r in
        let buying = Asset.xdr.read r in
        let amount = Reader.hyper r in
        let price = Price.xdr.read r in
        let passive = Reader.bool r in
        { offer_id; seller; selling; buying; amount; price; passive });
  }

let data_xdr =
  Xdr.conv
    (fun d -> (d.owner, (d.name, d.value)))
    (fun (owner, (name, value)) -> { owner; name; value })
    Xdr.(pair (str ()) (pair (str ()) (str ())))

let entry_xdr =
  Xdr.union
    ~tag:(function
      | Account_entry _ -> 0 | Trustline_entry _ -> 1 | Offer_entry _ -> 2 | Data_entry _ -> 3)
    ~write_arm:(fun w -> function
      | Account_entry a -> account_xdr.Xdr.write w a
      | Trustline_entry t -> trustline_xdr.Xdr.write w t
      | Offer_entry o -> offer_xdr.Xdr.write w o
      | Data_entry d -> data_xdr.Xdr.write w d)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Account_entry (account_xdr.Xdr.read r)
      | 1 -> Trustline_entry (trustline_xdr.Xdr.read r)
      | 2 -> Offer_entry (offer_xdr.Xdr.read r)
      | 3 -> Data_entry (data_xdr.Xdr.read r)
      | _ -> raise (Xdr.Error "Entry.entry: bad discriminant"))

let encode_entry e = Xdr.encode entry_xdr e
