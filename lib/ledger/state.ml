module Account_map = Map.Make (String)

module Trust_key = struct
  type t = Entry.account_id * Asset.t

  let compare (a1, s1) (a2, s2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else Asset.compare s1 s2
end

module Trust_map = Map.Make (Trust_key)
module Offer_map = Map.Make (Int)

module Pair_key = struct
  type t = Asset.t * Asset.t

  let compare (a1, b1) (a2, b2) =
    let c = Asset.compare a1 a2 in
    if c <> 0 then c else Asset.compare b1 b2
end

module Pair_map = Map.Make (Pair_key)

(* Price-ordered order book entries: best (lowest) price first, then by
   offer id for deterministic fill order. *)
module Book_elt = struct
  type t = Price.t * int

  let compare (p1, i1) (p2, i2) =
    let c = Price.compare p1 p2 in
    if c <> 0 then c else Int.compare i1 i2
end

module Book_set = Set.Make (Book_elt)

module Data_key = struct
  type t = Entry.account_id * string

  let compare (a1, n1) (a2, n2) =
    let c = String.compare a1 a2 in
    if c <> 0 then c else String.compare n1 n2
end

module Data_map = Map.Make (Data_key)

type t = {
  accounts : Entry.account Account_map.t;
  trustlines : Entry.trustline Trust_map.t;
  offers : Entry.offer Offer_map.t;
  book : Book_set.t Pair_map.t;
  data_entries : Entry.data Data_map.t;
  next_offer : int;
  ledger_seq : int;
  close_time : int;
  base_fee : int;
  base_reserve : int;
  protocol_version : int;
  fee_pool : int;
  dirty : Entry.key list;  (* keys touched since the last take_dirty *)
}

let ledger_seq t = t.ledger_seq
let close_time t = t.close_time
let base_fee t = t.base_fee
let base_reserve t = t.base_reserve
let protocol_version t = t.protocol_version
let fee_pool t = t.fee_pool
let set_header t ~ledger_seq ~close_time = { t with ledger_seq; close_time }

let with_params ?base_fee ?base_reserve ?protocol_version t =
  {
    t with
    base_fee = Option.value ~default:t.base_fee base_fee;
    base_reserve = Option.value ~default:t.base_reserve base_reserve;
    protocol_version = Option.value ~default:t.protocol_version protocol_version;
  }

let add_fee t fee = { t with fee_pool = t.fee_pool + fee }
let min_balance t ~num_sub_entries = (2 + num_sub_entries) * t.base_reserve

(* ---- accounts ---- *)

let touch t key = { t with dirty = key :: t.dirty }

let account t id = Account_map.find_opt id t.accounts

let put_account t (a : Entry.account) =
  touch { t with accounts = Account_map.add a.Entry.id a t.accounts } (Entry.Account_key a.Entry.id)

let remove_account t id =
  touch { t with accounts = Account_map.remove id t.accounts } (Entry.Account_key id)
let account_count t = Account_map.cardinal t.accounts

(* ---- trustlines ---- *)

let trustline t id asset = Trust_map.find_opt (id, asset) t.trustlines

let put_trustline t (tl : Entry.trustline) =
  touch
    { t with trustlines = Trust_map.add (tl.Entry.account, tl.Entry.asset) tl t.trustlines }
    (Entry.Trustline_key (tl.Entry.account, tl.Entry.asset))

let remove_trustline t id asset =
  touch
    { t with trustlines = Trust_map.remove (id, asset) t.trustlines }
    (Entry.Trustline_key (id, asset))

let trustlines_of t id =
  Trust_map.fold
    (fun (acc, _) tl l -> if String.equal acc id then tl :: l else l)
    t.trustlines []

(* ---- offers & order book ---- *)

let offer t id = Offer_map.find_opt id t.offers

let book_key (o : Entry.offer) = (o.Entry.selling, o.Entry.buying)

let book_remove book (o : Entry.offer) =
  let key = book_key o in
  match Pair_map.find_opt key book with
  | None -> book
  | Some set ->
      let set = Book_set.remove (o.Entry.price, o.Entry.offer_id) set in
      if Book_set.is_empty set then Pair_map.remove key book else Pair_map.add key set book

let book_add book (o : Entry.offer) =
  let key = book_key o in
  let set = Option.value ~default:Book_set.empty (Pair_map.find_opt key book) in
  Pair_map.add key (Book_set.add (o.Entry.price, o.Entry.offer_id) set) book

let remove_offer t id =
  match Offer_map.find_opt id t.offers with
  | None -> t
  | Some o ->
      touch
        { t with offers = Offer_map.remove id t.offers; book = book_remove t.book o }
        (Entry.Offer_key id)

let put_offer t (o : Entry.offer) =
  let t = remove_offer t o.Entry.offer_id in
  touch
    { t with offers = Offer_map.add o.Entry.offer_id o t.offers; book = book_add t.book o }
    (Entry.Offer_key o.Entry.offer_id)

let next_offer_id t = ({ t with next_offer = t.next_offer + 1 }, t.next_offer)

let offers_of t id =
  Offer_map.fold
    (fun _ o l -> if String.equal o.Entry.seller id then o :: l else l)
    t.offers []

let best_offers t ~selling ~buying =
  match Pair_map.find_opt (selling, buying) t.book with
  | None -> []
  | Some set ->
      Book_set.fold
        (fun (_, id) acc ->
          match Offer_map.find_opt id t.offers with Some o -> o :: acc | None -> acc)
        set []
      |> List.rev

(* ---- data ---- *)

let data t id name = Data_map.find_opt (id, name) t.data_entries

let put_data t (d : Entry.data) =
  touch
    { t with data_entries = Data_map.add (d.Entry.owner, d.Entry.name) d t.data_entries }
    (Entry.Data_key (d.Entry.owner, d.Entry.name))

let remove_data t id name =
  touch
    { t with data_entries = Data_map.remove (id, name) t.data_entries }
    (Entry.Data_key (id, name))

(* ---- whole-ledger views ---- *)

(* Each map is ordered as [Entry.compare_key] orders its kind of key, and
   the kinds rank accounts < trustlines < offers < data: consing from the
   greatest key down yields the sorted list. *)
let all_entries t =
  let cons_down to_rev_seq f m acc = Seq.fold_left (fun l (_, v) -> f v :: l) acc (to_rev_seq m) in
  []
  |> cons_down Data_map.to_rev_seq (fun d -> Entry.Data_entry d) t.data_entries
  |> cons_down Offer_map.to_rev_seq (fun o -> Entry.Offer_entry o) t.offers
  |> cons_down Trust_map.to_rev_seq (fun tl -> Entry.Trustline_entry tl) t.trustlines
  |> cons_down Account_map.to_rev_seq (fun a -> Entry.Account_entry a) t.accounts

(* In key order, by the same ranking. *)
let iter_entries f t =
  Account_map.iter (fun _ a -> f (Entry.Account_entry a)) t.accounts;
  Trust_map.iter (fun _ tl -> f (Entry.Trustline_entry tl)) t.trustlines;
  Offer_map.iter (fun _ o -> f (Entry.Offer_entry o)) t.offers;
  Data_map.iter (fun _ d -> f (Entry.Data_entry d)) t.data_entries

let entry_count t =
  Account_map.cardinal t.accounts + Trust_map.cardinal t.trustlines
  + Offer_map.cardinal t.offers + Data_map.cardinal t.data_entries

let snapshot_hash t =
  let ctx = Stellar_crypto.Sha256.init () in
  iter_entries (fun e -> Stellar_crypto.Sha256.update ctx (Entry.encode_entry e)) t;
  Stellar_crypto.Sha256.final ctx

let total_native t =
  Account_map.fold (fun _ a acc -> acc + a.Entry.balance) t.accounts t.fee_pool

let total_issued t asset =
  Trust_map.fold
    (fun (_, a) tl acc -> if Asset.equal a asset then acc + tl.Entry.tl_balance else acc)
    t.trustlines 0

let check_integrity t =
  let ( let* ) = Result.bind in
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  (* balances *)
  let* () =
    Account_map.fold
      (fun id a acc ->
        let* () = acc in
        if a.Entry.balance < 0 then err "negative balance on %s" (Stellar_crypto.Hex.encode id)
        else if a.Entry.num_sub_entries < 0 then err "negative sub entries"
        else Ok ())
      t.accounts (Ok ())
  in
  (* trustlines *)
  let* () =
    Trust_map.fold
      (fun (id, _) tl acc ->
        let* () = acc in
        if tl.Entry.tl_balance < 0 then err "negative trustline balance"
        else if tl.Entry.tl_balance > tl.Entry.limit then
          err "trustline above limit on %s" (Stellar_crypto.Hex.encode id)
        else if Account_map.find_opt id t.accounts = None then err "orphan trustline"
        else Ok ())
      t.trustlines (Ok ())
  in
  (* order book index consistency *)
  let* () =
    Offer_map.fold
      (fun id o acc ->
        let* () = acc in
        if o.Entry.amount <= 0 then err "non-positive offer amount %d" id
        else
          match Pair_map.find_opt (book_key o) t.book with
          | Some set when Book_set.mem (o.Entry.price, id) set -> Ok ()
          | _ -> err "offer %d missing from book index" id)
      t.offers (Ok ())
  in
  let* () =
    Pair_map.fold
      (fun _ set acc ->
        let* () = acc in
        Book_set.fold
          (fun (_, id) acc ->
            let* () = acc in
            if Offer_map.mem id t.offers then Ok () else err "dangling book entry %d" id)
          set (Ok ()))
      t.book (Ok ())
  in
  (* sub-entry counts: trustlines + offers + data + signers *)
  let counts = Hashtbl.create 16 in
  let bump id n = Hashtbl.replace counts id (n + Option.value ~default:0 (Hashtbl.find_opt counts id)) in
  Trust_map.iter (fun (id, _) _ -> bump id 1) t.trustlines;
  Offer_map.iter (fun _ o -> bump o.Entry.seller 1) t.offers;
  Data_map.iter (fun (id, _) _ -> bump id 1) t.data_entries;
  Account_map.iter (fun id a -> bump id (List.length a.Entry.signers)) t.accounts;
  Account_map.fold
    (fun id a acc ->
      let* () = acc in
      let expected = Option.value ~default:0 (Hashtbl.find_opt counts id) in
      if a.Entry.num_sub_entries <> expected then
        err "sub entry count mismatch on %s: %d <> %d" (Stellar_crypto.Hex.encode id)
          a.Entry.num_sub_entries expected
      else Ok ())
    t.accounts (Ok ())

let lookup t = function
  | Entry.Account_key id -> Option.map (fun a -> Entry.Account_entry a) (account t id)
  | Entry.Trustline_key (id, asset) ->
      Option.map (fun tl -> Entry.Trustline_entry tl) (trustline t id asset)
  | Entry.Offer_key id -> Option.map (fun o -> Entry.Offer_entry o) (offer t id)
  | Entry.Data_key (id, name) -> Option.map (fun d -> Entry.Data_entry d) (data t id name)

let take_dirty t =
  let keys = List.sort_uniq Entry.compare_key t.dirty in
  ({ t with dirty = [] }, keys)

let id_pool t = t.next_offer

(* [map_of_run (empty, singleton, union) binding lo hi] is the map of the
   bindings at [lo, hi), whose keys strictly increase.  Halves of such a
   run are disjoint and ordered, so each union only joins them and the
   build takes linear time, where adding the keys one by one path-copies
   for each. *)
let rec map_of_run ((empty, singleton, union) as m) binding lo hi =
  if hi = lo then empty
  else if hi - lo = 1 then
    let k, v = binding lo in
    singleton k v
  else
    let mid = lo + ((hi - lo) / 2) in
    union (fun _ _ _ -> assert false) (map_of_run m binding lo mid) (map_of_run m binding mid hi)

let rank = function
  | Entry.Account_entry _ -> 0
  | Entry.Trustline_entry _ -> 1
  | Entry.Offer_entry _ -> 2
  | Entry.Data_entry _ -> 3

let of_entries ~ledger_seq ~close_time ~base_fee ~base_reserve ~protocol_version ~fee_pool
    ~id_pool entries =
  let n = Array.length entries in
  let key i = Entry.key_of_entry entries.(i) in
  for i = 1 to n - 1 do
    if Entry.compare_key (key (i - 1)) (key i) >= 0 then
      invalid_arg "State.of_entries: entries not in strict key order"
  done;
  (* Key order ranks the kinds, so each kind is one run of [entries]. *)
  let run_end r lo =
    let i = ref lo in
    while !i < n && rank entries.(!i) = r do
      incr i
    done;
    !i
  in
  let a_end = run_end 0 0 in
  let t_end = run_end 1 a_end in
  let o_end = run_end 2 t_end in
  let offers =
    map_of_run
      (Offer_map.empty, Offer_map.singleton, Offer_map.union)
      (fun i ->
        match entries.(i) with Entry.Offer_entry o -> (o.Entry.offer_id, o) | _ -> assert false)
      t_end o_end
  in
  {
    accounts =
      map_of_run
        (Account_map.empty, Account_map.singleton, Account_map.union)
        (fun i ->
          match entries.(i) with Entry.Account_entry a -> (a.Entry.id, a) | _ -> assert false)
        0 a_end;
    trustlines =
      map_of_run
        (Trust_map.empty, Trust_map.singleton, Trust_map.union)
        (fun i ->
          match entries.(i) with
          | Entry.Trustline_entry tl -> ((tl.Entry.account, tl.Entry.asset), tl)
          | _ -> assert false)
        a_end t_end;
    offers;
    book = Offer_map.fold (fun _ o book -> book_add book o) offers Pair_map.empty;
    data_entries =
      map_of_run
        (Data_map.empty, Data_map.singleton, Data_map.union)
        (fun i ->
          match entries.(i) with
          | Entry.Data_entry d -> ((d.Entry.owner, d.Entry.name), d)
          | _ -> assert false)
        o_end n;
    next_offer = id_pool;
    ledger_seq;
    close_time;
    base_fee;
    base_reserve;
    protocol_version;
    fee_pool;
    dirty = [];
  }

let genesis ?(base_fee = 100) ?(base_reserve = 5_000_000) ?(protocol_version = 1) ~master
    ~total_xlm () =
  of_entries ~ledger_seq:1 ~close_time:0 ~base_fee ~base_reserve ~protocol_version ~fee_pool:0
    ~id_pool:1
    [| Entry.Account_entry (Entry.new_account ~id:master ~balance:total_xlm ~seq_num:0) |]
