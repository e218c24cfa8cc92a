open Stellar_ledger

type account_view = {
  id : Asset.account_id;
  native_balance : int;
  seq_num : int;
  sub_entries : int;
  balances : (Asset.t * int * int) list;
  offer_ids : int list;
  signers : (string * int) list;
  home_domain : string;
}

let account state id =
  match State.account state id with
  | None -> None
  | Some a ->
      Some
        {
          id;
          native_balance = a.Entry.balance;
          seq_num = a.Entry.seq_num;
          sub_entries = a.Entry.num_sub_entries;
          balances =
            State.trustlines_of state id
            |> List.map (fun tl -> (tl.Entry.asset, tl.Entry.tl_balance, tl.Entry.limit));
          offer_ids = State.offers_of state id |> List.map (fun o -> o.Entry.offer_id);
          signers = List.map (fun s -> (s.Entry.key, s.Entry.weight)) a.Entry.signers;
          home_domain = a.Entry.home_domain;
        }

type book_level = { price : Price.t; amount : int }

type book_view = { bids : book_level list; asks : book_level list }

let aggregate offers =
  let rec go = function
    | [] -> []
    | (o : Entry.offer) :: rest ->
        let same, others =
          List.partition (fun (x : Entry.offer) -> Price.equal x.Entry.price o.Entry.price) rest
        in
        {
          price = o.Entry.price;
          amount = List.fold_left (fun acc (x : Entry.offer) -> acc + x.Entry.amount) o.Entry.amount same;
        }
        :: go others
  in
  go offers

let order_book state ~base ~quote =
  {
    asks = aggregate (State.best_offers state ~selling:base ~buying:quote);
    bids = aggregate (State.best_offers state ~selling:quote ~buying:base);
  }
