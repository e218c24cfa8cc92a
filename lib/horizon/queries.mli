(** Read-only query API over a validator's ledger — the rest of horizon's
    role in Fig. 5: clients learn about accounts and books here rather than
    by touching stellar-core.  Historical transactions are looked up in the
    history archive ([Stellar_archive.Archive.find_tx], §5.4). *)

type account_view = {
  id : Stellar_ledger.Asset.account_id;
  native_balance : int;
  seq_num : int;
  sub_entries : int;
  balances : (Stellar_ledger.Asset.t * int * int) list;  (** asset, balance, limit *)
  offer_ids : int list;
  signers : (string * int) list;
  home_domain : string;
}

val account : Stellar_ledger.State.t -> Stellar_ledger.Asset.account_id -> account_view option

type book_level = { price : Stellar_ledger.Price.t; amount : int }

type book_view = { bids : book_level list; asks : book_level list }

val order_book :
  Stellar_ledger.State.t ->
  base:Stellar_ledger.Asset.t ->
  quote:Stellar_ledger.Asset.t ->
  book_view
(** Asks: offers selling [base] for [quote]; bids: the opposite side,
    both aggregated by price level, best first. *)

