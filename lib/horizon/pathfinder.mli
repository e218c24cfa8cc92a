(** Payment-path finding — the feature the paper singles out as implemented
    "entirely in horizon" (§5.4): given a destination amount, search the
    order-book graph for conversion paths and estimate the cheapest source
    cost, so clients can construct PathPayment operations with a tight
    [send_max]. *)

type route = {
  send_asset : Stellar_ledger.Asset.t;
  send_amount : int;  (** estimated cost at current books *)
  path : Stellar_ledger.Asset.t list;  (** intermediate assets for the PathPayment *)
  hops : int;
}

val find :
  Stellar_ledger.State.t ->
  source_assets:Stellar_ledger.Asset.t list ->
  dest_asset:Stellar_ledger.Asset.t ->
  dest_amount:int ->
  ?max_hops:int ->
  unit ->
  route list
(** Routes sorted by estimated cost, cheapest first.  [max_hops] defaults to
    5, the PathPayment limit. *)
