(** Order-book crossing engine, shared by ManageOffer and PathPayment.

    The taker acquires [get_asset] by paying [give_asset]; makers are the
    resting offers selling [get_asset] for [give_asset], consumed best price
    first.  Fills execute at the maker's price, rounding in the maker's
    favour (ceiling on what the taker pays), so the transfer amounts on both
    sides are equal and no value is created or destroyed.

    Unfunded or unreceivable maker offers (the seller's balance or the
    seller's trustline capacity no longer back them) are deleted on contact,
    as stellar-core does. *)

type outcome = {
  state : State.t;
  got : int;  (** units of [get_asset] acquired *)
  paid : int;  (** units of [give_asset] spent *)
  fills : int;  (** number of maker offers touched *)
}

val spendable : State.t -> Asset.account_id -> Asset.t -> int
(** How much of [asset] the account can currently pay out: native balance
    above the reserve, trustline balance, or unbounded for the issuer. *)

val cross :
  State.t ->
  give_asset:Asset.t ->
  get_asset:Asset.t ->
  ?max_give:int ->
  ?want_get:int ->
  ?price_limit:Price.t ->
  ?strict_price:bool ->
  ?exclude_seller:Asset.account_id ->
  unit ->
  (outcome, string) result
(** Stops when [want_get] is reached, [max_give] would be exceeded, the book
    is exhausted, or the best maker no longer crosses [price_limit] (the
    taker's own offer price, in units of [get_asset] per [give_asset]).
    With [strict_price] an exactly-opposite price does not cross — the
    behaviour of passive offers (§5.2: "zero spread").
    [exclude_seller] prevents self-trades.
    At least one of [max_give] / [want_get] must be given.
    Maker-side balance movements are applied to the returned state;
    taker-side movements are the caller's responsibility (path payments
    never touch the taker's intermediate balances). *)
