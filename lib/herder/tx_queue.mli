(** Pending-transaction queue: holds flooded transactions until they are
    included in a ledger, keeping per-account sequence chains intact. *)

type t

val create : unit -> t
val add : t -> Stellar_ledger.Tx.signed -> bool
(** [false] if already present. *)

val size : t -> int

val txs : t -> Stellar_ledger.Tx.signed list
(** Every queued transaction, each account's in sequence order. *)

val candidates : t -> state:Stellar_ledger.State.t -> max_ops:int -> Stellar_ledger.Tx.signed list
(** Build a transaction-set candidate: for each account, the longest prefix
    of its queued transactions whose sequence numbers chain from the
    account's current one, until [max_ops] operations are gathered.  Under
    congestion, chains with the highest fee per operation win the scarce
    slots (§5.2's surge pricing). *)

val remove_applied : t -> Stellar_ledger.Tx.signed list -> unit

val purge_invalid : t -> state:Stellar_ledger.State.t -> Stellar_ledger.Tx.signed list
(** Drop transactions whose sequence numbers can no longer apply; returns
    the dropped transactions (so the herder can emit [Tx_dropped] trace
    events for them). *)
