(** Transaction validation and application (§5.2).

    A transaction set is applied as stellar-core does: fees are charged and
    sequence numbers consumed for every valid transaction first, then each
    transaction's operations run atomically — any operation failure rolls
    the whole transaction back (the fee is still consumed). *)

type op_result =
  | Op_success
  | Op_malformed
  | Op_underfunded  (** insufficient spendable balance *)
  | Op_low_reserve  (** would drop below the minimum XLM reserve (§5.1) *)
  | Op_no_destination
  | Op_no_trustline
  | Op_not_authorized
  | Op_line_full  (** receiving trustline limit exceeded *)
  | Op_no_issuer
  | Op_trust_non_empty  (** deleting a trustline with a balance *)
  | Op_offer_not_found
  | Op_cross_self
  | Op_too_few_offers  (** path payment could not be filled *)
  | Op_over_send_max
  | Op_has_sub_entries  (** merging an account that still owns entries *)
  | Op_immutable  (** auth flags locked by AUTH_IMMUTABLE *)
  | Op_bad_seq  (** BumpSequence target below current *)
  | Op_no_fees_to_distribute  (** Inflation with an empty pool or no winners *)

type tx_outcome =
  | Tx_success of op_result list
  | Tx_failed of op_result list  (** ops attempted; state rolled back *)
  | Tx_no_source
  | Tx_bad_seq
  | Tx_bad_auth
  | Tx_insufficient_fee
  | Tx_insufficient_balance
  | Tx_too_early
  | Tx_too_late
  | Tx_malformed

val tx_succeeded : tx_outcome -> bool
val pp_op_result : Format.formatter -> op_result -> unit
val pp_tx_outcome : Format.formatter -> tx_outcome -> unit

type ctx = { verify : public:string -> msg:string -> signature:string -> bool }

val sim_ctx : ctx
(** Verification via {!Stellar_crypto.Sim_sig}. *)

val ed25519_ctx : ctx

val apply_tx : ctx -> State.t -> Tx.signed -> State.t * tx_outcome
(** Validate, charge fee + sequence, then run operations atomically. *)

val apply_tx_set :
  ctx -> State.t -> close_time:int -> Tx.signed list -> State.t * (Tx.signed * tx_outcome) list
(** Close one ledger: set header fields, charge all fees up front, then
    apply in deterministic (hash-shuffled) order, as stellar-core does.
    The results come in that order. *)

val observe : Stellar_obs.Sink.t -> slot:int -> (Tx.signed * tx_outcome) list -> unit
(** Show a ledger's {!apply_tx_set} results on a sink: count per-outcome
    transactions ([ledger.tx.success], [ledger.tx.bad_seq], ...) and
    applied operations ([ledger.ops.applied]) and, when tracing, emit one
    [Tx_applied] lifecycle event per transaction, keyed by its [tx_hash]. *)
