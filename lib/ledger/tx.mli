(** Transactions (§5.2): a source account, validity criteria, a memo and a
    list of operations (Fig. 4), plus signatures.  Transactions are atomic —
    if any operation fails, none execute. *)

type account_id = Asset.account_id

type time_bounds = { min_time : int; max_time : int }

type memo = Memo_none | Memo_text of string | Memo_hash of string

(** A signer change for SetOptions. *)
type signer_update = Set_signer of Entry.signer | Remove_signer of string

type operation_body =
  | Create_account of { destination : account_id; starting_balance : int }
  | Payment of { destination : account_id; asset : Asset.t; amount : int }
  | Path_payment of {
      send_asset : Asset.t;
      send_max : int;  (** end-to-end limit price protection *)
      destination : account_id;
      dest_asset : Asset.t;
      dest_amount : int;
      path : Asset.t list;  (** up to 5 intermediary assets *)
    }
  | Manage_offer of {
      offer_id : int;  (** 0 to create; existing id to replace/delete *)
      selling : Asset.t;
      buying : Asset.t;
      amount : int;  (** 0 to delete *)
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
  | Change_trust of { asset : Asset.t; limit : int  (** 0 deletes the line *) }
  | Allow_trust of { trustor : account_id; asset_code : string; authorize : bool }
  | Account_merge of { destination : account_id }
  | Manage_data of { name : string; value : string option  (** None deletes *) }
  | Bump_sequence of { bump_to : int }
  | Set_inflation_dest of { dest : account_id }
      (** vote the account's XLM balance toward a fee-recycling
          beneficiary (§5.2) *)
  | Inflation
      (** distribute the fee pool proportionally among voted destinations
          (§5.2: "fees are recycled and distributed proportionally by vote
          of existing XLM holders") *)

type operation = {
  op_source : account_id option;  (** defaults to the transaction source *)
  body : operation_body;
}

val op : ?source:account_id -> operation_body -> operation

type t = {
  source : account_id;
  fee : int;
  seq_num : int;
  time_bounds : time_bounds option;
  memo : memo;
  operations : operation list;
}

type signed = private { tx : t; signatures : (account_id * string) list; tx_hash : string }
(** [tx_hash] is [hash tx], computed once when the value is built or
    decoded. *)

val make :
  source:account_id ->
  seq_num:int ->
  ?fee:int ->
  ?time_bounds:time_bounds ->
  ?memo:memo ->
  operation list ->
  t
(** [fee] defaults to 100 stroops per operation. *)

val xdr : t Stellar_xdr.Xdr.codec
val signed_xdr : signed Stellar_xdr.Xdr.codec

val hash : t -> string
(** SHA-256 over the network-prefixed canonical XDR encoding; this is what
    gets signed. *)

val make_signed : t -> (account_id * string) list -> signed
(** The one constructor of {!signed}: hashes [tx] once. *)

val sign : t -> secret:string -> public:account_id -> scheme:(module Stellar_crypto.Sig_intf.SCHEME with type secret = string) -> signed
val co_sign : signed -> secret:string -> public:account_id -> scheme:(module Stellar_crypto.Sig_intf.SCHEME with type secret = string) -> signed

val operation_count : t -> int

val size : signed -> int
(** Exact wire size: [Bytes.length] of the {!signed_xdr} encoding. *)

(** Threshold category of an operation (§5.2: multisig accounts can require
    higher weight for some operations). *)
type threshold_level = Low | Medium | High

val threshold_level : operation_body -> threshold_level
