(** The four ledger-entry types (§5.1): accounts, trustlines, offers, and
    account data, plus the keys that identify them in the bucket list. *)

type account_id = Asset.account_id

type flags = {
  auth_required : bool;  (** issuer must authorize trustlines (KYC, §5.1) *)
  auth_revocable : bool;  (** issuer may later clear the authorized flag *)
  auth_immutable : bool;  (** these flags may never change again *)
}

type thresholds = { master_weight : int; low : int; medium : int; high : int }

type signer = { key : string; weight : int }

type account = {
  id : account_id;
  balance : int;  (** native XLM, in stroops *)
  seq_num : int;  (** last consumed sequence number *)
  num_sub_entries : int;  (** drives the reserve requirement *)
  flags : flags;
  thresholds : thresholds;
  signers : signer list;
  home_domain : string;
  inflation_dest : account_id option;
}

val new_account : id:account_id -> balance:int -> seq_num:int -> account

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
  amount : int;  (** remaining units of [selling] on offer *)
  price : Price.t;  (** units of [buying] per unit of [selling] *)
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

val key_of_entry : entry -> key
val compare_key : key -> key -> int

val encode_key : key -> string
(** Short printable key, for hashtable keys only — wire format is
    {!key_xdr}. *)

val key_xdr : key Stellar_xdr.Xdr.codec
val entry_xdr : entry Stellar_xdr.Xdr.codec

val encode_entry : entry -> string
(** Canonical XDR bytes of {!entry_xdr}; hashed into buckets and the ledger
    snapshot hash. *)
