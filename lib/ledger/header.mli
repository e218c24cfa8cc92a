(** Ledger headers (Fig. 3): each header chains to the previous one and
    commits to the SCP output, the applied transaction set, the transaction
    results, and a snapshot hash of the entire ledger state. *)

type t = {
  ledger_seq : int;
  prev_hash : string;  (** hash of the previous header *)
  scp_value_hash : string;  (** hash of the externalized consensus value *)
  tx_set_hash : string;
  results_hash : string;
  snapshot_hash : string;  (** bucket-list / full-state hash *)
  close_time : int;
  base_fee : int;
  base_reserve : int;
  protocol_version : int;
  fee_pool : int;  (** fees collected so far (recycled by vote, §5.2) *)
  id_pool : int;  (** next offer id *)
  skip_list : string list;  (** hashes at exponentially-spaced back-steps *)
}

val genesis_hash : string

val xdr : t Stellar_xdr.Xdr.codec

val encode : t -> string
(** Canonical XDR bytes. *)

val hash : t -> string
(** SHA-256 over {!encode}. *)

val make :
  prev:t option ->
  scp_value_hash:string ->
  tx_set_hash:string ->
  results_hash:string ->
  snapshot_hash:string ->
  state:State.t ->
  t
(** Builds the header for the state's current [ledger_seq]/[close_time],
    maintaining the skip list. *)

val verify_chain : t list -> bool
(** Checks [prev_hash] links across a list of headers ordered by sequence. *)
