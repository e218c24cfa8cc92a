(** SCP message types: ballots, the four pledge kinds (NOMINATE / PREPARE /
    CONFIRM / EXTERNALIZE), statements and signed envelopes, following
    draft-mazieres-dinrg-scp-05.  Every statement carries its sender's full
    quorum set, per the paper: "Every node specifies its quorum slices in
    every message it sends." *)

type node_id = Quorum_set.node_id
type value = string

type ballot = { counter : int; value : value }

module Ballot : sig
  val compare : ballot -> ballot -> int
  (** Lexicographic on (counter, value). *)

  val equal : ballot -> ballot -> bool
  val compatible : ballot -> ballot -> bool
  (** Same value. *)

  val less_and_compatible : ballot -> ballot -> bool
  (** [less_and_compatible a b]: [a <= b] and same value. *)

  val less_and_incompatible : ballot -> ballot -> bool

  val max_counter : int
  (** Stand-in for the draft's infinite counter. *)
end

type nomination = {
  votes : value list;  (** sorted, deduplicated *)
  accepted : value list;  (** sorted, deduplicated *)
}

type prepare = {
  ballot : ballot;  (** b: currently voting prepare(b) *)
  prepared : ballot option;  (** p: highest accepted prepared *)
  prepared_prime : ballot option;  (** p': next-highest, incompatible with p *)
  n_c : int;  (** lowest counter for which we vote commit, 0 if none *)
  n_h : int;  (** counter of highest confirmed-prepared ballot, 0 if none *)
}

type confirm = {
  ballot : ballot;  (** b *)
  n_prepared : int;  (** counter of highest accepted-prepared ballot *)
  n_commit : int;  (** lowest counter of accepted commit range *)
  n_h : int;  (** highest counter of accepted commit range *)
}

type externalize = {
  commit : ballot;  (** c: confirmed commit with lowest counter *)
  n_h : int;  (** highest confirmed commit counter *)
}

type pledge =
  | Nominate of nomination
  | Prepare of prepare
  | Confirm of confirm
  | Externalize of externalize

type statement = {
  node_id : node_id;
  slot : int;
  quorum_set : Quorum_set.t;
  pledge : pledge;
}

type envelope = { statement : statement; signature : string }

val statement_xdr : statement Stellar_xdr.Xdr.codec
val envelope_xdr : envelope Stellar_xdr.Xdr.codec

val signing_bytes : statement -> string
(** The bytes a node signs to form an envelope, as in stellar-core: XDR of
    node id, slot, {!Quorum_set.hash} of the quorum set, and pledge. *)

val same_statement : statement -> statement -> bool
(** Structural equality, with the quorum sets compared by
    {!Quorum_set.hash}. *)

val encode_envelope : envelope -> string

val envelope_size : envelope -> int
(** Exact wire size: [Bytes.length] of the {!envelope_xdr} encoding. *)

(** Working-ballot counter of a ballot-protocol statement: its [b.counter],
    or [Ballot.max_counter] for EXTERNALIZE. *)
val statement_ballot_counter : statement -> int option
