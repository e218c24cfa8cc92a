(** One consensus slot: a nomination protocol instance feeding a ballot
    protocol instance (§3.2).  In Stellar each slot decides one ledger.
    The slot owns the {!Federation.index} both instances run their quorum
    checks on; it is dropped with the slot. *)

type t

val create :
  index:int ->
  local_id:Types.node_id ->
  get_qset:(unit -> Quorum_set.t) ->
  driver:Driver.t ->
  t

val nominate : t -> value:Types.value -> prev:Types.value -> unit

val process_envelope : t -> Types.envelope -> [ `Processed | `Stale | `Invalid ]
(** Verifies the signature, then checks the quorum set's sanity (once per
    distinct set in the slot; an insane set stays [`Invalid] on every
    delivery), and runs the relevant sub-protocol.  An envelope with a bad
    signature leaves the slot unchanged. *)

val known_nodes : t -> int
(** The number of nodes the slot's index has numbered: the senders of
    accepted statements, the members of their quorum sets and of the local
    set. *)

val reevaluate : t -> unit
(** Re-run both sub-protocols against the current quorum set. *)

val latest_envelopes : t -> Types.envelope list
(** Signed envelopes (ballot protocol first), for helping stragglers. *)
