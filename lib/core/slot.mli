(** One consensus slot: a nomination protocol instance feeding a ballot
    protocol instance (§3.2).  In Stellar each slot decides one ledger. *)

type t

val create :
  index:int ->
  local_id:Types.node_id ->
  get_qset:(unit -> Quorum_set.t) ->
  driver:Driver.t ->
  t

val nominate : t -> value:Types.value -> prev:Types.value -> unit

val process_envelope : t -> Types.envelope -> [ `Processed | `Stale | `Invalid ]
(** Verifies the signature, checks statement sanity, and runs the relevant
    sub-protocol. *)

val reevaluate : t -> unit
(** Re-run both sub-protocols against the current quorum set. *)

val latest_envelopes : t -> Types.envelope list
(** Signed envelopes (ballot protocol first), for helping stragglers. *)
