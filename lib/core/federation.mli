(** Federated voting predicates (§3.2.3).

    These operate over the latest statement received from each node; each
    statement carries its sender's quorum set, so quorums are discovered
    from the messages themselves — the defining feature of FBA. *)

module Node_map : Map.S with type key = string

type statements = Types.statement Node_map.t

val is_quorum :
  local_qset:Quorum_set.t ->
  statements ->
  (Types.statement -> bool) ->
  bool
(** [is_quorum ~local_qset sts pred] — is there a quorum, including the
    local node, of nodes whose latest statement satisfies [pred]?  Computed
    as a greatest fixpoint: repeatedly discard nodes whose own quorum set is
    not satisfied by the remaining set, then test the local quorum set.
    Each pass checks each physically distinct quorum set once. *)

val is_v_blocking_set :
  local_qset:Quorum_set.t -> statements -> (Types.statement -> bool) -> bool
(** Do the nodes whose statements satisfy [pred] form a v-blocking set for
    the local quorum set? *)

val federated_accept :
  local_qset:Quorum_set.t ->
  statements ->
  voted:(Types.statement -> bool) ->
  accepted:(Types.statement -> bool) ->
  bool
(** A node accepts a statement when either (case 2) a v-blocking set accepts
    it, or (case 1) it belongs to a quorum in which every member votes for
    or accepts it. *)

val federated_ratify :
  local_qset:Quorum_set.t -> statements -> (Types.statement -> bool) -> bool
(** Confirmation: a quorum unanimously accepts the statement. *)
