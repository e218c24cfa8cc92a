(** Federated voting predicates (§3.2.3).

    These operate over the latest statement received from each node; each
    statement carries its sender's quorum set, so quorums are discovered
    from the messages themselves — the defining feature of FBA.

    Each slot numbers the nodes it hears of densely in an {!index} and
    compiles every distinct quorum set once, keyed by {!Quorum_set.hash},
    into that numbering.  The checks below then evaluate the statement
    predicate once per node into an array and run on it. *)

module Node_map : Map.S with type key = string

type index
(** A slot's node numbering and its compiled quorum sets.  It grows with the
    nodes and sets the slot hears of and is dropped with the slot. *)

val create_index : unit -> index

val size : index -> int
(** The number of nodes the index has numbered. *)

type qset
(** A quorum set compiled against an {!index}.  Equal sets compiled against
    one index are the same value. *)

val compile : index -> Quorum_set.t -> qset
(** The compiled form of a set, made (and its sanity checked) the first time
    the index sees the set's hash. *)

val sane : qset -> bool
(** {!Quorum_set.is_sane} of the compiled set. *)

type voter = { statement : Types.statement; node : int; qset : qset }
(** A statement with its sender's number and compiled quorum set. *)

val voter : index -> Types.statement -> voter

type statements = voter Node_map.t
(** The latest statement of each node, keyed by node id. *)

val is_quorum :
  index -> local_qset:Quorum_set.t -> statements -> (Types.statement -> bool) -> bool
(** [is_quorum idx ~local_qset sts pred] — is there a quorum, including the
    local node, of nodes whose latest statement satisfies [pred]?  Computed
    as a greatest fixpoint: repeatedly discard nodes whose own quorum set is
    not satisfied by the remaining set, then test the local quorum set.
    Each pass checks each distinct quorum set once. *)

val is_v_blocking_set :
  index -> local_qset:Quorum_set.t -> statements -> (Types.statement -> bool) -> bool
(** Do the nodes whose statements satisfy [pred] form a v-blocking set for
    the local quorum set? *)

val federated_accept :
  index ->
  local_qset:Quorum_set.t ->
  statements ->
  voted:(Types.statement -> bool) ->
  accepted:(Types.statement -> bool) ->
  bool
(** A node accepts a statement when either (case 2) a v-blocking set accepts
    it, or (case 1) it belongs to a quorum in which every member votes for
    or accepts it.  [accepted] is evaluated once per node for both tests. *)

val federated_ratify :
  index -> local_qset:Quorum_set.t -> statements -> (Types.statement -> bool) -> bool
(** Confirmation: a quorum unanimously accepts the statement. *)
