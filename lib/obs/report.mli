(** Turn a {!Trace.t} into the paper's evaluation artifacts: the per-slot
    ledger-close phase breakdown (nomination vs. balloting vs. apply, §7.3)
    and per-node flood amplification (§7.2).

    Everything here is derived from simulated-time stamps and event payloads
    only, so reports are deterministic for a fixed simulation seed. *)

type phases = {
  slot : int;
  nomination_s : float;  (** nominate-start → first ballot bump *)
  ballot_s : float;  (** first ballot bump → externalize *)
  apply_s : float;
      (** modeled apply cost: a deterministic ~0.2 ms + 20 µs/op, used in
          place of measured CPU time so the breakdown is reproducible; real
          CPU time is reported through the "ledger.apply_ms" histogram *)
  total_s : float;
}

val slot_phases : ?node:int -> Trace.t -> phases list
(** Phase durations for every slot [node] (default 0) both nominated and
    externalized, sorted by slot. *)

type quantiles = {
  n : int;
  mean : float;
  p50 : float;
  p75 : float;
  p99 : float;
  max : float;
}

val quantiles : float list -> quantiles
(** Exact summary: each quantile [q] is the nearest-rank element at index
    [q * (n-1)] of the sorted values; all zero when empty.
    The mean sums the values in input order. *)

type breakdown = {
  n_slots : int;
  nomination : quantiles;
  ballot : quantiles;
  apply : quantiles;
  total : quantiles;
}

val breakdown : ?node:int -> Trace.t -> breakdown

type flood = {
  sent_copies : int;  (** per-peer copies pushed (sum of flood fanouts) *)
  received : int;  (** distinct payloads delivered *)
  dup_dropped : int;  (** duplicate deliveries suppressed *)
  dup_bytes : int;  (** wasted bandwidth: payload bytes of suppressed dups *)
  amplification : float;  (** (received + dup_dropped) / received *)
}

val flood_stats : Trace.t -> (int * flood) list
(** Per node id, sorted. *)

(** {2 Causal critical path}

    Every [Flood_send] carries a globally monotone message id and every
    [Flood_recv] names the send that produced it, so the trace forms a
    cross-node causal DAG.  [critical_paths] walks that DAG backwards from
    each externalize event to nomination start, attributing every interval
    of the slot's duration to exactly one of network transit, local timer
    wait, or modeled CPU (receive-queue wait + processing).  All segment
    endpoints are shared event timestamps, so
    [network_s + timer_s + cpu_s = cp_total_s] up to float rounding
    (well within 1 µs of simulated time). *)

type hop = {
  msg_id : int;
  hop_src : int;
  hop_dst : int;
  hop_kind : string;  (** message kind (envelope/txset/tx) *)
  sent_at : float;
  recv_at : float;
  hop_network_s : float;  (** wire transit portion of this hop *)
  hop_cpu_s : float;  (** receiver queue wait + modeled processing *)
}

type critical_path = {
  cp_slot : int;
  cp_node : int;  (** the observing node the walk starts from *)
  t_start : float;  (** nominate-start on [cp_node] *)
  t_externalize : float;
  hops : hop list;  (** causally ordered, earliest first *)
  network_s : float;
  timer_s : float;
  cpu_s : float;
  cp_total_s : float;  (** [t_externalize - t_start] *)
}

val critical_paths : ?node:int -> Trace.t -> critical_path list
(** One path per slot [node] (default 0) both nominated and externalized,
    sorted by slot. *)

(** {2 Transaction lifecycle} *)

type tx_life = {
  tx : string;  (** hex tx hash *)
  submitted : float option;  (** first [Tx_submit] *)
  externalized : (int * float) option;
      (** (slot, time) of the first [Tx_applied]: the first close of the
          slot whose externalized tx set holds it *)
  dropped : bool;  (** any [Tx_dropped] (duplicate or stale) *)
}

val tx_lives : Trace.t -> tx_life list
(** One record per tx hash, in first-appearance order. *)

type e2e = {
  n_submitted : int;
  n_externalized : int;
  n_applied : int;  (** = [n_externalized]: a close applies its whole set *)
  n_dropped : int;
  submit_to_externalize : quantiles;
  submit_to_apply : quantiles;
      (** adds the slot's modeled apply cost on top of the externalize
          time (sim-time application is instantaneous) *)
}

val e2e_latency : Trace.t -> e2e
(** End-to-end payment latency quantiles over all submitted transactions —
    the §7.3 "five seconds from submission" figure. *)

(** {2 Fault recovery}

    Derived from the fault-injection events ([Node_crash] / [Node_restart] /
    [Catchup_done] / [Partition_begin] / [Partition_heal])
    plus close ([Apply_end]) timestamps.  A node counts as "back in sync"
    at its first close that lands within [interval/2] of the fastest other
    node's close of the same ledger: old slots closed from straggler help
    close long after the network did and fail that test, catch-up replays emit no
    close at all, and the first live ledger closes with the crowd.  A node
    that externalizes in step but never closes is not back. *)

type recovery = {
  rec_node : int;
  t_crash : float;
  t_restart : float;  (** [nan] if the node never restarted *)
  catchup_from : int;  (** checkpoint seq the restart bootstrapped from *)
  catchup_to : int;  (** archive tip reached by replay *)
  replayed : int;
  t_resync : float option;  (** first in-sync close after restart *)
  recover_s : float option;  (** [t_resync - t_restart] *)
}

val recoveries : ?interval:float -> Trace.t -> recovery list
(** One record per crash, pairing the i-th crash of a node with its i-th
    restart; [interval] (default 5 s) is the ledger-close interval used by
    the in-sync test. *)

type heal_report = {
  t_split : float;
  t_heal : float;
  lagged : (int * float option) list;
      (** minority-side nodes and their post-heal resync delay *)
  heal_recover_s : float option;
      (** slowest lagged node's resync delay; [None] if any never resynced *)
}

val heals : ?interval:float -> Trace.t -> heal_report list
(** One record per [Partition_begin]/[Partition_heal] pair, in order. *)

(** JSON fragments with deterministic formatting (durations in ms). *)

val quantiles_json : quantiles -> string
val breakdown_json : breakdown -> string
val phases_json : phases list -> string
val flood_json : (int * flood) list -> string
val critical_paths_json : critical_path list -> string
val e2e_json : e2e -> string

val recoveries_json : recovery list -> string
(** Sorted by (node, t_crash); absent times render as [null]. *)

val heals_json : heal_report list -> string
