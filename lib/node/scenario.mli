(** End-to-end simulation scenarios: the testbed behind every figure in §7.

    A scenario builds a genesis ledger with N accounts, boots a topology of
    validators over the simulated network, generates Poisson payment load at
    a target rate (the [generateload] analogue), runs the virtual clock, and
    collects the same measurements the paper reports: nomination, balloting
    and ledger-update latency, transactions per ledger, close rate, SCP
    message counts and bandwidth. *)

type params = {
  spec : Topology.spec;
  n_accounts : int;
  tx_rate : float;  (** payments per second *)
  duration : float;  (** seconds of virtual time under load *)
  latency : Stellar_sim.Latency.t;
      (** link latency; a receiver's per-message CPU cost is fixed at
          envelope verification (~100us) plus 1 Gbps deserialization *)
  seed : int;
  ledger_interval : float;
  observe : bool;
      (** record a structured trace and hand it back with the per-node
          metric registries ({!report.telemetry}); default off.  The
          registries are kept either way and feed the report; only the
          trace is optional *)
  faults : Fault.schedule;
      (** fault events to inject during the run (default none).  When
          non-empty, the scenario keeps a history archive of the first
          close of each ledger, by any node, which every validator is
          given: a restarted one bootstraps from its latest checkpoint, and
          a running one left further behind than straggler help reaches
          catches up from it (§5.4); invalid schedules (see {!Fault.validate}) make {!run}
          fail fast *)
}

val default : spec:Topology.spec -> params

val warmup_ledgers : int
(** 2: node 0's first closes, excluded from the report's statistics. *)

val agree :
  (int, string) Hashtbl.t -> Stellar_ledger.Header.t -> [ `First | `Agrees | `Conflicts ]
(** The online agreement check, over a table from ledger seq to header hash:
    the first close of a seq records its hash ([`First]); a later close, by
    any node, agrees only when its header hashes the same.  {!run} calls it
    at every close of every node, and archives each [`First] close. *)

type report = {
  ledgers_closed : int;
  nomination : Stellar_obs.Report.quantiles;
  balloting : Stellar_obs.Report.quantiles;
  apply : Stellar_obs.Report.quantiles;
  total : Stellar_obs.Report.quantiles;
  close_interval : Stellar_obs.Report.quantiles;  (** time between consecutive closes *)
  txs_per_ledger : Stellar_obs.Report.quantiles;
  txs_submitted : int;
  txs_applied : int;
  nomination_timeouts_per_ledger : Stellar_obs.Report.quantiles;
  ballot_timeouts_per_ledger : Stellar_obs.Report.quantiles;
  envelopes_per_ledger : float;  (** logical SCP envelopes emitted per ledger *)
  msgs_per_second_per_node : float;
  bytes_in_total : int;  (** XDR bytes received by node 0 over the run *)
  bytes_out_total : int;
  bytes_in_per_second : float;  (** observed at node 0 *)
  bytes_out_per_second : float;
  diverged : bool;
      (** some node closed a ledger whose header differs from the first
          close of the same seq, by any node.  Checked online at every
          close, so closes a crash later erased count too *)
  chains : (int * string list) list;
      (** per validator, the agreed header hashes (the first close of each
          seq) from the first ledger after genesis up to its tip, oldest
          first, as hex *)
  converged : bool;
      (** all validators still up at the end closed ledgers, are within one
          close of each other, and the run is not [diverged] — the
          post-fault recovery criterion *)
  wall_seconds : float;  (** real time the simulation took *)
  final_ledger_seq : int;
  telemetry : Stellar_obs.Collector.t option;
      (** the run's trace + registries, exactly when [observe] was set *)
}

val run : params -> report

val pp_report : Format.formatter -> report -> unit
