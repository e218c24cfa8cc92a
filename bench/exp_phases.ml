(* fig12-phases: trace-derived per-slot ledger-close phase breakdown (§7.3)
   and flood amplification (§7.2), measured through the observability
   subsystem rather than the herder's own stopwatch.

   The scenario runs with [observe = true]; every number below is computed
   from the structured trace (simulated-time stamps only), so the emitted
   BENCH_phases.json is byte-identical across runs with the same seed. *)

module Obs = Stellar_obs

let seed = 7

let run () =
  Common.section "fig12-phases: per-slot phase breakdown from the trace"
    "§7.3: nomination ~0.4s, balloting ~1.4s, ledger update ~0.1s";
  let spec, _ =
    if !Common.smoke then
      Stellar_node.Topology.tiered
        ~orgs:
          Quorum_analysis.Synthesis.[ (Critical, 3); (Critical, 3); (Critical, 3) ]
        ~leaves:2 ()
    else Stellar_node.Topology.tiered ~leaves:5 ()
  in
  let duration =
    if !Common.full then 1800.0 else if !Common.smoke then 40.0 else 300.0
  in
  let r =
    Stellar_node.Scenario.run
      {
        (Stellar_node.Scenario.default ~spec) with
        Stellar_node.Scenario.n_accounts = 1_000;
        tx_rate = 15.7;
        duration;
        latency = Stellar_sim.Latency.wide_area;
        seed;
        observe = true;
      }
  in
  let telemetry =
    match r.Stellar_node.Scenario.telemetry with
    | Some c -> c
    | None -> failwith "fig12-phases: scenario ran without telemetry"
  in
  let trace = Obs.Collector.trace telemetry in
  let bd = Obs.Report.breakdown trace in
  let per_slot = Obs.Report.slot_phases trace in
  let flood = Obs.Report.flood_stats telemetry in
  let open Obs.Report in
  Common.row "slots measured     : %d (of %d ledgers closed)@." bd.n_slots
    r.Stellar_node.Scenario.ledgers_closed;
  Common.row "nomination         : p50 %.1fms  p99 %.1fms   (paper: ~400ms)@."
    (Common.ms bd.nomination.p50) (Common.ms bd.nomination.p99);
  Common.row "balloting          : p50 %.1fms  p99 %.1fms   (paper: ~1.4s)@."
    (Common.ms bd.ballot.p50) (Common.ms bd.ballot.p99);
  Common.row "apply (modeled)    : p50 %.2fms  p99 %.2fms   (paper: ~100ms)@."
    (Common.ms bd.apply.p50) (Common.ms bd.apply.p99);
  Common.row "end-to-end         : p50 %.1fms  p99 %.1fms@." (Common.ms bd.total.p50)
    (Common.ms bd.total.p99);
  (match List.assoc_opt 0 flood with
  | Some f ->
      Common.row "flood (node 0)     : %d recv, %d dup-dropped, amplification %.2fx@."
        f.received f.dup_dropped f.amplification
  | None -> ());
  (* Aggregate registry: deterministic counters across all nodes.  (The
     wall-clock "ledger.apply_ms" histogram deliberately stays out of the
     JSON — its sum is not reproducible.) *)
  let agg = Obs.Collector.aggregate telemetry in
  let c name = Obs.Registry.counter_value agg name in
  let n_validators =
    List.length
      (List.filter spec.Stellar_node.Topology.is_validator
         (List.init spec.Stellar_node.Topology.n_nodes Fun.id))
  in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"fig12-phases\",\n\
      \  \"seed\": %d,\n\
      \  \"nodes\": %d,\n\
      \  \"validators\": %d,\n\
      \  \"duration_s\": %.1f,\n\
      \  \"ledgers_closed\": %d,\n\
      \  \"phases\": %s,\n\
      \  \"per_slot\": %s,\n\
      \  \"flood\": %s,\n\
      \  \"counters\": {\n\
      \    \"scp.nominate.start\": %d,\n\
      \    \"scp.ballot.bump\": %d,\n\
      \    \"scp.timeout.nomination\": %d,\n\
      \    \"scp.timeout.ballot\": %d,\n\
      \    \"flood.unique\": %d,\n\
      \    \"flood.dup_dropped\": %d,\n\
      \    \"flood.forwarded\": %d\n\
      \  }\n\
       }\n"
      seed spec.Stellar_node.Topology.n_nodes n_validators duration
      r.Stellar_node.Scenario.ledgers_closed (breakdown_json bd)
      (phases_json per_slot) (flood_json flood) (c "scp.nominate.start")
      (c "scp.ballot.bump")
      (c "scp.timeout.nomination")
      (c "scp.timeout.ballot") (c "flood.unique") (c "flood.dup_dropped")
      (c "flood.forwarded")
  in
  let oc = open_out "BENCH_phases.json" in
  output_string oc json;
  close_out oc;
  Common.row "wrote BENCH_phases.json@."
