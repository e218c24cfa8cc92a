(* fig-liveness: crash/recovery and partition-heal under load (§5.4, §6).

   A fig-10-style load sweep where the network is actively abused: a
   minority of validators crash mid-run and rejoin (bootstrapping from the
   history archive's latest checkpoint, then replaying and closing the gap
   live via straggler help), a transient loss window drops messages, one
   node turns into a Byzantine re-flooder, and a partition splits off a
   minority that later heals.  For every rate we assert that the surviving
   network never stops closing ledgers and that every node converges to the
   same header chain by the end, and we report time-to-recover quantiles
   (restart → first in-sync close, heal → last laggard in sync).

   Everything in BENCH_faults.json derives from simulated-time stamps, so
   the file is byte-identical across runs with the same seed — the harness
   runs the whole sweep twice and fails loudly if the bytes differ. *)

module Obs = Stellar_obs

let seed = 17
let n_nodes = 7
let interval = 5.0
let duration = 75.0
let crashed_nodes = [ 5; 6 ]

(* two nodes crash and rejoin; 5% loss while they are down; a re-flooder
   turns chatty; then {4,5,6} split off and heal 15s later *)
let faults : Stellar_node.Fault.schedule =
  [
    Stellar_node.Fault.Crash { node = 5; at = 12.0 };
    Stellar_node.Fault.Crash { node = 6; at = 14.0 };
    Stellar_node.Fault.Loss { rate = 0.05; from_ = 18.0; until_ = 24.0 };
    Stellar_node.Fault.Restart { node = 5; at = 30.0 };
    Stellar_node.Fault.Restart { node = 6; at = 32.0 };
    Stellar_node.Fault.Reflood { node = 1; at = 40.0; copies = 4 };
    Stellar_node.Fault.Partition
      {
        at = 45.0;
        groups = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1); (5, 1); (6, 1) ];
      };
    Stellar_node.Fault.Heal { at = 60.0 };
  ]

let run_rate ~accounts rate =
  let r =
    Stellar_node.Scenario.run
      {
        (Stellar_node.Scenario.default ~spec:(Stellar_node.Topology.all_to_all ~n:n_nodes))
        with
        Stellar_node.Scenario.n_accounts = accounts;
        tx_rate = rate;
        duration;
        seed;
        ledger_interval = interval;
        observe = true;
        faults;
      }
  in
  let telemetry =
    match r.Stellar_node.Scenario.telemetry with
    | Some c -> c
    | None -> failwith "fig-liveness: scenario ran without telemetry"
  in
  let trace = Obs.Collector.trace telemetry in
  if not r.Stellar_node.Scenario.converged then begin
    List.iter
      (fun (i, c) ->
        Printf.eprintf "node %d: %d ledgers past genesis, head %s\n%!" i (List.length c)
          (match List.rev c with h :: _ -> String.sub h 0 12 | [] -> "-"))
      r.Stellar_node.Scenario.chains;
    failwith
      (Printf.sprintf "fig-liveness: validators did not converge at rate %.0f%s" rate
         (if r.Stellar_node.Scenario.diverged then " (diverged)" else ""))
  end;
  (* every crashed node must have completed an archive catchup on restart *)
  let catchup_done_nodes =
    let nodes = ref [] in
    Obs.Trace.iter trace (fun s ->
        match s.Obs.Trace.event with
        | Obs.Event.Catchup_done _ -> nodes := s.Obs.Trace.node :: !nodes
        | _ -> ());
    List.sort_uniq Int.compare !nodes
  in
  List.iter
    (fun node ->
      if not (List.mem node catchup_done_nodes) then
        failwith
          (Printf.sprintf "fig-liveness: node %d restarted without a Catchup_done event"
             node))
    crashed_nodes;
  let recoveries = Obs.Report.recoveries ~interval trace in
  let heals = Obs.Report.heals ~interval trace in
  List.iter
    (fun rc ->
      let open Obs.Report in
      if rc.recover_s = None then
        failwith
          (Printf.sprintf "fig-liveness: node %d never resynced after restart" rc.rec_node))
    recoveries;
  (match heals with
  | [] -> failwith "fig-liveness: partition heal left no trace"
  | hs ->
      List.iter
        (fun h ->
          if h.Obs.Report.heal_recover_s = None then
            failwith "fig-liveness: a partitioned node never resynced after heal")
        hs);
  (* pooled time-to-recover samples: per-crash restart→in-sync plus per-node
     heal→in-sync delays *)
  let samples =
    List.filter_map (fun rc -> rc.Obs.Report.recover_s) recoveries
    @ List.concat_map
        (fun h -> List.filter_map snd h.Obs.Report.lagged)
        heals
  in
  let q = Obs.Report.quantiles samples in
  (r, recoveries, heals, q)

let rate_json (rate, (r, recoveries, heals, q)) =
  Printf.sprintf
    {|{"rate":%.1f,"converged":%b,"ledgers_closed":%d,"final_seq":%d,"recoveries":%s,"heals":%s,"recover_quantiles":%s}|}
    rate r.Stellar_node.Scenario.converged r.Stellar_node.Scenario.ledgers_closed
    r.Stellar_node.Scenario.final_ledger_seq
    (Obs.Report.recoveries_json recoveries)
    (Obs.Report.heals_json heals)
    (Obs.Report.quantiles_json q)

let sweep ~accounts ~rates =
  let results = List.map (fun rate -> (rate, run_rate ~accounts rate)) rates in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"fig-liveness\",\n\
      \  \"seed\": %d,\n\
      \  \"nodes\": %d,\n\
      \  \"accounts\": %d,\n\
      \  \"duration_s\": %.1f,\n\
      \  \"rates\": [%s]\n\
       }\n"
      seed n_nodes accounts duration
      (String.concat ",\n    " (List.map rate_json results))
  in
  (results, json)

let run () =
  Common.section "fig-liveness: crash/restart + partition heal under load"
    "§5.4 catchup, §6 straggler help: faulty validators rejoin and converge";
  let accounts = if !Common.full then 10_000 else if !Common.smoke then 300 else 2_000 in
  let rates =
    if !Common.full then [ 50.0; 100.0 ] else if !Common.smoke then [ 5.0 ] else [ 20.0; 50.0 ]
  in
  let results, json = sweep ~accounts ~rates in
  Common.row "%8s | %7s | %9s | %10s | %14s | %14s@." "tx/s" "ledgers" "converged"
    "recoveries" "recover p50" "recover max";
  Common.row "---------+---------+-----------+------------+----------------+---------------@.";
  List.iter
    (fun (rate, (r, recoveries, _heals, q)) ->
      Common.row "%8.0f | %7d | %9b | %10d | %12.1fms | %11.1fms@." rate
        r.Stellar_node.Scenario.ledgers_closed r.Stellar_node.Scenario.converged
        (List.length recoveries)
        (Common.ms q.Obs.Report.p50) (Common.ms q.Obs.Report.max))
    results;
  (* determinism is part of the experiment's contract: the whole sweep run
     again from the same seed must produce the same bytes *)
  let _, json2 = sweep ~accounts ~rates in
  if not (String.equal json json2) then
    failwith "fig-liveness: BENCH_faults.json not deterministic across same-seed runs";
  Common.row "shape check: all rates converged; catchup traced; two runs byte-identical@.";
  let oc = open_out "BENCH_faults.json" in
  output_string oc json;
  close_out oc;
  Common.row "wrote BENCH_faults.json@."
