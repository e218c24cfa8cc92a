(* tab-resources: the cost of running a validator (§7.4).

   Paper (SDF production validator on a 2-core c5.large): ~7% of one CPU,
   ~300 MiB memory, 2.78 Mbit/s in, 2.56 Mbit/s out with 28 peer
   connections and a quorum of 34, about $40/month of hardware. *)

let run () =
  Common.section "tab-resources: per-validator resource usage"
    "§7.4: ~7% CPU, 300 MiB, 2.78/2.56 Mbit/s with 28 peers";
  let duration =
    if !Common.full then 1800.0 else if !Common.smoke then 60.0 else 300.0
  in
  let spec, _ = Stellar_node.Topology.tiered ~leaves:5 () in
  Gc.compact ();
  let cpu0 = Sys.time () in
  let heap0 = (Gc.stat ()).Gc.live_words in
  let r =
    Common.run_scenario ~spec ~accounts:1_000 ~rate:15.7 ~duration
      ~latency:Stellar_sim.Latency.wide_area ()
  in
  let cpu = Sys.time () -. cpu0 in
  let heap = (Gc.stat ()).Gc.live_words - heap0 in
  let open Stellar_node in
  let n_nodes = spec.Stellar_node.Topology.n_nodes in
  Common.row "peers (node 0)     : %d   (paper: 28)@."
    (List.length (spec.Stellar_node.Topology.peers_of 0));
  Common.row "network in         : %.2f Mbit/s   (paper: 2.78)@."
    (r.Scenario.bytes_in_per_second *. 8.0 /. 1_000_000.0);
  Common.row "network out        : %.2f Mbit/s   (paper: 2.56)@."
    (r.Scenario.bytes_out_per_second *. 8.0 /. 1_000_000.0);
  Common.row "CPU                : %.1f%% of one core per validator (paper: ~7%%)@."
    (cpu /. duration /. float_of_int n_nodes *. 100.0);
  Common.row "heap growth        : %.1f MiB across %d in-process validators@."
    (float_of_int heap *. 8.0 /. 1024.0 /. 1024.0)
    n_nodes;
  Common.row "ledger update CPU  : mean %.2fms per ledger@."
    (Common.ms r.Scenario.apply.Stellar_obs.Report.mean);
  Common.row "shape check        : commodity-hardware scale; network cost dominates@.";
  (* Persist the measured byte accounting so the perf trajectory is
     tracked across PRs.  Sizes are real XDR encoding lengths. *)
  let ledgers = max 1 r.Scenario.ledgers_closed in
  let json =
    Printf.sprintf
      "{\n\
      \  \"experiment\": \"tab-resources\",\n\
      \  \"duration_s\": %.1f,\n\
      \  \"nodes\": %d,\n\
      \  \"peers_node0\": %d,\n\
      \  \"ledgers_closed\": %d,\n\
      \  \"txs_applied\": %d,\n\
      \  \"bytes_in_total_node0\": %d,\n\
      \  \"bytes_out_total_node0\": %d,\n\
      \  \"bytes_in_per_ledger\": %.1f,\n\
      \  \"bytes_out_per_ledger\": %.1f,\n\
      \  \"mbit_in_per_s\": %.4f,\n\
      \  \"mbit_out_per_s\": %.4f,\n\
      \  \"cpu_pct_per_validator\": %.2f,\n\
      \  \"apply_ms_mean\": %.3f\n\
       }\n"
      duration n_nodes
      (List.length (spec.Stellar_node.Topology.peers_of 0))
      r.Scenario.ledgers_closed r.Scenario.txs_applied r.Scenario.bytes_in_total
      r.Scenario.bytes_out_total
      (float_of_int r.Scenario.bytes_in_total /. float_of_int ledgers)
      (float_of_int r.Scenario.bytes_out_total /. float_of_int ledgers)
      (r.Scenario.bytes_in_per_second *. 8.0 /. 1_000_000.0)
      (r.Scenario.bytes_out_per_second *. 8.0 /. 1_000_000.0)
      (cpu /. duration /. float_of_int n_nodes *. 100.0)
      (Common.ms r.Scenario.apply.Stellar_obs.Report.mean)
  in
  let oc = open_out "BENCH_resources.json" in
  output_string oc json;
  close_out oc;
  Common.row "wrote BENCH_resources.json@."
