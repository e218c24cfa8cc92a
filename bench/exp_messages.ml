(* tab-messages: SCP message counts and consensus latency on a
   production-shaped network (§7.2).

   Paper: ~7 logical SCP messages per ledger (vote/accept nominate, accept/
   confirm prepare, accept/confirm commit + externalize, with the last two
   combined), 1.3 msgs/s emitted, consensus mean 1061 ms / p99 2252 ms,
   ledger update mean 46 ms / p99 142 ms. *)

let run () =
  Common.section "tab-messages: messages per ledger & production latencies"
    "§7.2: 6-7 logical msgs/ledger; consensus 1061ms mean, 2252ms p99";
  let duration = if !Common.full then 3600.0 else 400.0 in
  let spec, _ = Stellar_node.Topology.tiered ~leaves:5 () in
  let r =
    Common.run_scenario ~spec ~accounts:500 ~rate:4.5 ~duration
      ~latency:Stellar_sim.Latency.wide_area ()
  in
  let open Stellar_node in
  Common.row "ledgers closed         : %d over %.0f virtual seconds@." r.Scenario.ledgers_closed duration;
  Common.row "SCP envelopes/ledger   : %.1f   (paper: 6-7)@." r.Scenario.envelopes_per_ledger;
  Common.row "msgs/s emitted (node 0): %.1f   (paper: 1.3 logical + flooding)@."
    (r.Scenario.envelopes_per_ledger /. r.Scenario.close_interval.Stellar_obs.Report.mean);
  Common.row "consensus latency      : mean %.0fms p99 %.0fms (paper: 1061 / 2252)@."
    (Common.ms
       (r.Scenario.nomination.Stellar_obs.Report.mean
       +. r.Scenario.balloting.Stellar_obs.Report.mean))
    (Common.ms
       (r.Scenario.nomination.Stellar_obs.Report.p99
       +. r.Scenario.balloting.Stellar_obs.Report.p99));
  Common.row "ledger update          : mean %.1fms p99 %.1fms (paper: 46 / 142 with SQL)@."
    (Common.ms r.Scenario.apply.Stellar_obs.Report.mean)
    (Common.ms r.Scenario.apply.Stellar_obs.Report.p99);
  Common.row "close interval         : %.2fs (target 5s)@."
    r.Scenario.close_interval.Stellar_obs.Report.mean;
  Common.row "diverged               : %b@." r.Scenario.diverged;
  Common.row "shape check            : msgs/ledger independent of load; latency << 5s target@."
