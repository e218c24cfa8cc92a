(* fig8-timeouts: nomination and ballot timeouts per ledger (Fig. 8).

   Paper (68 h of production): nomination timeouts p75=0, p99=1, max=4;
   ballot timeouts p75=0, p99=0, max=1.  We reproduce the heavy-tailed
   regime with jittery wide-area links plus rare multi-second spikes. *)

let run () =
  Common.section "fig8-timeouts: timeouts per ledger over a long jittery run"
    "Fig. 8: nomination p75=0 p99=1 max=4; balloting p75=0 p99=0 max=1";
  let duration = if !Common.full then 14400.0 else 900.0 in
  let spec, _ = Stellar_node.Topology.tiered () in
  let latency =
    (* rare spikes long enough to outlast the 1-second round-1 timeout *)
    Stellar_sim.Latency.Jittered
      { base = 0.04; jitter = 0.12; spike_prob = 0.004; spike = 2.5 }
  in
  let r = Common.run_scenario ~spec ~accounts:200 ~rate:2.0 ~duration ~latency () in
  let open Stellar_node in
  let pr name (s : Stellar_obs.Report.quantiles) paper =
    Common.row "%-10s : p75=%.0f  p99=%.0f  max=%.0f   (paper: %s)@." name
      s.Stellar_obs.Report.p75 s.Stellar_obs.Report.p99 s.Stellar_obs.Report.max paper
  in
  Common.row "ledgers observed: %d@." r.Scenario.ledgers_closed;
  pr "nomination" r.Scenario.nomination_timeouts_per_ledger "p75=0 p99=1 max=4";
  pr "balloting" r.Scenario.ballot_timeouts_per_ledger "p75=0 p99=0 max=1";
  Common.row "shape check     : timeouts rare (p75 = 0), nomination noisier than balloting@."
