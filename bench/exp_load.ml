(* fig10-load: latency as the transaction rate grows (Fig. 10).

   Paper (100k accounts, 4 validators, 100..350 tx/s): consensus latency
   grows slowly; ledger update dominates growth as the transaction set gets
   bigger (~507 tx/ledger at 100 tx/s). *)

let run () =
  Common.section "fig10-load: latency vs transactions per second"
    "Fig. 10: apply time grows with load, consensus nearly flat; ~507 tx/ledger @ 100tx/s";
  let accounts = if !Common.full then 100_000 else 10_000 in
  let rates =
    if !Common.full then [ 100.0; 150.0; 200.0; 250.0; 300.0; 350.0 ]
    else [ 50.0; 100.0; 200.0; 350.0 ]
  in
  Common.row "%8s | %10s | %14s | %14s | %12s | %9s@." "tx/s" "tx/ledger"
    "consensus(ms)" "apply(ms)" "applied/sub" "close(s)";
  Common.row "---------+------------+----------------+----------------+--------------+----------@.";
  List.iter
    (fun rate ->
      let r = Common.run_scenario ~spec_n:4 ~accounts ~rate ~duration:60.0 () in
      let open Stellar_node in
      Common.row "%8.0f | %10.0f | %14.1f | %14.1f | %5d/%-6d | %9.2f@." rate
        r.Scenario.txs_per_ledger.Stellar_obs.Report.mean
        (Common.ms
           (r.Scenario.nomination.Stellar_obs.Report.mean
           +. r.Scenario.balloting.Stellar_obs.Report.mean))
        (Common.ms r.Scenario.apply.Stellar_obs.Report.mean)
        r.Scenario.txs_applied r.Scenario.txs_submitted
        r.Scenario.close_interval.Stellar_obs.Report.mean)
    rates;
  Common.row "shape check: tx/ledger ~ 5 x rate; apply grows with load; nothing dropped@."
