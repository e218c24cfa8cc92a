(* fig9-accounts: latency as the number of ledger accounts grows (Fig. 9).

   Paper (10^5..5x10^7 accounts, 4 validators, 100 tx/s): nomination and
   balloting stay flat; ledger update grows only through bucket merging.
   We sweep a scaled range (the shape, not the absolute x-axis). *)

let run () =
  Common.section "fig9-accounts: latency vs number of accounts"
    "Fig. 9: consensus flat; ledger update grows slowly (bucket merges)";
  let points =
    if !Common.full then [ 1_000; 10_000; 100_000; 1_000_000 ]
    else if !Common.smoke then [ 1_000; 10_000 ]
    else [ 1_000; 10_000; 100_000 ]
  in
  let duration = if !Common.smoke then 20.0 else 60.0 in
  Common.row "%10s | %14s | %14s | %14s | %10s@." "accounts" "nomination(ms)"
    "balloting(ms)" "apply(ms)" "close(s)";
  Common.row "-----------+----------------+----------------+----------------+-----------@.";
  List.iter
    (fun accounts ->
      let r =
        Common.run_scenario ~spec_n:4 ~accounts ~rate:20.0 ~duration ()
      in
      let open Stellar_node in
      Common.row "%10d | %14.1f | %14.1f | %14.2f | %10.2f@." accounts
        (Common.ms r.Scenario.nomination.Stellar_obs.Report.mean)
        (Common.ms r.Scenario.balloting.Stellar_obs.Report.mean)
        (Common.ms r.Scenario.apply.Stellar_obs.Report.mean)
        r.Scenario.close_interval.Stellar_obs.Report.mean)
    points;
  Common.row "shape check: consensus columns flat across 2-3 orders of magnitude@."
