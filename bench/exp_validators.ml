(* fig11-validators: latency as the validator count grows (Fig. 11).

   Paper (100k accounts, 100 tx/s, 4..43 validators, everyone in everyone's
   slices — the worst case for SCP): balloting grows with n, nomination
   grows slowly, ledger update stays flat. *)

let run () =
  Common.section "fig11-validators: latency vs number of validators"
    "Fig. 11: balloting grows with n; ledger update independent of n";
  let ns = if !Common.full then [ 4; 10; 19; 28; 37; 43 ] else [ 4; 7; 13; 19; 28 ] in
  let rate = if !Common.full then 100.0 else 20.0 in
  Common.row "%10s | %14s | %14s | %14s | %10s@." "validators" "nomination(ms)"
    "balloting(ms)" "apply(ms)" "close(s)";
  Common.row "-----------+----------------+----------------+----------------+-----------@.";
  List.iter
    (fun n ->
      let r = Common.run_scenario ~spec_n:n ~accounts:2_000 ~rate ~duration:45.0 () in
      let open Stellar_node in
      Common.row "%10d | %14.1f | %14.1f | %14.2f | %10.2f@." n
        (Common.ms r.Scenario.nomination.Stellar_obs.Report.mean)
        (Common.ms r.Scenario.balloting.Stellar_obs.Report.mean)
        (Common.ms r.Scenario.apply.Stellar_obs.Report.mean)
        r.Scenario.close_interval.Stellar_obs.Report.mean)
    ns;
  Common.row "shape check: balloting column grows with n, apply column flat@."
