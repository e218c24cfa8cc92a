(* tab-close: end-to-end close rate (§7.3 "Close rate").

   Paper: average ledger close times of 5.03 s, 5.10 s and 5.15 s as
   account entries, transaction rate, and node count increase — always near
   the 5-second target, without dropping transactions. *)

let run () =
  Common.section "tab-close: average ledger close time under stress"
    "§7.3: 5.03s / 5.10s / 5.15s as accounts, rate, nodes increase";
  let heavy_accounts = if !Common.full then 1_000_000 else 100_000 in
  let heavy_rate = if !Common.full then 350.0 else 200.0 in
  let heavy_n = if !Common.full then 43 else 19 in
  let cases =
    [
      ("many accounts", (fun () -> Common.run_scenario ~spec_n:4 ~accounts:heavy_accounts ~rate:20.0 ~duration:60.0 ()));
      ("high tx rate", (fun () -> Common.run_scenario ~spec_n:4 ~accounts:10_000 ~rate:heavy_rate ~duration:60.0 ()));
      ("many validators", (fun () -> Common.run_scenario ~spec_n:heavy_n ~accounts:2_000 ~rate:20.0 ~duration:60.0 ()));
    ]
  in
  Common.row "%-16s | %10s | %12s | %10s@." "stressor" "close(s)" "dropped txs" "diverged";
  Common.row "-----------------+------------+--------------+----------@.";
  List.iter
    (fun (name, f) ->
      let r = f () in
      let open Stellar_node in
      Common.row "%-16s | %10.2f | %12d | %10b@." name
        r.Scenario.close_interval.Stellar_obs.Report.mean
        (r.Scenario.txs_submitted - r.Scenario.txs_applied)
        r.Scenario.diverged)
    cases;
  Common.row "shape check: close time slightly above 5s in all three columns, no drops@."
