(* abl-baseline: SCP vs a closed-membership PBFT baseline (§2.1, §3.1).

   The paper argues FBA gives open membership at modest extra message cost
   (one extra communication round versus closed protocols, §3.1).  We run
   both protocols on identical simulated networks and compare decision
   latency and messages per decision. *)

let run_pbft ~n ~latency ~decisions =
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:5 in
  let decide_times = Hashtbl.create 16 in
  let proposal_times = Hashtbl.create 16 in
  let cluster =
    Baseline_pbft.Pbft.create ~engine ~rng ~n ~latency
      ~on_decide:(fun ~seq value ->
        if not (Hashtbl.mem decide_times seq) then
          match Hashtbl.find_opt proposal_times value with
          | Some t0 -> Hashtbl.replace decide_times seq (Stellar_sim.Engine.now engine -. t0)
          | None -> ())
      ()
  in
  for i = 1 to decisions do
    ignore
      (Stellar_sim.Engine.schedule engine
         ~delay:(5.0 *. float_of_int i)
         (fun () ->
           let v = Printf.sprintf "block-%d" i in
           Hashtbl.replace proposal_times v (Stellar_sim.Engine.now engine);
           Baseline_pbft.Pbft.propose cluster v))
  done;
  Stellar_sim.Engine.run ~until:(5.0 *. float_of_int (decisions + 3)) engine;
  let lats = Hashtbl.fold (fun _ l acc -> l :: acc) decide_times [] in
  let mean = List.fold_left ( +. ) 0.0 lats /. float_of_int (max 1 (List.length lats)) in
  let msgs = Baseline_pbft.Pbft.message_count cluster in
  (mean, float_of_int msgs /. float_of_int (max 1 (List.length lats)), List.length lats)

let run () =
  Common.section "abl-baseline: SCP vs closed-membership PBFT"
    "§2.1/§3.1: open membership costs one extra communication round";
  let ns = if !Common.full then [ 4; 7; 10; 13; 19 ] else [ 4; 7; 10 ] in
  let latency = Stellar_sim.Latency.wide_area in
  Common.row "%4s | %16s | %16s | %18s | %18s@." "n" "SCP latency(ms)"
    "PBFT latency(ms)" "SCP msgs/decision" "PBFT msgs/decision";
  Common.row "-----+------------------+------------------+--------------------+------------------@.";
  List.iter
    (fun n ->
      let r = Common.run_scenario ~spec_n:n ~accounts:100 ~rate:0.0 ~duration:50.0 ~latency () in
      let open Stellar_node in
      let scp_latency =
        Common.ms
          (r.Scenario.nomination.Stellar_obs.Report.mean
          +. r.Scenario.balloting.Stellar_obs.Report.mean)
      in
      let scp_msgs =
        float_of_int
          (List.fold_left (fun acc _ -> acc) 0 [])
      in
      ignore scp_msgs;
      let scp_msgs_per_decision =
        r.Scenario.msgs_per_second_per_node *. float_of_int n
        *. r.Scenario.close_interval.Stellar_obs.Report.mean
      in
      let pbft_lat, pbft_msgs, _ = run_pbft ~n ~latency ~decisions:8 in
      Common.row "%4d | %16.1f | %16.1f | %18.0f | %18.0f@." n scp_latency
        (Common.ms pbft_lat) scp_msgs_per_decision pbft_msgs)
    ns;
  Common.row "shape check: SCP within a small constant of PBFT's latency (extra@.";
  Common.row "confirmation round + nomination), while allowing open membership.@."
