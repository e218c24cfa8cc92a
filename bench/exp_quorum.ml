(* tab-qic: quorum-intersection checking performance (§6.2.1).

   Paper: the transitive closures seen in production are 20-30 nodes and
   check "in a matter of seconds on a single CPU" with Lachowski's
   heuristics, despite the problem being co-NP-hard. *)

let run () =
  Common.section "tab-qic: quorum intersection & criticality check cost"
    "§6.2.1: 20-30 node closures check in seconds on one CPU";
  let org_counts = if !Common.full then [ 5; 7; 9; 11 ] else [ 5; 7; 9 ] in
  Common.row "%6s | %6s | %12s | %12s | %14s | %10s@." "orgs" "nodes" "result"
    "check (s)" "bb explored" "crit (s)";
  Common.row "-------+--------+--------------+--------------+----------------+-----------@.";
  List.iter
    (fun n_orgs ->
      let orgs =
        List.init n_orgs (fun oi ->
            Quorum_analysis.Synthesis.org
              ~quality:
                (if oi < (n_orgs + 1) / 2 then Quorum_analysis.Synthesis.Critical
                 else Quorum_analysis.Synthesis.High)
              ~name:(Printf.sprintf "org-%d" oi)
              (List.init 3 (fun vi ->
                   Stellar_crypto.Sha256.digest (Printf.sprintf "qic-%d-%d" oi vi))))
      in
      let config = Quorum_analysis.Synthesis.network_config orgs in
      let (result, explored), dt =
        Common.time (fun () -> Quorum_analysis.Intersection.check_counted config)
      in
      let crit_orgs =
        List.map
          (fun o ->
            {
              Quorum_analysis.Criticality.name = o.Quorum_analysis.Synthesis.name;
              validators = o.Quorum_analysis.Synthesis.validators;
            })
          orgs
      in
      let crit, crit_dt =
        Common.time (fun () -> Quorum_analysis.Criticality.critical_orgs config crit_orgs)
      in
      Common.row "%6d | %6d | %12s | %12.3f | %14d | %10.3f@." n_orgs
        (Quorum_analysis.Network_config.size config)
        (match result with
        | Quorum_analysis.Intersection.Intersecting -> "intersects"
        | Quorum_analysis.Intersection.Disjoint _ -> "DISJOINT"
        | Quorum_analysis.Intersection.No_quorum -> "no quorum")
        dt explored crit_dt;
      ignore crit)
    org_counts;
  Common.row "shape check: seconds, not hours, at production closure sizes@."
