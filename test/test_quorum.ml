open Quorum_analysis

let id i = Stellar_crypto.Sha256.digest (Printf.sprintf "qnode-%d" i)

let clique ids threshold =
  List.map (fun v -> (v, Scp.Quorum_set.make ~threshold ids)) ids

let intersection_tests =
  let open Alcotest in
  [
    test_case "majority clique intersects" `Quick (fun () ->
        let ids = List.init 4 id in
        let config = Network_config.of_assoc (clique ids 3) in
        check bool "intersecting" true (Intersection.check config = Intersection.Intersecting));
    test_case "2-of-4 clique splits" `Quick (fun () ->
        (* threshold below majority: two disjoint pairs are each quorums *)
        let ids = List.init 4 id in
        let config = Network_config.of_assoc (clique ids 2) in
        match Intersection.check config with
        | Intersection.Disjoint (a, b) ->
            check bool "witness disjoint" true
              (List.for_all (fun x -> not (List.mem x b)) a);
            check bool "both non-empty" true (a <> [] && b <> [])
        | _ -> fail "expected disjoint");
    test_case "two separate cliques split" `Quick (fun () ->
        let g1 = List.init 3 id in
        let g2 = List.init 3 (fun i -> id (i + 10)) in
        let config = Network_config.of_assoc (clique g1 2 @ clique g2 2) in
        (match Intersection.check config with
        | Intersection.Disjoint _ -> ()
        | _ -> fail "expected disjoint"));
    test_case "no quorum when thresholds unsatisfiable" `Quick (fun () ->
        (* a requires b in every slice and vice versa, but each also
           requires a missing node *)
        let a = id 1 and b = id 2 and ghost = id 99 in
        let config =
          Network_config.of_assoc
            [
              (a, Scp.Quorum_set.make ~threshold:2 [ b; ghost ]);
              (b, Scp.Quorum_set.make ~threshold:2 [ a; ghost ]);
            ]
        in
        check bool "no quorum" true (Intersection.check config = Intersection.No_quorum));
    test_case "byzantine nodes enable splits" `Quick (fun () ->
        (* 3-of-5 clique is intersecting, but with one node byzantine the
           remaining 4 honest with effective 2-of-4... still need 3-of-5
           slices: sets {h1,h2}+byz satisfy 3 threshold: two disjoint honest
           pairs can each form quorums with the byz node's help *)
        let ids = List.init 5 id in
        let config = Network_config.of_assoc (clique ids 3) in
        check bool "honest-only intersects" true
          (Intersection.check config = Intersection.Intersecting);
        match Intersection.check ~byzantine:[ id 0 ] config with
        | Intersection.Disjoint _ -> ()
        | _ -> fail "expected split with byzantine helper");
    test_case "paper §6 incident shape: one-sided dependence keeps safety" `Quick
      (fun () ->
        (* leaves depending on a safe core cannot create disjoint quorums *)
        let core = List.init 4 id in
        let leaf = id 20 in
        let core_qs = clique core 3 in
        let config =
          Network_config.of_assoc ((leaf, Scp.Quorum_set.make ~threshold:3 core) :: core_qs)
        in
        check bool "still intersecting" true
          (Intersection.check config = Intersection.Intersecting));
  ]

let criticality_tests =
  let open Alcotest in
  [
    test_case "single bridging org is critical" `Quick (fun () ->
        (* two 2-of-3 islands joined only through org X's node in both
           slices; if X misbehaves the islands split *)
        let g1 = List.init 2 id in
        let g2 = List.init 2 (fun i -> id (i + 10)) in
        let bridge = id 50 in
        let q1 = Scp.Quorum_set.make ~threshold:3 (g1 @ [ bridge ]) in
        let q2 = Scp.Quorum_set.make ~threshold:3 (g2 @ [ bridge ]) in
        let qb = Scp.Quorum_set.make ~threshold:3 (g1 @ [ bridge ]) in
        let config =
          Network_config.of_assoc
            (List.map (fun v -> (v, q1)) g1
            @ List.map (fun v -> (v, q2)) g2
            @ [ (bridge, qb) ])
        in
        check bool "whole net is fine" true
          (Intersection.check config = Intersection.Intersecting);
        let orgs =
          [
            { Criticality.name = "bridge"; validators = [ bridge ] };
            { Criticality.name = "g1"; validators = g1 };
          ]
        in
        let critical = Criticality.critical_orgs config orgs in
        check bool "bridge is critical" true
          (List.exists (fun o -> o.Criticality.name = "bridge") critical));
    test_case "robust tiered config has no critical org" `Quick (fun () ->
        let orgs =
          List.init 5 (fun oi ->
              Synthesis.org ~quality:Synthesis.Critical
                ~name:(Printf.sprintf "org%d" oi)
                (List.init 3 (fun vi -> id ((10 * oi) + vi))))
        in
        let config = Synthesis.network_config orgs in
        let crit =
          Criticality.critical_orgs config
            (List.map
               (fun o ->
                 { Criticality.name = o.Synthesis.name; validators = o.Synthesis.validators })
               orgs)
        in
        check int "none critical" 0 (List.length crit));
  ]

let synthesis_tests =
  let open Alcotest in
  [
    test_case "51% org thresholds" `Quick (fun () ->
        check int "3 validators" 2 (Synthesis.org_threshold 3);
        check int "4 validators" 3 (Synthesis.org_threshold 4);
        check int "5 validators" 3 (Synthesis.org_threshold 5));
    test_case "critical group uses 100% threshold" `Quick (fun () ->
        let orgs =
          List.init 3 (fun oi ->
              Synthesis.org ~quality:Synthesis.Critical ~name:(Printf.sprintf "o%d" oi)
                (List.init 3 (fun vi -> id ((10 * oi) + vi))))
        in
        let q = Synthesis.quorum_set orgs in
        check int "100% of 3 entries" 3 q.Scp.Quorum_set.threshold;
        check int "3 inner org sets" 3 (List.length q.Scp.Quorum_set.inner));
    test_case "mixed tiers nest (Fig. 6 shape)" `Quick (fun () ->
        let mk q oi = Synthesis.org ~quality:q ~name:(Printf.sprintf "o%d" oi)
            (List.init 3 (fun vi -> id ((10 * oi) + vi))) in
        let orgs = [ mk Synthesis.Critical 0; mk Synthesis.Critical 1; mk Synthesis.High 2; mk Synthesis.Medium 3 ] in
        let q = Synthesis.quorum_set orgs in
        (* top group: 2 critical orgs + high group = 3 entries at 100% *)
        check int "top threshold" 3 q.Scp.Quorum_set.threshold;
        check int "top entries" 3 (List.length q.Scp.Quorum_set.inner);
        check bool "is sane" true (Scp.Quorum_set.is_sane q);
        (* and the synthesized config must intersect *)
        let config = Synthesis.network_config orgs in
        check bool "intersecting" true (Intersection.check config = Intersection.Intersecting));
    test_case "archives required at high tiers" `Quick (fun () ->
        let o = Synthesis.org ~quality:Synthesis.Critical ~has_archive:false ~name:"x" [ id 1 ] in
        check_raises "rejected"
          (Invalid_argument "Synthesis: org x is high-quality but publishes no archive")
          (fun () -> ignore (Synthesis.quorum_set [ o ])));
    test_case "synthesized config survives one org down (availability)" `Quick (fun () ->
        let orgs =
          List.init 4 (fun oi ->
              Synthesis.org ~quality:Synthesis.High ~name:(Printf.sprintf "o%d" oi)
                (List.init 3 (fun vi -> id ((10 * oi) + vi))))
        in
        let q = Synthesis.quorum_set orgs in
        (* 67% of 4 orgs = 3: with one org entirely down, the remaining
           9 validators still contain a slice *)
        let up = List.concat_map (fun o -> o.Synthesis.validators) (List.tl orgs) in
        check bool "slice without org0" true
          (Scp.Quorum_set.is_quorum_slice q (fun v -> List.mem v up)));
  ]

let () =
  Alcotest.run "quorum"
    [
      ("intersection", intersection_tests);
      ("criticality", criticality_tests);
      ("synthesis", synthesis_tests);
    ]
