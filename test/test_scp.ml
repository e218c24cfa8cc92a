module Scp_harness = Scp_test_harness.Scp_harness
open Scp

let id c = String.make 32 c
let a = id 'a'
let b = id 'b'
let c = id 'c'
let d = id 'd'
let e5 = id 'e'
let f6 = id 'f'
let g7 = id 'g'

(* ---------- Quorum set unit tests ---------- *)

let qset_tests =
  let open Alcotest in
  [
    test_case "threshold bounds" `Quick (fun () ->
        check_raises "0 threshold" (Invalid_argument "Quorum_set.make: threshold out of range")
          (fun () -> ignore (Quorum_set.make ~threshold:0 [ a ]));
        check_raises "too high" (Invalid_argument "Quorum_set.make: threshold out of range")
          (fun () -> ignore (Quorum_set.make ~threshold:3 [ a; b ])));
    test_case "majority threshold" `Quick (fun () ->
        check int "5 nodes" 3 (Quorum_set.majority [ a; b; c; d; e5 ]).threshold;
        check int "4 nodes" 3 (Quorum_set.majority [ a; b; c; d ]).threshold);
    test_case "percent thresholds match stellar-core" `Quick (fun () ->
        check int "67% of 3" 3 (Quorum_set.percent_threshold 67 3 + 1 - 1 |> fun x -> x);
        check int "67% of 3 is 3" 3 (Quorum_set.percent_threshold 67 3);
        check int "67% of 4" 3 (Quorum_set.percent_threshold 67 4);
        check int "51% of 3" 2 (Quorum_set.percent_threshold 51 3);
        check int "100% of 4" 4 (Quorum_set.percent_threshold 100 4));
    test_case "quorum slice flat" `Quick (fun () ->
        let q = Quorum_set.make ~threshold:2 [ a; b; c ] in
        let in_set l v = List.mem v l in
        check bool "ab is slice" true (Quorum_set.is_quorum_slice q (in_set [ a; b ]));
        check bool "a alone is not" false (Quorum_set.is_quorum_slice q (in_set [ a ]));
        check bool "abc is slice" true (Quorum_set.is_quorum_slice q (in_set [ a; b; c ])));
    test_case "quorum slice nested" `Quick (fun () ->
        (* 2-of { a, 1-of {b, c} } *)
        let inner = Quorum_set.make ~threshold:1 [ b; c ] in
        let q = Quorum_set.make ~threshold:2 ~inner:[ inner ] [ a ] in
        let in_set l v = List.mem v l in
        check bool "a+b" true (Quorum_set.is_quorum_slice q (in_set [ a; b ]));
        check bool "a+c" true (Quorum_set.is_quorum_slice q (in_set [ a; c ]));
        check bool "b+c no a" false (Quorum_set.is_quorum_slice q (in_set [ b; c ])));
    test_case "v-blocking flat" `Quick (fun () ->
        let q = Quorum_set.make ~threshold:2 [ a; b; c ] in
        let in_set l v = List.mem v l in
        (* threshold 2 of 3: any 2 nodes block *)
        check bool "two block" true (Quorum_set.is_v_blocking q (in_set [ a; b ]));
        check bool "one does not" false (Quorum_set.is_v_blocking q (in_set [ a ])));
    test_case "v-blocking 3f+1" `Quick (fun () ->
        let q = Quorum_set.make ~threshold:3 [ a; b; c; d ] in
        let in_set l v = List.mem v l in
        (* 3-of-4: f=1, so f+1=2 nodes block *)
        check bool "2 block" true (Quorum_set.is_v_blocking q (in_set [ c; d ]));
        check bool "1 does not" false (Quorum_set.is_v_blocking q (in_set [ d ])));
    test_case "weight flat" `Quick (fun () ->
        let q = Quorum_set.make ~threshold:2 [ a; b; c ] in
        check (float 1e-9) "k/n" (2.0 /. 3.0) (Quorum_set.weight q a);
        check (float 1e-9) "absent" 0.0 (Quorum_set.weight q d));
    test_case "weight nested multiplies" `Quick (fun () ->
        let inner = Quorum_set.make ~threshold:1 [ b; c ] in
        let q = Quorum_set.make ~threshold:2 ~inner:[ inner ] [ a ] in
        check (float 1e-9) "inner" 0.5 (Quorum_set.weight q b);
        check (float 1e-9) "outer" 1.0 (Quorum_set.weight q a));
    test_case "sanity checks" `Quick (fun () ->
        check bool "dup validators insane" false
          (Quorum_set.is_sane { threshold = 1; validators = [ a; a ]; inner = [] });
        check bool "ok" true (Quorum_set.is_sane (Quorum_set.majority [ a; b; c ])));
    test_case "encode deterministic & distinct" `Quick (fun () ->
        let q1 = Quorum_set.make ~threshold:2 [ a; b; c ] in
        let q2 = Quorum_set.make ~threshold:2 [ a; b; c ] in
        let q3 = Quorum_set.make ~threshold:3 [ a; b; c ] in
        Alcotest.(check bool) "same" true (Quorum_set.encode q1 = Quorum_set.encode q2);
        Alcotest.(check bool) "diff" false (Quorum_set.encode q1 = Quorum_set.encode q3));
  ]

(* ---------- Federation predicate tests (incl. the Fig. 2 cascade) ---------- *)

let mk_statement node qset vote =
  Types.
    {
      node_id = node;
      slot = 1;
      quorum_set = qset;
      pledge = Nominate { votes = [ vote ]; accepted = [] };
    }

(* the latest-statement map the federation checks take, over [idx] *)
let voters idx sts =
  List.fold_left
    (fun acc st -> Federation.Node_map.add st.Types.node_id (Federation.voter idx st) acc)
    Federation.Node_map.empty sts

let federation_tests =
  let open Alcotest in
  [
    test_case "quorum requires every member's slice" `Quick (fun () ->
        (* a trusts {a,b}, b trusts {b,c}: {a,b} is not a quorum (b's slice
           needs c), {a,b,c} is, if c trusts itself. *)
        let qa = Quorum_set.make ~threshold:2 [ a; b ] in
        let qb = Quorum_set.make ~threshold:2 [ b; c ] in
        let qc = Quorum_set.singleton c in
        let idx = Federation.create_index () in
        let sts v =
          voters idx
            (List.map
               (fun (n, q) -> mk_statement n q "x")
               (List.filteri (fun i _ -> i < v) [ (a, qa); (b, qb); (c, qc) ]))
        in
        check bool "a+b not quorum" false
          (Federation.is_quorum idx ~local_qset:qa (sts 2) (fun _ -> true));
        check bool "a+b+c quorum" true
          (Federation.is_quorum idx ~local_qset:qa (sts 3) (fun _ -> true)));
    test_case "fig2 cascade: v-blocking accept overrules votes" `Quick (fun () ->
        (* Nodes 1-4 in a clique (3-of-4); 5 depends on 1; 6,7 depend on 5.
           When the clique accepts X, node 5 must accept X via its
           1-blocking set {1}, then {5} is 6- and 7-blocking. *)
        let clique = [ a; b; c; d ] in
        let q_clique = Quorum_set.make ~threshold:3 clique in
        let q5 = Quorum_set.make ~threshold:1 [ a ] in
        let q67 = Quorum_set.make ~threshold:1 [ e5 ] in
        ignore q67;
        let accepted_x st =
          match st.Types.pledge with
          | Types.Nominate n -> List.mem "X" n.Types.accepted
          | _ -> false
        in
        let votes_x st =
          match st.Types.pledge with
          | Types.Nominate n -> List.mem "X" n.Types.votes
          | _ -> false
        in
        let accept_st n q =
          Types.
            {
              node_id = n;
              slot = 1;
              quorum_set = q;
              pledge = Nominate { votes = [ "X" ]; accepted = [ "X" ] };
            }
        in
        let idx = Federation.create_index () in
        let sts = voters idx (List.map (fun n -> accept_st n q_clique) clique) in
        (* Node 5 voted Y but sees {a} accept X: a is 5-blocking. *)
        check bool "5-blocking accepts X" true
          (Federation.federated_accept idx ~local_qset:q5 sts ~voted:votes_x
             ~accepted:accepted_x));
    test_case "ratify needs full quorum of accepts" `Quick (fun () ->
        let q = Quorum_set.make ~threshold:3 [ a; b; c; d ] in
        let accept_st n votes accepted =
          Types.
            {
              node_id = n;
              slot = 1;
              quorum_set = q;
              pledge = Nominate { votes; accepted };
            }
        in
        let accepted_x st =
          match st.Types.pledge with
          | Types.Nominate n -> List.mem "X" n.Types.accepted
          | _ -> false
        in
        let idx = Federation.create_index () in
        let sts2 = voters idx [ accept_st a [ "X" ] [ "X" ]; accept_st b [ "X" ] [ "X" ] ] in
        check bool "2 accepts of 3-of-4: no ratify" false
          (Federation.federated_ratify idx ~local_qset:q sts2 accepted_x);
        let sts3 =
          Federation.Node_map.add c (Federation.voter idx (accept_st c [ "X" ] [ "X" ])) sts2
        in
        check bool "3 accepts ratify" true
          (Federation.federated_ratify idx ~local_qset:q sts3 accepted_x));
  ]

(* ---------- Random nested quorum sets for the properties below ---------- *)

(* nested sets of depth <= 3 over [pool], thresholds anywhere in [1, n] *)
let rec qset_gen pool depth =
  let open QCheck.Gen in
  let* validators = list_size (int_range 1 4) (oneofl pool) in
  let* inner =
    if depth >= 3 then return [] else list_size (int_range 0 2) (qset_gen pool (depth + 1))
  in
  let+ threshold = int_range 1 (List.length validators + List.length inner) in
  Quorum_set.make ~threshold ~inner validators

(* validators by their first letter, e.g. 2-of-{a, b, 1-of-{c}} *)
let rec show_qset (t : Quorum_set.t) =
  Printf.sprintf "%d-of-{%s}" t.threshold
    (String.concat ", "
       (List.map (fun v -> String.make 1 v.[0]) t.validators @ List.map show_qset t.inner))

(* ---------- The fixpoint against its Set-based definition ---------- *)

(* The specification: start from every node whose statement satisfies
   [pred], drop (all at once) the nodes whose quorum set has no slice in the
   current set until nothing changes, then test the local set. *)
let ref_is_quorum ~local_qset statements pred =
  let module S = Set.Make (String) in
  let initial =
    Federation.Node_map.fold
      (fun node st acc -> if pred st then S.add node acc else acc)
      statements S.empty
  in
  let rec shrink set =
    let keep node =
      let st = Federation.Node_map.find node statements in
      Quorum_set.is_quorum_slice st.Types.quorum_set (fun v -> S.mem v set)
    in
    let set' = S.filter keep set in
    if S.cardinal set' = S.cardinal set then set else shrink set'
  in
  let set = shrink initial in
  Quorum_set.is_quorum_slice local_qset (fun v -> S.mem v set)

(* The other checks as they ran on string-keyed maps before the node index:
   membership looked up per validator, [pred] evaluated per lookup. *)
let ref_is_v_blocking_set ~local_qset statements pred =
  Quorum_set.is_v_blocking local_qset (fun v ->
      match Federation.Node_map.find_opt v statements with Some st -> pred st | None -> false)

let ref_federated_accept ~local_qset statements ~voted ~accepted =
  ref_is_v_blocking_set ~local_qset statements accepted
  || ref_is_quorum ~local_qset statements (fun st -> voted st || accepted st)

let fixpoint_prop_tests =
  let open QCheck in
  (* a structurally equal set that shares no record with [q] *)
  let rec copy (q : Quorum_set.t) =
    Quorum_set.make ~threshold:q.threshold ~inner:(List.map copy q.inner) q.validators
  in
  (* What a node's statement carries: one of the shared sets itself, a copy
     of one, a set of its own; or the node sent no statement. *)
  let carried_gen pool n_shared =
    Gen.frequency
      [
        (3, Gen.map (fun i -> `Shared i) (Gen.int_bound (n_shared - 1)));
        (2, Gen.map (fun i -> `Copy i) (Gen.int_bound (n_shared - 1)));
        (2, Gen.map (fun q -> `Own q) (qset_gen pool 1));
        (1, Gen.return `Silent);
      ]
  in
  let scenario_gen =
    let open Gen in
    let* n = int_range 3 12 in
    let pool = List.init n (fun i -> id (Char.chr (Char.code 'a' + i))) in
    let* shared = list_size (int_range 1 3) (qset_gen pool 1) in
    let* carried = list_repeat n (carried_gen pool (List.length shared)) in
    let* mask = list_repeat n bool in
    let* local = qset_gen pool 1 in
    let+ mask2 = list_repeat n bool in
    (pool, Array.of_list shared, carried, (mask, mask2), local)
  in
  let print (pool, shared, carried, (mask, mask2), local) =
    let node v c (bit, bit2) =
      Printf.sprintf "%c%s%s:%s" v.[0]
        (if bit then "+" else "-")
        (if bit2 then "+" else "-")
        (match c with
        | `Shared i -> Printf.sprintf "shared%d" i
        | `Copy i -> Printf.sprintf "copy%d" i
        | `Own q -> show_qset q
        | `Silent -> "silent")
    in
    Printf.sprintf "shared=[%s] nodes=[%s] local=%s"
      (String.concat "; " (Array.to_list (Array.map show_qset shared)))
      (String.concat "; "
         (List.map2 (fun (v, c) bits -> node v c bits) (List.combine pool carried)
            (List.combine mask mask2)))
      (show_qset local)
  in
  let statements (pool, shared, carried, _, _) =
    List.fold_left2
      (fun acc v c ->
        let qset =
          match c with
          | `Shared i -> Some shared.(i)
          | `Copy i -> Some (copy shared.(i))
          | `Own q -> Some q
          | `Silent -> None
        in
        match qset with
        | Some q -> Federation.Node_map.add v (mk_statement v q "x") acc
        | None -> acc)
      Federation.Node_map.empty pool carried
  in
  (* the spec's statement map, the same statements over a fresh index, and
     the two masks as statement predicates *)
  let setup ((pool, _, _, (mask, mask2), _) as sc) =
    let sts = statements sc in
    let idx = Federation.create_index () in
    let pred mask st = List.assoc st.Types.node_id (List.combine pool mask) in
    (sts, idx, Federation.Node_map.map (Federation.voter idx) sts, pred mask, pred mask2)
  in
  let prop name ?(count = 2000) f =
    QCheck_alcotest.to_alcotest (Test.make ~name ~count (make ~print scenario_gen) f)
  in
  [
    prop "is_quorum matches the Set-based fixpoint" (fun ((_, _, _, _, local_qset) as sc) ->
        let sts, idx, vs, pred, _ = setup sc in
        Federation.is_quorum idx ~local_qset vs pred = ref_is_quorum ~local_qset sts pred);
    prop "federated_ratify matches the Set-based fixpoint"
      (fun ((_, _, _, _, local_qset) as sc) ->
        let sts, idx, vs, pred, _ = setup sc in
        Federation.federated_ratify idx ~local_qset vs pred = ref_is_quorum ~local_qset sts pred);
    prop "is_v_blocking_set matches its Node_map definition"
      (fun ((_, _, _, _, local_qset) as sc) ->
        let sts, idx, vs, pred, _ = setup sc in
        Federation.is_v_blocking_set idx ~local_qset vs pred
        = ref_is_v_blocking_set ~local_qset sts pred);
    prop "federated_accept matches its Node_map definition"
      (fun ((_, _, _, _, local_qset) as sc) ->
        let sts, idx, vs, voted, accepted = setup sc in
        Federation.federated_accept idx ~local_qset vs ~voted ~accepted
        = ref_federated_accept ~local_qset sts ~voted ~accepted);
    prop "equal quorum sets share one compiled entry" ~count:500
      (fun ((_, _, _, _, local_qset) as sc) ->
        let _, idx, vs, _, _ = setup sc in
        let local = Federation.compile idx local_qset in
        let entries =
          (local_qset, local)
          :: List.map
               (fun (_, (v : Federation.voter)) -> (v.statement.Types.quorum_set, v.qset))
               (Federation.Node_map.bindings vs)
        in
        List.for_all
          (fun (q1, c1) ->
            List.for_all (fun (q2, c2) -> (q1 = q2) = (c1 == c2)) entries
            && Federation.sane c1 = Quorum_set.is_sane q1)
          entries);
  ]

(* ---------- Statement signatures ---------- *)

let signing_tests =
  let open Alcotest in
  (* a fresh slot on node [self] whose driver verifies real sim-sig
     signatures, and a peer that signs with its own key *)
  let setup () =
    Stellar_crypto.Sim_sig.reset ();
    let key name = Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest name) in
    let _, self = key "signing-self" and peer_secret, peer = key "signing-peer" in
    let slot () =
      let driver =
        Driver.make
          ~emit_envelope:(fun _ -> ())
          ~sign:(fun _ -> "unused")
          ~verify:Scp_harness.sim_verify
          ~validate_value:(fun ~slot:_ _ -> Driver.Valid)
          ~combine_candidates:(fun ~slot:_ _ -> None)
          ~value_externalized:(fun ~slot:_ _ -> ())
          ~schedule:(fun ~delay:_ _ () -> ())
          ()
      in
      Slot.create ~index:1 ~local_id:self
        ~get_qset:(fun () -> Quorum_set.majority [ self; peer; a; b ])
        ~driver
    in
    let signed qset =
      let st = mk_statement peer qset "x" in
      let signature = Stellar_crypto.Sim_sig.sign peer_secret (Types.signing_bytes st) in
      { Types.statement = st; signature }
    in
    (self, peer, slot, signed)
  in
  let with_qset env qset =
    { env with Types.statement = { env.Types.statement with Types.quorum_set = qset } }
  in
  [
    test_case "a quorum set changed after signing is rejected" `Quick (fun () ->
        let self, peer, slot, signed = setup () in
        let q = Quorum_set.make ~threshold:2 [ self; peer; a ] in
        let env = signed q in
        check bool "as signed" true (Slot.process_envelope (slot ()) env = `Processed);
        let swapped = Quorum_set.make ~threshold:2 [ self; peer; b ] in
        check bool "validator swapped" true
          (Slot.process_envelope (slot ()) (with_qset env swapped) = `Invalid);
        let raised = Quorum_set.make ~threshold:3 [ self; peer; a ] in
        check bool "threshold changed" true
          (Slot.process_envelope (slot ()) (with_qset env raised) = `Invalid));
    test_case "an equal copy of the signed quorum set verifies" `Quick (fun () ->
        let self, peer, slot, signed = setup () in
        let q = Quorum_set.make ~threshold:2 [ self; peer; a ] in
        let env = signed q in
        let copy = Quorum_set.make ~threshold:2 [ self; peer; a ] in
        check bool "distinct values" false (copy == q);
        check bool "copy verifies" true
          (Slot.process_envelope (slot ()) (with_qset env copy) = `Processed));
    test_case "an insane quorum set is invalid on every delivery" `Quick (fun () ->
        let self, peer, slot, signed = setup () in
        let s = slot () in
        let insane () = { Quorum_set.threshold = 1; validators = [ peer; peer ]; inner = [] } in
        let env = signed (insane ()) in
        for i = 1 to 3 do
          check bool (Printf.sprintf "delivery %d" i) true (Slot.process_envelope s env = `Invalid)
        done;
        check bool "an equal copy" true
          (Slot.process_envelope s (with_qset env (insane ())) = `Invalid);
        check bool "a sane set from the same sender" true
          (Slot.process_envelope s (signed (Quorum_set.make ~threshold:2 [ self; peer; a ]))
          = `Processed);
        check bool "the insane set once more" true (Slot.process_envelope s env = `Invalid));
    test_case "a badly signed envelope leaves the slot's index unchanged" `Quick (fun () ->
        let self, peer, slot, signed = setup () in
        let s = slot () in
        let env = signed (Quorum_set.make ~threshold:2 [ self; peer; a ]) in
        check bool "signed" true (Slot.process_envelope s env = `Processed);
        let known = Slot.known_nodes s in
        let strangers = List.init 40 (Printf.sprintf "stranger-%d") in
        let forged = with_qset env (Quorum_set.make ~threshold:20 (peer :: strangers)) in
        check bool "new set, old signature" true (Slot.process_envelope s forged = `Invalid);
        let insane = { Quorum_set.threshold = 1; validators = strangers @ strangers; inner = [] } in
        check bool "insane set, old signature" true
          (Slot.process_envelope s (with_qset env insane) = `Invalid);
        check int "no stranger numbered" known (Slot.known_nodes s);
        check bool "the new set, signed" true
          (Slot.process_envelope s (signed (Quorum_set.make ~threshold:20 (peer :: strangers)))
          = `Processed);
        check int "strangers numbered once signed" (known + 40) (Slot.known_nodes s));
    test_case "signing bytes do not grow with the quorum set" `Quick (fun () ->
        let tiered = (fst (Stellar_node.Topology.tiered ())).Stellar_node.Topology.qset_of 0 in
        check int "tiered set size" 27 (List.length (Quorum_set.all_validators tiered));
        let bytes q = Types.signing_bytes (mk_statement a q "x") in
        check int "1 vs 27 validators" (String.length (bytes (Quorum_set.singleton a)))
          (String.length (bytes tiered));
        check bool "yet they differ" false
          (String.equal (bytes (Quorum_set.singleton a)) (bytes tiered)));
  ]

(* ---------- End-to-end consensus over the simulator ---------- *)

let all_majority ids _ = Quorum_set.majority (Array.to_list ids)

let e2e_tests =
  let open Alcotest in
  [
    test_case "4 nodes converge on one value" `Quick (fun () ->
        let h = Scp_harness.make ~n:4 ~qset_of:all_majority () in
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run h;
        check bool "unanimous" true (Scp_harness.unanimous h));
    test_case "decided value was someone's input" `Quick (fun () ->
        let h = Scp_harness.make ~n:4 ~qset_of:all_majority () in
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run h;
        let inputs = List.init 4 (Printf.sprintf "value-%d") in
        Array.iter
          (function
            | Some v -> check bool "valid input" true (List.mem v inputs)
            | None -> fail "no decision")
          (Scp_harness.decisions h));
    test_case "single node self-quorum externalizes" `Quick (fun () ->
        let h =
          Scp_harness.make ~n:1 ~qset_of:(fun ids _ -> Quorum_set.singleton ids.(0)) ()
        in
        Scp_harness.nominate_all h (fun _ -> "solo");
        Scp_harness.run h;
        check bool "decided" true (Scp_harness.unanimous h));
    test_case "7 nodes, wide-area latency" `Quick (fun () ->
        let h =
          Scp_harness.make ~latency:Stellar_sim.Latency.wide_area ~n:7
            ~qset_of:all_majority ()
        in
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "v%d" i);
        Scp_harness.run h;
        check bool "unanimous" true (Scp_harness.unanimous h));
    test_case "tolerates one crashed node (3-of-4)" `Quick (fun () ->
        let h =
          Scp_harness.make ~n:4
            ~qset_of:(fun ids _ -> Quorum_set.make ~threshold:3 (Array.to_list ids))
            ()
        in
        Stellar_sim.Network.set_down h.Scp_harness.network 3 true;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run h;
        check bool "3 live nodes decide" true (Scp_harness.unanimous ~except:[ 3 ] h));
    test_case "blocked without quorum availability" `Quick (fun () ->
        (* 4 nodes requiring unanimity: one crash blocks liveness (but not
           safety — nobody externalizes). *)
        let h =
          Scp_harness.make ~n:4
            ~qset_of:(fun ids _ -> Quorum_set.make ~threshold:4 (Array.to_list ids))
            ()
        in
        Stellar_sim.Network.set_down h.Scp_harness.network 3 true;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run ~until:60.0 h;
        Array.iteri
          (fun i dec -> if i < 3 then check bool "no decision" true (dec = None))
          (Scp_harness.decisions h));
    test_case "safety: no divergence under message loss" `Quick (fun () ->
        let h = Scp_harness.make ~n:5 ~qset_of:all_majority () in
        Stellar_sim.Network.set_loss_rate h.Scp_harness.network 0.10;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run ~until:600.0 h;
        (* With 10% loss and retried ballots everyone should still decide,
           and decisions must agree. *)
        let decided =
          Array.to_list (Scp_harness.decisions h) |> List.filter_map Fun.id
        in
        check bool "agreement" true
          (match decided with
          | [] -> false
          | v :: rest -> List.for_all (String.equal v) rest));
    test_case "disjoint quorums may diverge (intertwined hypothesis)" `Quick
      (fun () ->
        (* Two cliques that don't reference each other: both decide, possibly
           differently — this is the misconfiguration §6 guards against. *)
        let qset_of ids i =
          if i < 3 then Quorum_set.majority [ ids.(0); ids.(1); ids.(2) ]
          else Quorum_set.majority [ ids.(3); ids.(4); ids.(5) ]
        in
        let h = Scp_harness.make ~n:6 ~qset_of () in
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "group-%d" (i / 3));
        Scp_harness.run h;
        let decs = Scp_harness.decisions h in
        Array.iter (fun dec -> check bool "every node decided" true (dec <> None)) decs;
        check (option string) "clique 0 decided its value" (Some "group-0") decs.(0);
        check (option string) "clique 1 decided its value" (Some "group-1") decs.(3));
    test_case "intertwined nodes never diverge across 10 slots" `Quick (fun () ->
        let h = Scp_harness.make ~n:5 ~qset_of:all_majority () in
        for slot = 1 to 10 do
          Scp_harness.nominate_all ~slot h (fun i -> Printf.sprintf "s%d-v%d" slot i)
        done;
        Scp_harness.run ~until:2000.0 h;
        for slot = 1 to 10 do
          Alcotest.(check bool)
            (Printf.sprintf "slot %d unanimous" slot)
            true
            (Scp_harness.unanimous ~slot h)
        done);
    test_case "round-1 leader crash is survived via leader expansion" `Quick (fun () ->
        let h = Scp_harness.make ~n:5 ~qset_of:all_majority () in
        (* compute whom node 0 will follow in round 1 and crash that node *)
        let qset = all_majority h.Scp_harness.ids 0 in
        let leader =
          Leader.round_leader ~qset ~self:h.Scp_harness.ids.(0) ~slot:1 ~prev:"genesis"
            ~round:1
        in
        let victim = ref (-1) in
        Array.iteri (fun i id -> if String.equal id leader then victim := i) h.Scp_harness.ids;
        if !victim >= 0 then Stellar_sim.Network.set_down h.Scp_harness.network !victim true;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run h;
        let except = if !victim >= 0 then [ !victim ] else [] in
        Alcotest.(check bool) "survivors agree" true (Scp_harness.unanimous ~except h));
    test_case "tiered topology: leaf follows tier-1" `Quick (fun () ->
        (* Nodes 0-3 are tier 1 (3-of-4 among themselves); nodes 4-5 are
           leaves trusting 3-of-4 tier-1. Everyone should agree. *)
        let qset_of ids i =
          let tier1 = [ ids.(0); ids.(1); ids.(2); ids.(3) ] in
          ignore i;
          Quorum_set.make ~threshold:3 tier1
        in
        let h = Scp_harness.make ~n:6 ~qset_of () in
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run h;
        check bool "unanimous incl leaves" true (Scp_harness.unanimous h));
  ]

(* ---------- Leader election ---------- *)

let leader_tests =
  let open Alcotest in
  [
    test_case "deterministic across nodes" `Quick (fun () ->
        let qset = Quorum_set.majority [ a; b; c; d ] in
        let l1 = Leader.round_leader ~qset ~self:a ~slot:7 ~prev:"p" ~round:1 in
        let l2 = Leader.round_leader ~qset ~self:a ~slot:7 ~prev:"p" ~round:1 in
        check bool "same" true (String.equal l1 l2));
    test_case "leader varies with slot" `Quick (fun () ->
        let qset = Quorum_set.majority [ a; b; c; d; e5; f6; g7 ] in
        let leaders =
          List.init 30 (fun slot ->
              Leader.round_leader ~qset ~self:a ~slot ~prev:"p" ~round:1)
        in
        let distinct = List.sort_uniq String.compare leaders in
        check bool "more than one leader over slots" true (List.length distinct > 1));
    test_case "self weight is 1" `Quick (fun () ->
        let qset = Quorum_set.majority [ b; c ] in
        check (float 1e-9) "self" 1.0 (Leader.weight ~qset ~self:a a));
    test_case "priority in [0,1)" `Quick (fun () ->
        for r = 1 to 20 do
          let p = Leader.priority ~slot:3 ~prev:"x" ~round:r a in
          check bool "range" true (p >= 0.0 && p < 1.0)
        done);
  ]

(* ---------- Ballot ordering properties ---------- *)

let ballot_prop_tests =
  let open QCheck in
  let ballot_gen =
    Gen.map2
      (fun c v -> Types.{ counter = c; value = Printf.sprintf "v%d" v })
      (Gen.int_range 1 100) (Gen.int_range 0 5)
  in
  let arb = make ballot_gen in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"ballot compare total order" ~count:500 (triple arb arb arb)
         (fun (x, y, z) ->
           let open Types.Ballot in
           (compare x y <= 0 && compare y z <= 0) ==> (compare x z <= 0)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"less_and_compatible implies compatible" ~count:500 (pair arb arb)
         (fun (x, y) ->
           let open Types.Ballot in
           (not (less_and_compatible x y)) || compatible x y));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"statement roundtrip sizes positive" ~count:200 arb (fun b ->
           let st =
             Types.
               {
                 node_id = String.make 32 'z';
                 slot = 1;
                 quorum_set = Quorum_set.singleton (String.make 32 'z');
                 pledge =
                   Prepare
                     {
                       ballot = b;
                       prepared = None;
                       prepared_prime = None;
                       n_c = 0;
                       n_h = 0;
                     };
               }
           in
           String.length (Types.signing_bytes st) > 0));
  ]

(* ---------- Quorum set checks against their list-filter definitions ---------- *)

let qset_prop_tests =
  let open QCheck in
  let pool = List.init 8 (fun i -> id (Char.chr (Char.code 'a' + i))) in
  let rec ref_slice (t : Quorum_set.t) in_set =
    List.length (List.filter in_set t.validators)
    + List.length (List.filter (fun q -> ref_slice q in_set) t.inner)
    >= t.threshold
  in
  let rec ref_blocking (t : Quorum_set.t) in_set =
    List.length (List.filter (fun v -> not (in_set v)) t.validators)
    + List.length (List.filter (fun q -> not (ref_blocking q in_set)) t.inner)
    < t.threshold
  in
  let members_gen = Gen.list_repeat (List.length pool) Gen.bool in
  let arb =
    make
      ~print:(fun (q, mask) ->
        show_qset q ^ " / "
        ^ String.concat "" (List.map (fun b -> if b then "1" else "0") mask))
      (Gen.pair (qset_gen pool 1) members_gen)
  in
  let in_set mask v = List.assoc v (List.combine pool mask) in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"is_quorum_slice matches its list-filter definition" ~count:1000 arb
         (fun (q, mask) -> Quorum_set.is_quorum_slice q (in_set mask) = ref_slice q (in_set mask)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"is_v_blocking matches its list-filter definition" ~count:1000 arb
         (fun (q, mask) -> Quorum_set.is_v_blocking q (in_set mask) = ref_blocking q (in_set mask)));
  ]

let () =
  Alcotest.run "scp"
    [
      ("quorum-set", qset_tests);
      ("qset-props", qset_prop_tests);
      ("federation", federation_tests @ fixpoint_prop_tests);
      ("signing", signing_tests);
      ("leader", leader_tests);
      ("ballot-props", ballot_prop_tests);
      ("end-to-end", e2e_tests);
    ]
