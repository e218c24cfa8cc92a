module Scp_harness = Scp_test_harness.Scp_harness
(* Adversarial and state-machine-level SCP tests: Byzantine equivocation,
   signature forgery, crafted ballot statements, and randomized convergence
   properties. *)

open Scp

(* ---------- a driver stub for driving Ballot/Nomination in isolation ---------- *)

type probe = {
  emitted : Types.envelope list ref;
  externalized : (int * Types.value) list ref;
  started : int list ref;  (* slots passed to started_ballot, latest first *)
  timers : (float * (unit -> unit)) list ref;  (* armed timers, latest first *)
  driver : Driver.t;
}

let make_probe () =
  let emitted = ref [] in
  let externalized = ref [] in
  let started = ref [] in
  let timers = ref [] in
  let driver =
    Driver.make
      ~emit_envelope:(fun env -> emitted := env :: !emitted)
      ~sign:(fun _ -> "stub-signature")
      ~verify:(fun _ -> true)
      ~validate_value:(fun ~slot:_ _ -> Driver.Valid)
      ~combine_candidates:(fun ~slot:_ values ->
        match List.sort (fun a b -> String.compare b a) values with
        | v :: _ -> Some v
        | [] -> None)
      ~value_externalized:(fun ~slot value -> externalized := (slot, value) :: !externalized)
      ~schedule:(fun ~delay f ->
        timers := (delay, f) :: !timers;
        fun () -> ())
      ~started_ballot:(fun ~slot -> started := slot :: !started)
      ()
  in
  { emitted; externalized; started; timers; driver }

(* Fire the most recently armed timer. *)
let fire_latest p =
  match !(p.timers) with (_, f) :: _ -> f () | [] -> Alcotest.fail "no timer armed"

let delays p = List.rev_map fst !(p.timers)

let id c = String.make 32 c
let v_self = id 's'
let peers = [ id 'a'; id 'b'; id 'c' ]
let qset = Quorum_set.majority (v_self :: peers) (* 3 of 4 *)

(* a ballot protocol for [v_self] with its own node index *)
let new_ballot ?(slot = 1) p =
  Ballot.create ~slot ~local_id:v_self ~get_qset:(fun () -> qset) ~driver:p.driver
    ~index:(Federation.create_index ())

let wrap st = { Types.statement = st; signature = "stub-signature" }

let prepare_st node ~counter ~value ?prepared ?(n_c = 0) ?(n_h = 0) () =
  Types.
    {
      node_id = node;
      slot = 1;
      quorum_set = qset;
      pledge =
        Prepare
          {
            ballot = { counter; value };
            prepared;
            prepared_prime = None;
            n_c;
            n_h;
          };
    }

let confirm_st node ~counter ~value ~n_prepared ~n_commit ~n_h =
  Types.
    {
      node_id = node;
      slot = 1;
      quorum_set = qset;
      pledge = Confirm { ballot = { counter; value }; n_prepared; n_commit; n_h };
    }

let ballot_tests =
  let open Alcotest in
  [
    test_case "votes from a quorum accept-prepare the ballot" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        check bool "no prepared yet" true (Ballot.prepared b = None);
        (* two peers + self vote prepare <1,X>: quorum of 3 *)
        List.iteri
          (fun i peer ->
            let r = Ballot.process_envelope b (wrap (prepare_st peer ~counter:1 ~value:"X" ())) in
            check bool (Printf.sprintf "processed %d" i) true (r = `Processed))
          [ List.nth peers 0; List.nth peers 1 ];
        (match Ballot.prepared b with
        | Some pb ->
            check int "prepared counter" 1 pb.Types.counter;
            check string "prepared value" "X" pb.Types.value
        | None -> fail "ballot not accepted prepared");
        (* progress must have been announced to peers *)
        check bool "emitted updated statements" true (List.length !(p.emitted) >= 2));
    test_case "full path to externalize from crafted statements" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        (* peers accept-prepared <1,X> and vote commit: PREPARE with
           prepared set and c/h counters *)
        List.iter
          (fun peer ->
            ignore
              (Ballot.process_envelope b
                 (wrap
                    (prepare_st peer ~counter:1 ~value:"X"
                       ~prepared:{ Types.counter = 1; value = "X" } ~n_c:1 ~n_h:1 ()))))
          peers;
        check bool "reached confirm phase" true (Ballot.phase b <> Ballot.Prepare_phase);
        (* peers now confirm the commit *)
        List.iter
          (fun peer ->
            ignore
              (Ballot.process_envelope b
                 (wrap (confirm_st peer ~counter:1 ~value:"X" ~n_prepared:1 ~n_commit:1 ~n_h:1))))
          peers;
        check (option string) "externalized X" (Some "X") (Ballot.externalized_value b);
        check bool "reported to driver" true (List.mem_assoc 1 !(p.externalized)));
    test_case "insane statements rejected" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        (* n_c > n_h is nonsense *)
        let bad = prepare_st (List.hd peers) ~counter:2 ~value:"X"
            ~prepared:{ Types.counter = 2; value = "X" } ~n_c:2 ~n_h:1 () in
        check bool "invalid" true (Ballot.process_envelope b (wrap bad) = `Invalid);
        (* counter 0 is nonsense *)
        let bad2 = prepare_st (List.hd peers) ~counter:0 ~value:"X" () in
        check bool "invalid counter" true (Ballot.process_envelope b (wrap bad2) = `Invalid));
    test_case "stale (older) statements ignored" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        let peer = List.hd peers in
        ignore (Ballot.process_envelope b (wrap (prepare_st peer ~counter:3 ~value:"X" ())));
        check bool "older ballot is stale" true
          (Ballot.process_envelope b (wrap (prepare_st peer ~counter:2 ~value:"X" ())) = `Stale));
    test_case "v-blocking set ahead forces a counter jump (§3.2.4)" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        check int "at counter 1" 1 (Option.get (Ballot.current_ballot b)).Types.counter;
        (* two peers (v-blocking for a 3-of-4 qset) jump to counter 5 *)
        ignore (Ballot.process_envelope b (wrap (prepare_st (List.nth peers 0) ~counter:5 ~value:"X" ())));
        check int "still at 1 (one peer is not blocking)" 1
          (Option.get (Ballot.current_ballot b)).Types.counter;
        ignore (Ballot.process_envelope b (wrap (prepare_st (List.nth peers 1) ~counter:5 ~value:"X" ())));
        check int "jumped to 5" 5 (Option.get (Ballot.current_ballot b)).Types.counter);
    test_case "started_ballot fires once, at the first ballot" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot ~slot:7 p in
        check (list int) "not before a ballot" [] !(p.started);
        check bool "first bump" true (Ballot.bump b ~value:"X" ~force:false);
        check (list int) "at the first ballot" [ 7 ] !(p.started);
        check bool "forced re-bump" true (Ballot.bump b ~value:"Y" ~force:true);
        check (list int) "not again" [ 7 ] !(p.started));
    test_case "ballot timer for counter n arms 1 + n seconds" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        check (list (float 0.0)) "no timer without a quorum at counter 1" [] (delays p);
        let at counter =
          List.iter
            (fun peer -> ignore (Ballot.process_envelope b (wrap (prepare_st peer ~counter ~value:"X" ()))))
            [ List.nth peers 0; List.nth peers 1 ]
        in
        at 1;
        check (list (float 0.0)) "counter 1: 2 s" [ 2.0 ] (delays p);
        fire_latest p;
        check int "timeout moved to counter 2" 2 (Option.get (Ballot.current_ballot b)).Types.counter;
        check (list (float 0.0)) "no timer until a quorum reaches counter 2" [ 2.0 ] (delays p);
        at 2;
        check (list (float 0.0)) "counter 2: 3 s" [ 2.0; 3.0 ] (delays p);
        check (list int) "started_ballot still once" [ 1 ] !(p.started));
    test_case "no commit without confirmed prepare" `Quick (fun () ->
        let p = make_probe () in
        let b = new_ballot p in
        ignore (Ballot.bump b ~value:"X" ~force:false);
        (* a single peer claiming commit must not move us past prepare *)
        ignore
          (Ballot.process_envelope b
             (wrap (confirm_st (List.hd peers) ~counter:1 ~value:"X" ~n_prepared:1 ~n_commit:1 ~n_h:1)));
        check bool "still in prepare phase" true (Ballot.phase b = Ballot.Prepare_phase);
        check bool "not externalized" true (Ballot.externalized_value b = None));
  ]

(* ---------- Byzantine behaviour over the full harness ---------- *)

let byzantine_tests =
  let open Alcotest in
  [
    test_case "equivocating nominator cannot split honest nodes" `Quick (fun () ->
        (* node 4 sends a different nomination vote to every peer *)
        let h =
          Scp_harness.make ~n:5
            ~qset_of:(fun ids _ -> Quorum_set.majority (Array.to_list ids))
            ()
        in
        let byz = h.Scp_harness.nodes.(4) in
        let forge target_value =
          let st =
            Types.
              {
                node_id = byz.Scp_harness.id;
                slot = 1;
                quorum_set = Quorum_set.majority (Array.to_list h.Scp_harness.ids);
                pledge = Nominate { votes = [ target_value ]; accepted = [] };
              }
          in
          let signature =
            Stellar_crypto.Sim_sig.sign byz.Scp_harness.secret (Types.signing_bytes st)
          in
          { Types.statement = st; signature }
        in
        (* equivocate: different value to each honest node *)
        for i = 0 to 3 do
          Stellar_sim.Network.send h.Scp_harness.network ~src:4 ~dst:i ~size:200
            (forge (Printf.sprintf "evil-%d" i))
        done;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "honest-%d" i);
        Scp_harness.run h;
        check bool "honest nodes agree" true (Scp_harness.unanimous ~except:[ 4 ] h));
    test_case "forged envelopes are rejected" `Quick (fun () ->
        let h =
          Scp_harness.make ~n:4
            ~qset_of:(fun ids _ -> Quorum_set.majority (Array.to_list ids))
            ()
        in
        let victim = h.Scp_harness.nodes.(0) in
        let attacker = h.Scp_harness.nodes.(3) in
        (* attacker signs a statement claiming to be the victim *)
        let st =
          Types.
            {
              node_id = victim.Scp_harness.id;
              slot = 1;
              quorum_set = Quorum_set.majority (Array.to_list h.Scp_harness.ids);
              pledge = Nominate { votes = [ "forged" ]; accepted = [] };
            }
        in
        let signature =
          Stellar_crypto.Sim_sig.sign attacker.Scp_harness.secret (Types.signing_bytes st)
        in
        let env = { Types.statement = st; signature } in
        let result =
          Protocol.receive_envelope h.Scp_harness.nodes.(1).Scp_harness.protocol env
        in
        check bool "rejected" true (result = `Invalid));
    test_case "byzantine ballot equivocation cannot violate safety" `Quick (fun () ->
        (* node 4 sends conflicting PREPARE statements for different values
           to different honest nodes throughout the run *)
        let h =
          Scp_harness.make ~n:5
            ~qset_of:(fun ids _ -> Quorum_set.majority (Array.to_list ids))
            ()
        in
        let byz = h.Scp_harness.nodes.(4) in
        let forge_prepare value counter =
          let st =
            Types.
              {
                node_id = byz.Scp_harness.id;
                slot = 1;
                quorum_set = Quorum_set.majority (Array.to_list h.Scp_harness.ids);
                pledge =
                  Prepare
                    {
                      ballot = { counter; value };
                      prepared = None;
                      prepared_prime = None;
                      n_c = 0;
                      n_h = 0;
                    };
              }
          in
          let signature =
            Stellar_crypto.Sim_sig.sign byz.Scp_harness.secret (Types.signing_bytes st)
          in
          { Types.statement = st; signature }
        in
        (* schedule equivocations over the first seconds *)
        for round = 1 to 5 do
          ignore
            (Stellar_sim.Engine.schedule h.Scp_harness.engine
               ~delay:(float_of_int round)
               (fun () ->
                 for i = 0 to 3 do
                   Stellar_sim.Network.send h.Scp_harness.network ~src:4 ~dst:i ~size:200
                     (forge_prepare (Printf.sprintf "evil-%d-%d" round i) round)
                 done))
        done;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "honest-%d" i);
        Scp_harness.run h;
        check bool "honest nodes agree despite equivocation" true
          (Scp_harness.unanimous ~except:[ 4 ] h));
  ]

(* ---------- randomized convergence ---------- *)

let random_convergence =
  QCheck.Test.make ~name:"random networks converge and agree" ~count:12
    QCheck.(pair (int_range 3 7) (int_bound 10_000))
    (fun (n, seed) ->
      let h =
        Scp_harness.make ~seed
          ~latency:(Stellar_sim.Latency.Uniform { lo = 0.001; hi = 0.2 })
          ~n
          ~qset_of:(fun ids _ -> Quorum_set.majority (Array.to_list ids))
          ()
      in
      Scp_harness.nominate_all h (fun i -> Printf.sprintf "v%d" i);
      Scp_harness.run ~until:600.0 h;
      Scp_harness.unanimous h)


(* ---------- nomination state machine ---------- *)

let nomination_tests =
  let open Alcotest in
  let nom_st node ~votes ~accepted =
    wrap
      Types.
        {
          node_id = node;
          slot = 1;
          quorum_set = qset;
          pledge = Nominate { votes; accepted };
        }
  in
  [
    test_case "echoes its leader's vote" `Quick (fun () ->
        let p = make_probe () in
        let candidates = ref [] in
        let n =
          Nomination.create ~slot:1 ~local_id:v_self ~get_qset:(fun () -> qset)
            ~driver:p.driver ~index:(Federation.create_index ()) ~on_candidates:(fun v -> candidates := v :: !candidates)
        in
        Nomination.nominate n ~value:"mine" ~prev:"prev";
        let leaders = Nomination.leaders n in
        check int "one leader in round 1" 1 (List.length leaders);
        let leader = List.hd leaders in
        if not (String.equal leader v_self) then begin
          (* the leader proposes; we must copy its vote *)
          ignore (Nomination.process_envelope n (nom_st leader ~votes:[ "theirs" ] ~accepted:[]));
          let own =
            List.find_opt
              (fun st -> String.equal st.Types.node_id v_self)
              (Nomination.latest_statements n)
          in
          match own with
          | Some { Types.pledge = Types.Nominate nom; _ } ->
              check bool "echoed" true (List.mem "theirs" nom.Types.votes)
          | _ -> fail "no own statement"
        end);
    test_case "quorum of votes -> accepted -> candidate" `Quick (fun () ->
        let p = make_probe () in
        let candidates = ref [] in
        let n =
          Nomination.create ~slot:1 ~local_id:v_self ~get_qset:(fun () -> qset)
            ~driver:p.driver ~index:(Federation.create_index ()) ~on_candidates:(fun v -> candidates := v :: !candidates)
        in
        Nomination.nominate n ~value:"X" ~prev:"prev";
        (* all three peers vote and accept X: quorum for both stages *)
        List.iter
          (fun peer ->
            ignore (Nomination.process_envelope n (nom_st peer ~votes:[ "X" ] ~accepted:[ "X" ])))
          peers;
        check bool "X became a candidate" true (List.mem "X" (Nomination.candidates n));
        check bool "composite reported" true (!candidates <> []));
    test_case "stops voting for new values after a candidate exists" `Quick (fun () ->
        let p = make_probe () in
        let n =
          Nomination.create ~slot:1 ~local_id:v_self ~get_qset:(fun () -> qset)
            ~driver:p.driver ~index:(Federation.create_index ()) ~on_candidates:(fun _ -> ())
        in
        Nomination.nominate n ~value:"X" ~prev:"prev";
        List.iter
          (fun peer ->
            ignore (Nomination.process_envelope n (nom_st peer ~votes:[ "X" ] ~accepted:[ "X" ])))
          peers;
        check bool "candidate exists" true (Nomination.candidates n <> []);
        (* a leader proposing a fresh value must NOT pick up our vote now *)
        let own_votes () =
          match
            List.find_opt
              (fun st -> String.equal st.Types.node_id v_self)
              (Nomination.latest_statements n)
          with
          | Some { Types.pledge = Types.Nominate nom; _ } -> nom.Types.votes
          | _ -> []
        in
        let before = own_votes () in
        List.iter
          (fun peer ->
            ignore
              (Nomination.process_envelope n (nom_st peer ~votes:[ "X"; "Z" ] ~accepted:[ "X" ])))
          [ List.hd peers ];
        check bool "no new plain votes" true
          (List.length (own_votes ()) <= List.length before + 0
          || not (List.mem "Z" (own_votes ())));
        check bool "Z not voted" true (not (List.mem "Z" (own_votes ()))));
    test_case "nomination round r arms 1 + r seconds" `Quick (fun () ->
        let p = make_probe () in
        let n =
          Nomination.create ~slot:1 ~local_id:v_self ~get_qset:(fun () -> qset)
            ~driver:p.driver ~index:(Federation.create_index ()) ~on_candidates:(fun _ -> ())
        in
        Nomination.nominate n ~value:"X" ~prev:"prev";
        check (list (float 0.0)) "round 1: 2 s" [ 2.0 ] (delays p);
        fire_latest p;
        check (list (float 0.0)) "round 2 after the timeout: 3 s" [ 2.0; 3.0 ] (delays p));
    test_case "malformed nominations rejected" `Quick (fun () ->
        let p = make_probe () in
        let n =
          Nomination.create ~slot:1 ~local_id:v_self ~get_qset:(fun () -> qset)
            ~driver:p.driver ~index:(Federation.create_index ()) ~on_candidates:(fun _ -> ())
        in
        Nomination.nominate n ~value:"X" ~prev:"prev";
        (* unsorted votes *)
        check bool "unsorted" true
          (Nomination.process_envelope n (nom_st (List.hd peers) ~votes:[ "b"; "a" ] ~accepted:[])
          = `Invalid);
        (* duplicate votes *)
        check bool "dup" true
          (Nomination.process_envelope n (nom_st (List.hd peers) ~votes:[ "a"; "a" ] ~accepted:[])
          = `Invalid);
        (* empty statement *)
        check bool "empty" true
          (Nomination.process_envelope n (nom_st (List.hd peers) ~votes:[] ~accepted:[])
          = `Invalid));
  ]

(* ---------- §3.2.5 leader fairness: the Europe/China example ---------- *)

let fairness_tests =
  let open Alcotest in
  [
    test_case "leader frequency tracks slice weight" `Quick (fun () ->
        (* an imbalanced configuration: org A contributes 2 of 4 entries via
           a 1-of-10 inner set (each A node has weight 2/4 * 1/10 = 1/20),
           while heavy nodes x,y are direct members (weight 2/4 = 1/2).
           Without weighting, A's 10 nodes would win most rounds. *)
        let a_nodes = List.init 10 (fun i -> id (Char.chr (Char.code 'a' + i))) in
        let x = String.make 32 'X' and y = String.make 32 'Y' in
        let inner = Quorum_set.make ~threshold:1 a_nodes in
        let q = Quorum_set.make ~threshold:2 ~inner:[ inner ] [ x; y ] in
        let heavy = ref 0 and light = ref 0 in
        let trials = 400 in
        for slot = 1 to trials do
          let leader = Leader.round_leader ~qset:q ~self:x ~slot ~prev:"p" ~round:1 in
          if String.equal leader x || String.equal leader y then incr heavy else incr light
        done;
        (* heavy nodes hold 2*(1/2) = 1.0 expected weight vs 10*(1/20) = 0.5:
           they should lead roughly 2/3 of the time *)
        let frac = float_of_int !heavy /. float_of_int trials in
        check bool
          (Printf.sprintf "heavy fraction %.2f in [0.5, 0.85]" frac)
          true
          (frac > 0.5 && frac < 0.85));
  ]

(* ---------- unilateral reconfiguration (§3.1.1) ---------- *)

let reconfiguration_tests =
  let open Alcotest in
  [
    test_case "a re-announced quorum set unblocks peers' ballots" `Quick (fun () ->
        (* Node 0 first trusts all four nodes, nodes 1 and 2 trust 3-of-{0,1,2},
           and node 3's ballot statements never arrive: every quorum of 0, 1
           and 2 contains node 0, whose slice needs node 3, so balloting
           blocks.  Node 0 then drops node 3 from its slices. *)
        let old_qset ids = Quorum_set.make ~threshold:4 (Array.to_list ids) in
        let new_qset ids = Quorum_set.make ~threshold:3 [ ids.(0); ids.(1); ids.(2) ] in
        let h =
          Scp_harness.make ~n:4
            ~qset_of:(fun ids i ->
              if i = 0 then old_qset ids
              else if i = 3 then Quorum_set.majority (Array.to_list ids)
              else new_qset ids)
            ()
        in
        let ids = h.Scp_harness.ids in
        let is_ballot env =
          match env.Types.statement.Types.pledge with Types.Nominate _ -> false | _ -> true
        in
        (* what node 1 made of node 0's ballot statements: (set, pledge, result) *)
        let from_0 = ref [] in
        for i = 0 to 2 do
          let node = h.Scp_harness.nodes.(i) in
          Stellar_sim.Network.set_handler h.Scp_harness.network i (fun ~src ~info:_ env ->
              if not (src = 3 && is_ballot env) then begin
                let r = Protocol.receive_envelope node.Scp_harness.protocol env in
                let st = env.Types.statement in
                if i = 1 && src = 0 && is_ballot env then
                  from_0 := (st.Types.quorum_set, st.Types.pledge, r) :: !from_0
              end)
        done;
        Scp_harness.nominate_all h (fun i -> Printf.sprintf "value-%d" i);
        Scp_harness.run ~until:5.0 h;
        check bool "node 1 holds a ballot statement from node 0" true (!from_0 <> []);
        Array.iteri
          (fun i dec -> if i < 3 then check bool (Printf.sprintf "node %d blocked" i) true (dec = None))
          (Scp_harness.decisions h);
        let _, blocked_pledge, _ = List.hd !from_0 in
        Protocol.set_quorum_set h.Scp_harness.nodes.(0).Scp_harness.protocol (new_qset ids);
        Scp_harness.run ~until:60.0 h;
        (match List.rev !from_0 |> List.find_opt (fun (q, _, _) -> q = new_qset ids) with
        | Some (_, pledge, r) ->
            check bool "re-announced with the same pledge" true (pledge = blocked_pledge);
            check bool "recorded by node 1" true (r = `Processed)
        | None -> fail "node 0 did not re-announce its ballot under the new set");
        check bool "nodes 0-2 decide" true (Scp_harness.unanimous ~except:[ 3 ] h));
  ]

let () =
  Alcotest.run "scp-adversarial"
    [
      ("ballot-machine", ballot_tests);
      ("nomination-machine", nomination_tests);
      ("leader-fairness", fairness_tests);
      ("byzantine", byzantine_tests);
      ("reconfiguration", reconfiguration_tests);
      ("random", [ QCheck_alcotest.to_alcotest random_convergence ]);
    ]
