(* Fault injection & crash recovery: the Scenario fault interpreter, the
   Validator crash/restart path (archive catchup + straggler help), and the
   regression tests for the flood/dedup/busy-time fixes that rode along. *)

open Stellar_node

let scheme =
  (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string)

let payment ~accounts ~seqs i =
  let j = (i + 1) mod Array.length accounts in
  let src = accounts.(i) and dst = accounts.(j) in
  seqs.(i) <- seqs.(i) + 1;
  let tx =
    Stellar_ledger.Tx.make ~source:src.Genesis.public ~seq_num:seqs.(i)
      [
        Stellar_ledger.Tx.op
          (Stellar_ledger.Tx.Payment
             {
               destination = dst.Genesis.public;
               asset = Stellar_ledger.Asset.native;
               amount = 100;
             });
      ]
  in
  Stellar_ledger.Tx.sign tx ~secret:src.Genesis.secret ~public:src.Genesis.public ~scheme

let scenario_with_faults ?(n = 5) ?(duration = 45.0) ?(rate = 4.0) ?(seed = 21) faults =
  Scenario.run
    {
      (Scenario.default ~spec:(Topology.all_to_all ~n)) with
      Scenario.n_accounts = 50;
      tx_rate = rate;
      duration;
      seed;
      observe = true;
      faults;
    }

let trace_of r =
  match r.Scenario.telemetry with
  | Some c -> Stellar_obs.Collector.trace c
  | None -> Alcotest.fail "scenario ran without telemetry"

(* ---------- fault schedule validation ---------- *)

let validate_tests =
  let open Alcotest in
  let ok s = Result.is_ok (Fault.validate ~n_nodes:4 s) in
  [
    test_case "well-formed schedule accepted" `Quick (fun () ->
        check bool "ok" true
          (ok
             [
               Fault.Crash { node = 1; at = 5.0 };
               Fault.Restart { node = 1; at = 10.0 };
               Fault.Loss { rate = 0.1; from_ = 2.0; until_ = 4.0 };
               Fault.Partition { at = 12.0; groups = [ (0, 0); (1, 0); (2, 1); (3, 1) ] };
               Fault.Heal { at = 20.0 };
               Fault.Reflood { node = 0; at = 15.0; copies = 3 };
             ]));
    test_case "malformed schedules rejected" `Quick (fun () ->
        check bool "node out of range" false (ok [ Fault.Crash { node = 9; at = 1.0 } ]);
        check bool "negative time" false (ok [ Fault.Crash { node = 0; at = -1.0 } ]);
        check bool "restart without crash" false (ok [ Fault.Restart { node = 0; at = 5.0 } ]);
        check bool "double crash" false
          (ok [ Fault.Crash { node = 0; at = 1.0 }; Fault.Crash { node = 0; at = 2.0 } ]);
        check bool "restart before crash in time" false
          (ok [ Fault.Crash { node = 0; at = 9.0 }; Fault.Restart { node = 0; at = 5.0 } ]);
        check bool "loss rate > 1" false
          (ok [ Fault.Loss { rate = 1.5; from_ = 0.0; until_ = 1.0 } ]);
        check bool "empty loss window" false
          (ok [ Fault.Loss { rate = 0.1; from_ = 3.0; until_ = 3.0 } ]);
        check bool "partition missing nodes" false
          (ok [ Fault.Partition { at = 1.0; groups = [ (0, 0); (1, 1) ] } ]);
        check bool "partition duplicate node" false
          (ok [ Fault.Partition { at = 1.0; groups = [ (0, 0); (0, 1); (2, 0); (3, 0) ] } ]);
        check bool "zero reflood copies" false
          (ok [ Fault.Reflood { node = 0; at = 1.0; copies = 0 } ]));
    test_case "scenario rejects invalid schedule" `Quick (fun () ->
        match scenario_with_faults ~duration:1.0 [ Fault.Restart { node = 0; at = 1.0 } ] with
        | exception Failure _ -> ()
        | _ -> fail "invalid schedule accepted");
  ]

(* ---------- crash / restart round trip ---------- *)

let recovery_tests =
  let open Alcotest in
  [
    test_case "crashed validator rejoins via archive catchup and converges" `Quick
      (fun () ->
        let r =
          scenario_with_faults
            [
              Fault.Crash { node = 4; at = 8.0 };
              Fault.Restart { node = 4; at = 22.0 };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        check bool "not diverged" false r.Scenario.diverged;
        (* the restarted node's closes, before the crash and after the
           catch-up, all agreed with the others' ([not diverged] above) *)
        let c4 = List.assoc 4 r.Scenario.chains and c0 = List.assoc 0 r.Scenario.chains in
        let common = min (List.length c4) (List.length c0) in
        check bool "closed ledgers" true (common > 5);
        (* catch-up events were traced, one for each restart or live
           catch-up of node 4; the restart's names the archive's last
           checkpoint (every 4th ledger) at or below the newest ledger
           closed when node 4 came back, and replays from it to that one *)
        let trace = trace_of r in
        let counter name =
          Stellar_obs.Registry.counter_value
            (Stellar_obs.Collector.registry (Option.get r.Scenario.telemetry) 4)
            name
        in
        let crash = ref 0 and restart = ref 0 and catchups = ref [] in
        let tip = ref 0 and tip_at_restart = ref 0 in
        Stellar_obs.Trace.iter trace (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Apply_end { slot; _ } -> tip := max !tip slot
            | _ when s.Stellar_obs.Trace.node <> 4 -> ()
            | Stellar_obs.Event.Node_crash -> incr crash
            | Stellar_obs.Event.Node_restart ->
                incr restart;
                tip_at_restart := !tip
            | Stellar_obs.Event.Catchup_done { from_seq; to_seq; replayed } ->
                catchups := (from_seq, to_seq, replayed) :: !catchups
            | _ -> ());
        check int "one crash" 1 !crash;
        check int "one restart" 1 !restart;
        check int "a catch-up per restart or live catch-up"
          (counter "fault.restarts" + counter "archive.live_catchups")
          (List.length !catchups);
        let checkpoint = !tip_at_restart / 4 * 4 in
        check bool "restarted past a checkpoint" true (checkpoint > 0);
        check (triple int int int) "restart caught up from the last checkpoint"
          (checkpoint, !tip_at_restart, !tip_at_restart - checkpoint)
          (List.hd (List.rev !catchups));
        (* the recovery report pairs it all up with a finite time-to-recover *)
        match Stellar_obs.Report.recoveries ~interval:5.0 trace with
        | [ rc ] ->
            check int "node" 4 rc.Stellar_obs.Report.rec_node;
            check bool "resynced" true (rc.Stellar_obs.Report.recover_s <> None);
            check bool "recovered quickly" true
              (Option.get rc.Stellar_obs.Report.recover_s < 15.0)
        | l -> fail (Printf.sprintf "expected 1 recovery, got %d" (List.length l)));
    test_case "partition heals and the minority converges" `Quick (fun () ->
        let r =
          scenario_with_faults ~duration:50.0
            [
              Fault.Partition
                { at = 10.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1) ] };
              Fault.Heal { at = 25.0 };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        let trace = trace_of r in
        match Stellar_obs.Report.heals ~interval:5.0 trace with
        | [ h ] ->
            check (list int) "lagged minority" [ 3; 4 ]
              (List.map fst h.Stellar_obs.Report.lagged |> List.sort compare);
            check bool "all resynced" true (h.Stellar_obs.Report.heal_recover_s <> None)
        | l -> fail (Printf.sprintf "expected 1 heal, got %d" (List.length l)));
    test_case "a minority split past the horizon catches up from the archive" `Quick (fun () ->
        (* a 3-2 split of 100 s (~20 ledgers) leaves the minority further
           behind than any peer's slot horizon reaches, so straggler help
           cannot walk it forward: it catches up from the run's archive
           while running, keeps its queued payments and re-floods them
           once it closes in step, so every payment has applied 40 s after
           the heal.  With nodes 0 and 1 split off for 200 s (~40 ledgers),
           the archive grows from the majority's closes. *)
        let split ~minority ~secs ~tail =
          scenario_with_faults ~duration:(10.0 +. secs +. tail)
            [
              Fault.Partition
                {
                  at = 10.0;
                  groups = List.init 5 (fun i -> (i, if List.mem i minority then 1 else 0));
                };
              Fault.Heal { at = 10.0 +. secs };
            ]
        in
        let live r i =
          Stellar_obs.Registry.counter_value
            (Stellar_obs.Collector.registry (Option.get r.Scenario.telemetry) i)
            "archive.live_catchups"
        in
        let r = split ~minority:[ 3; 4 ] ~secs:100.0 ~tail:40.0 in
        check bool "converged" true r.Scenario.converged;
        check bool "not diverged" false r.Scenario.diverged;
        check (list bool) "only the minority caught up from the archive"
          [ false; false; false; true; true ]
          (List.init 5 (fun i -> live r i > 0));
        check int "every payment applied" r.Scenario.txs_submitted r.Scenario.txs_applied;
        let r = split ~minority:[ 0; 1 ] ~secs:200.0 ~tail:40.0 in
        check bool "node 0 split off: converged" true r.Scenario.converged;
        check bool "node 0 split off: not diverged" false r.Scenario.diverged;
        check (list bool) "node 0 split off: the minority caught up from the archive"
          [ true; true; false; false; false ]
          (List.init 5 (fun i -> live r i > 0)));
    test_case "a split brain is flagged as diverged" `Quick (fun () ->
        (* two 3-node cliques, each trusting only a majority of itself, split
           at 3 s: each side closes its own ledgers at the same seqs, and the
           online agreement check must catch the first conflicting close *)
        let spec = Topology.all_to_all ~n:6 in
        let ids = Topology.node_ids spec in
        let clique lo = Scp.Quorum_set.majority [ ids.(lo); ids.(lo + 1); ids.(lo + 2) ] in
        let spec = { spec with Topology.qset_of = (fun i -> clique (if i < 3 then 0 else 3)) } in
        let r =
          Scenario.run
            {
              (Scenario.default ~spec) with
              Scenario.tx_rate = 5.0;
              duration = 20.0;
              faults =
                [
                  Fault.Partition
                    { at = 3.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 1); (4, 1); (5, 1) ] };
                ];
            }
        in
        check bool "diverged" true r.Scenario.diverged;
        check bool "not converged" false r.Scenario.converged);
    test_case "reflooding Byzantine peer wastes bytes but cannot stall" `Quick (fun () ->
        let r =
          scenario_with_faults ~duration:30.0
            [ Fault.Reflood { node = 1; at = 12.0; copies = 5 } ]
        in
        check bool "converged" true r.Scenario.converged;
        (* peers absorbed the copies in their dedup tables *)
        let dups = ref 0 in
        Stellar_obs.Trace.iter (trace_of r) (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Dedup_drop _ -> incr dups
            | _ -> ());
        check bool "duplicates dropped" true (!dups > 0));
    test_case "a node three ledgers behind closes its backlog from one answer" `Quick
      (fun () ->
        (* node 4 is cut off for three ledger intervals, well inside the
           horizon: once it hears the network again, the ledgers it missed
           all close from its peers' one answer, within one interval of the
           heal, not one ledger per help round *)
        let heal = 26.0 in
        let r =
          scenario_with_faults ~duration:45.0
            [
              Fault.Partition
                { at = 11.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1) ] };
              Fault.Heal { at = heal };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        let closes = Array.make 5 [] and asks = ref 0 in
        Stellar_obs.Trace.iter (trace_of r) (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Apply_end { slot; _ } ->
                let n = s.Stellar_obs.Trace.node in
                closes.(n) <- (slot, s.Stellar_obs.Trace.time) :: closes.(n)
            | Stellar_obs.Event.Flood_send { kind = "getscpstate"; _ } -> incr asks
            | _ -> ());
        check int "one request to each of node 4's peers" 4 !asks;
        let closed_before n t = List.filter (fun (_, at) -> at < t) closes.(n) in
        let missed =
          List.filter
            (fun (slot, _) -> not (List.mem_assoc slot (closed_before 4 heal)))
            (closed_before 0 heal)
        in
        check bool
          (Printf.sprintf "three or more ledgers behind (%d)" (List.length missed))
          true
          (List.length missed >= 3);
        let backlog = List.map (fun (slot, _) -> List.assoc slot closes.(4)) missed in
        let first = List.fold_left Float.min infinity backlog
        and last = List.fold_left Float.max neg_infinity backlog in
        check bool
          (Printf.sprintf "backlog closed within an interval of the heal (%.3f s)" (last -. heal))
          true
          (last -. heal <= 5.0);
        check bool
          (Printf.sprintf "backlog closed together (%.3f s apart)" (last -. first))
          true
          (last -. first < 0.5));
    test_case "a laggard the quorum needs rejoins when a peer crashes for good" `Quick
      (fun () ->
        (* four validators, any three a quorum: node 3 is cut off for three
           ledger intervals, and node 2 crashes at the heal and stays down.
           Nodes 0 and 1 cannot decide another slot without node 3, and node 3
           hears no externalize to ask on: their envelopes for a slot past
           its next one must make it ask for the closes it missed *)
        let heal = 26.0 in
        let r =
          scenario_with_faults ~n:4 ~duration:60.0
            [
              Fault.Partition { at = 11.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 1) ] };
              Fault.Heal { at = heal };
              Fault.Crash { node = 2; at = heal };
            ]
        in
        check bool "converged" true r.Scenario.converged;
        check bool "not diverged" false r.Scenario.diverged;
        let after = ref [] in
        Stellar_obs.Trace.iter (trace_of r) (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Apply_end { slot; _ }
              when s.Stellar_obs.Trace.node = 0 && s.Stellar_obs.Trace.time > heal ->
                after := slot :: !after
            | _ -> ());
        check bool
          (Printf.sprintf "node 0 kept closing after the heal (%d closes)" (List.length !after))
          true
          (List.length !after >= 4));
  ]

(* ---------- satellite regressions ---------- *)

(* Four validators and two spies (nodes 4 and 5) peered only with node 0,
   run past node 0's slot horizon and stopped.  Returns node 0's herder, its
   registry, and [ask spies from]: each spy sends node 0 a
   [Get_scp_state from], and the count of messages each spy got back,
   5 s of simulated time later. *)
let spied_network () =
  let k = Stellar_herder.Herder.slots_to_remember in
  let spec = Topology.all_to_all ~n:4 in
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:9 in
  let network =
    Stellar_sim.Network.create ~engine ~rng ~n:6 ~latency:Stellar_sim.Latency.datacenter ()
  in
  let genesis, _ = Genesis.make ~n_accounts:10 () in
  let registry = Stellar_obs.Registry.create () in
  let obs = Stellar_obs.Sink.make ~node:0 ~now:(fun () -> Stellar_sim.Engine.now engine) registry in
  let mk i =
    Validator.create ~network ~index:i
      ~peers:(spec.Topology.peers_of i @ if i = 0 then [ 4; 5 ] else [])
      ~config:
        (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
           ~qset:(spec.Topology.qset_of i))
      ~genesis
      ?obs:(if i = 0 then Some obs else None)
      ()
  in
  let vs = Array.init 4 mk in
  let received = Array.make 6 0 in
  List.iter
    (fun spy ->
      Stellar_sim.Network.set_handler network spy (fun ~src:_ ~info:_ _ ->
          received.(spy) <- received.(spy) + 1))
    [ 4; 5 ];
  Array.iter Validator.start vs;
  Stellar_sim.Engine.run ~until:(float_of_int (5 * (k + 6))) engine;
  Array.iter Validator.stop vs;
  Stellar_sim.Engine.run ~until:(float_of_int ((5 * (k + 6)) + 10)) engine;
  let ask spies from =
    let w = Message.wire (Message.Get_scp_state from) in
    List.iter
      (fun spy ->
        received.(spy) <- 0;
        Stellar_sim.Network.send network ~src:spy ~dst:0 ~size:w.size w)
      spies;
    (* the clock stops at the last event: one 5 s on moves it on *)
    ignore (Stellar_sim.Engine.schedule engine ~delay:5.0 ignore);
    Stellar_sim.Engine.run ~until:(Stellar_sim.Engine.now engine +. 5.0) engine;
    List.map (fun spy -> received.(spy)) spies
  in
  (Validator.herder vs.(0), registry, ask)

let regression_tests =
  let open Alcotest in
  [
    test_case "down node accrues no busy time (restart sees idle CPU)" `Quick (fun () ->
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:5 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:2
            ~latency:(Stellar_sim.Latency.Constant 0.001)
            ~processing:(fun _ -> 0.5)
            ()
        in
        let waits = ref [] in
        Stellar_sim.Network.set_handler network 1 (fun ~src:_ ~info _ ->
            waits := info.Stellar_sim.Network.wait_s :: !waits);
        Stellar_sim.Network.set_down network 1 true;
        (* five messages arrive while node 1 is down: without the fix each
           would advance its CPU queue by 0.5s even though none is
           delivered *)
        for _ = 1 to 5 do
          Stellar_sim.Network.send network ~src:0 ~dst:1 ~size:100 ()
        done;
        Stellar_sim.Engine.run ~until:1.0 engine;
        check int "nothing delivered while down" 0 (List.length !waits);
        Stellar_sim.Network.set_down network 1 false;
        Stellar_sim.Network.send network ~src:0 ~dst:1 ~size:100 ();
        Stellar_sim.Engine.run ~until:3.0 engine;
        match !waits with
        | [ w ] -> check bool "no phantom backlog" true (w < 1e-9)
        | l -> fail (Printf.sprintf "expected 1 delivery, got %d" (List.length l)));
    test_case "flood forwards the origin's wire record" `Quick (fun () ->
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:6 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:3
            ~latency:(Stellar_sim.Latency.Constant 0.001) ()
        in
        let genesis, accounts = Genesis.make ~n_accounts:4 () in
        let spec = Topology.all_to_all ~n:3 in
        let qset = Scp.Quorum_set.majority (Array.to_list (Topology.node_ids spec)) in
        (* a line 0 - 1 - 2 of which only 0 and 1 are validators: node 2 is a
           spy recording what node 1 forwards *)
        let mk i ~peers =
          Validator.create ~network ~index:i ~peers
            ~config:
              {
                (Stellar_herder.Herder.default_config
                   ~seed:(spec.Topology.validator_seed i) ~qset)
                with
                Stellar_herder.Herder.is_validator = false;
              }
            ~genesis ()
        in
        let v0 = mk 0 ~peers:[ 1 ] in
        ignore (mk 1 ~peers:[ 0; 2 ]);
        let received = ref [] in
        Stellar_sim.Network.set_handler network 2 (fun ~src ~info:_ w ->
            received := (src, w) :: !received);
        let seqs = Array.make 4 0 in
        let signed = payment ~accounts ~seqs 0 in
        Validator.submit_tx v0 signed;
        Stellar_sim.Engine.run ~until:1.0 engine;
        let expected = Message.wire (Message.Tx_msg signed) in
        match !received with
        | [ (src, w) ] ->
            check int "forwarded by node 1" 1 src;
            check bool "same message" true (w.Message.msg = Message.Tx_msg signed);
            check string "same id" expected.Message.id w.Message.id;
            check int "same size" expected.Message.size w.Message.size
        | l -> fail (Printf.sprintf "expected 1 delivery at node 2, got %d" (List.length l)));
    test_case "flood dedup table stays bounded (entries expire with slots)" `Quick
      (fun () ->
        let spec = Topology.all_to_all ~n:4 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:7 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:4
            ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, accounts = Genesis.make ~n_accounts:20 () in
        let mk i =
          Validator.create ~network ~index:i
            ~peers:(spec.Topology.peers_of i)
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
                 ~qset:(spec.Topology.qset_of i))
            ~genesis ()
        in
        let vs = Array.init 4 mk in
        Array.iter Validator.start vs;
        let seqs = Array.make 20 0 in
        let sent = ref 0 in
        let rec load () =
          if Stellar_sim.Engine.now engine < 115.0 then begin
            Validator.submit_tx vs.(!sent mod 4) (payment ~accounts ~seqs (!sent mod 20));
            incr sent;
            ignore (Stellar_sim.Engine.schedule engine ~delay:0.4 load)
          end
        in
        ignore (Stellar_sim.Engine.schedule engine ~delay:0.2 load);
        Stellar_sim.Engine.run ~until:120.0 engine;
        Array.iter Validator.stop vs;
        (* ~24 ledgers, ~290 submitted txs: an unbounded table would hold
           every envelope/tx/txset ever flooded (>500 entries); expiry keeps
           only the last few slots' worth *)
        check bool "made progress" true
          (Stellar_herder.Herder.ledger_seq (Validator.herder vs.(0)) >= 20);
        Array.iter
          (fun v ->
            let sz = Validator.seen_size v in
            check bool (Printf.sprintf "node %d seen table bounded (%d)" (Validator.index v) sz)
              true (sz < 200))
          vs);
    test_case "herder tx sets and waiting envelopes expire with slots" `Quick (fun () ->
        let spec = Topology.all_to_all ~n:4 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:4
            ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let mk i =
          Validator.create ~network ~index:i
            ~peers:(spec.Topology.peers_of i)
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
                 ~qset:(spec.Topology.qset_of i))
            ~genesis ()
        in
        let vs = Array.init 4 mk in
        let h0 = Validator.herder vs.(0) in
        (* a nomination for [slot] whose tx set is never flooded: the herder
           holds it until the set arrives *)
        let orphan slot =
          let value =
            Stellar_herder.Value.encode
              {
                Stellar_herder.Value.tx_set_hash =
                  Stellar_crypto.Sha256.digest (Printf.sprintf "never flooded %d" slot);
                close_time = 1;
                upgrades = [];
              }
          in
          {
            Scp.Types.statement =
              {
                node_id = (Topology.node_ids spec).(1);
                slot;
                quorum_set = spec.Topology.qset_of 1;
                pledge = Nominate { votes = [ value ]; accepted = [] };
              };
            signature = "";
          }
        in
        Array.iter Validator.start vs;
        Stellar_herder.Herder.receive_envelope h0 (orphan 2);
        check int "one envelope waiting" 1 (snd (Stellar_herder.Herder.table_sizes h0));
        (* past the horizon, then twice as far (a ledger every ~5 s) *)
        let k = Stellar_herder.Herder.slots_to_remember in
        Stellar_sim.Engine.run ~until:(float_of_int (5 * (k + 4))) engine;
        let past, _ = Stellar_herder.Herder.table_sizes h0 in
        Stellar_sim.Engine.run ~until:(float_of_int (10 * (k + 4))) engine;
        let seq = Stellar_herder.Herder.ledger_seq h0 in
        check bool
          (Printf.sprintf "closed %d+ ledgers (%d)" (2 * (k + 2)) seq)
          true
          (seq >= 2 * (k + 2));
        Stellar_herder.Herder.receive_envelope h0 (orphan (seq + 1));
        (* one for a slot already behind the horizon does not wait at all *)
        Stellar_herder.Herder.receive_envelope h0 (orphan (seq - k - 1));
        let tx_sets, waiting = Stellar_herder.Herder.table_sizes h0 in
        (* the sets of the k + 2 slots the herder keeps (here one set a
           slot: the idle validators build the same empty set), not one a
           ledger *)
        check bool
          (Printf.sprintf "tx sets flat: %d past the horizon, %d after %d" past tx_sets seq)
          true
          (tx_sets <= past + 2 && tx_sets <= 4 * (k + 2));
        check int "the old envelopes expired or were dropped, the current one waits" 1 waiting);
    test_case "straggler help reaches back to the horizon and no further" `Quick (fun () ->
        let k = Stellar_herder.Herder.slots_to_remember in
        let h0, registry, ask = spied_network () in
        let seq = Stellar_herder.Herder.ledger_seq h0 in
        check bool (Printf.sprintf "closed %d+ ledgers (%d)" (k + 3) seq) true (seq > k + 2);
        let envs, tx_sets = Stellar_herder.Herder.help_straggler h0 ~from:(seq - k) in
        check (list int) "envelopes for every slot held"
          (List.init (k + 1) (( + ) (seq - k)))
          (List.sort_uniq compare
             (List.map (fun (e : Scp.Types.envelope) -> e.statement.slot) envs));
        check int "one externalized tx set a slot" (k + 1) (List.length tx_sets);
        check bool "nothing below the horizon" true
          (Stellar_herder.Herder.help_straggler h0 ~from:(seq - k - 1) = (envs, tx_sets));
        check bool "nothing past the last close" true
          (Stellar_herder.Herder.help_straggler h0 ~from:(seq + 1) = ([], []));
        let counted () = Stellar_obs.Registry.counter_value registry "flood.straggler_helped" in
        let before = counted () in
        check (list int) "nothing sent for a seq not closed" [ 0 ] (ask [ 4 ] (seq + 1));
        check int "nor counted" before (counted ());
        let help = List.length envs + List.length tx_sets in
        check (list int) "a purged seq gets the oldest seq held's help" [ help ]
          (ask [ 4 ] (seq - k - 1));
        check (list int) "the oldest seq held gets its help" [ help ] (ask [ 4 ] (seq - k));
        check int "each answer counted once" (before + 2) (counted ()));
    test_case "two peers asking for the same seq are both answered" `Quick (fun () ->
        let h0, registry, ask = spied_network () in
        let seq = Stellar_herder.Herder.ledger_seq h0 in
        let envs, tx_sets = Stellar_herder.Herder.help_straggler h0 ~from:(seq - 2) in
        let help = List.length envs + List.length tx_sets in
        check bool "three slots of help" true (help > 3);
        (* the two requests are the same bytes, sent at the same instant *)
        check (list int) "both spies get the help" [ help; help ] (ask [ 4; 5 ] (seq - 2));
        check int "both answers counted" 2
          (Stellar_obs.Registry.counter_value registry "flood.straggler_helped"));
    test_case "a peer asking again at once is answered once" `Quick (fun () ->
        let h0, registry, ask = spied_network () in
        let seq = Stellar_herder.Herder.ledger_seq h0 in
        let envs, tx_sets = Stellar_herder.Herder.help_straggler h0 ~from:(seq - 2) in
        let help = List.length envs + List.length tx_sets in
        (* spy 4 sends its request twice at the same instant: [ask] counts
           what it got back once per send *)
        check (list int) "one answer's worth received" [ help; help ] (ask [ 4; 4 ] (seq - 2));
        check int "one answer counted" 1
          (Stellar_obs.Registry.counter_value registry "flood.straggler_helped");
        check (list int) "answered again an interval later" [ help ] (ask [ 4 ] (seq - 2)));
    test_case "a verified envelope past the next slot asks, once an interval" `Quick
      (fun () ->
        (* node 0 alone, with a spy (node 1) as its one peer: envelopes for a
           slot past its next one make it ask the spy for the slots between,
           unless the signature fails, and not twice within an interval *)
        let spec = Topology.all_to_all ~n:1 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:2 ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let v =
          Validator.create ~network ~index:0 ~peers:[ 1 ]
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
                 ~qset:(spec.Topology.qset_of 0))
            ~genesis ()
        in
        let asked = ref [] in
        Stellar_sim.Network.set_handler network 1 (fun ~src:_ ~info:_ w ->
            match w.Message.msg with
            | Message.Get_scp_state from -> asked := from :: !asked
            | _ -> ());
        let secret, peer =
          Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest "peer")
        in
        let seq = Stellar_herder.Herder.ledger_seq (Validator.herder v) in
        let signed st = Stellar_crypto.Sim_sig.sign secret (Scp.Types.signing_bytes st) in
        let send ?(signature = signed) slot =
          let statement =
            {
              Scp.Types.node_id = peer;
              slot;
              quorum_set = spec.Topology.qset_of 0;
              pledge = Nominate { votes = [ "v" ]; accepted = [] };
            }
          in
          let w =
            Message.wire (Message.Envelope { Scp.Types.statement; signature = signature statement })
          in
          Stellar_sim.Network.send network ~src:1 ~dst:0 ~size:w.size w;
          Stellar_sim.Engine.run engine;
          !asked
        in
        check (list int) "a forged one asks nothing" []
          (send ~signature:(fun _ -> Stellar_crypto.Sim_sig.sign secret "other") (seq + 3));
        check (list int) "a signed one asks from the next ledger" [ seq + 1 ] (send (seq + 3));
        check (list int) "another at once asks nothing more" [ seq + 1 ] (send (seq + 4)));
    test_case "a fault-free run asks for no help" `Quick (fun () ->
        let r = scenario_with_faults ~n:4 ~duration:30.0 [] in
        check bool "converged" true r.Scenario.converged;
        let asks = ref 0 in
        Stellar_obs.Trace.iter (trace_of r) (fun s ->
            match s.Stellar_obs.Trace.event with
            | Stellar_obs.Event.Flood_send { kind = "getscpstate"; _ } -> incr asks
            | _ -> ());
        check int "no Get_scp_state sent" 0 !asks;
        check int "no help counted" 0
          (Stellar_obs.Registry.counter_value
             (Stellar_obs.Collector.aggregate (Option.get r.Scenario.telemetry))
             "flood.straggler_helped"));
    test_case "a caught-up herder keeps its quorum set and queue" `Quick (fun () ->
        (* one self-trusting validator closes a few ledgers: its last close
           stands in for an archive catch-up.  Node 1 of a 2-node network
           reconfigures to trust itself alone, queues a payment, and is
           caught up to that ledger: the new herder must close the next
           ledger alone, on the caught-up tip, with the payment. *)
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, accounts = Genesis.make ~n_accounts:10 () in
        let solo = Topology.all_to_all ~n:1 in
        let last = ref None in
        let v =
          Validator.create ~network ~index:0 ~peers:[]
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(solo.Topology.validator_seed 0)
                 ~qset:(solo.Topology.qset_of 0))
            ~genesis
            ~on_ledger_closed:(fun stats -> last := Some stats)
            ()
        in
        Validator.start v;
        Stellar_sim.Engine.run ~until:20.0 engine;
        Validator.stop v;
        let stats = Option.get !last in
        let tip = stats.Stellar_herder.Herder.header in
        let caught =
          (Stellar_herder.Herder.state (Validator.herder v), stats.Stellar_herder.Herder.buckets, tip)
        in
        let pair = Topology.all_to_all ~n:2 in
        let closed = ref [] and qsets = ref [] in
        let cb =
          {
            Stellar_herder.Herder.broadcast_envelope =
              (fun env -> qsets := env.Scp.Types.statement.Scp.Types.quorum_set :: !qsets);
            broadcast_tx_set = (fun _ -> ());
            broadcast_tx = (fun _ -> ());
            schedule =
              (fun ~delay f ->
                let ev = Stellar_sim.Engine.schedule engine ~delay f in
                fun () -> Stellar_sim.Engine.cancel ev);
            now = (fun () -> Stellar_sim.Engine.now engine);
            on_ledger_closed = (fun stats -> closed := stats :: !closed);
            fell_behind = (fun () -> ());
            request_scp_state = (fun _ -> ());
          }
        in
        let h =
          Stellar_herder.Herder.create
            (Stellar_herder.Herder.default_config ~seed:(pair.Topology.validator_seed 1)
               ~qset:(pair.Topology.qset_of 1))
            cb ~genesis ~memo:(Stellar_herder.Herder.memo ()) ()
        in
        let alone = Scp.Quorum_set.majority [ (Topology.node_ids pair).(1) ] in
        Stellar_herder.Herder.set_quorum_set h alone;
        let seqs = Array.make (Array.length accounts) 0 in
        let pay = payment ~accounts ~seqs 0 in
        check bool "payment queued" true (Stellar_herder.Herder.submit_tx h pay = `Queued);
        let h = Stellar_herder.Herder.catch_up h cb caught in
        check int "at the caught-up ledger" tip.Stellar_ledger.Header.ledger_seq
          (Stellar_herder.Herder.ledger_seq h);
        Stellar_herder.Herder.start h;
        Stellar_sim.Engine.run ~until:25.0 engine;
        check bool "statements carry the reconfigured quorum set" true
          (!qsets <> [] && List.for_all (fun q -> q = alone) !qsets);
        match List.rev !closed with
        | first :: _ ->
            let header = first.Stellar_herder.Herder.header in
            check int "closes the next ledger" (tip.Stellar_ledger.Header.ledger_seq + 1)
              header.Stellar_ledger.Header.ledger_seq;
            check string "on the caught-up tip" (Stellar_ledger.Header.hash tip)
              header.Stellar_ledger.Header.prev_hash;
            check (list string) "with the queued payment" [ pay.Stellar_ledger.Tx.tx_hash ]
              (List.map
                 (fun (s : Stellar_ledger.Tx.signed) -> s.tx_hash)
                 (Stellar_herder.Tx_set.txs first.Stellar_herder.Herder.tx_set))
        | [] -> fail "no ledger closed after the catch-up");
    test_case "a tx set an envelope references outlives the horizon" `Quick (fun () ->
        (* one self-trusting validator closes ledgers on its own; it learns
           two tx sets at ledger 1, and an envelope for slot 50 names one *)
        let spec = Topology.all_to_all ~n:1 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let v =
          Validator.create ~network ~index:0 ~peers:[]
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
                 ~qset:(spec.Topology.qset_of 0))
            ~genesis ()
        in
        let h = Validator.herder v in
        let set tag =
          Stellar_herder.Tx_set.make ~prev_header_hash:(Stellar_crypto.Sha256.digest tag) []
        in
        let used = set "used at slot 50" and unused = set "never referenced" in
        Stellar_herder.Herder.receive_tx_set h used;
        Stellar_herder.Herder.receive_tx_set h unused;
        let value =
          Stellar_herder.Value.encode
            {
              Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash used;
              close_time = 1;
              upgrades = [];
            }
        in
        (* a peer's signed envelope: only one SCP takes in keeps a set alive
           (SCP skips the node's own envelopes as stale) *)
        let secret, peer =
          Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest "peer")
        in
        let statement =
          {
            Scp.Types.node_id = peer;
            slot = 50;
            quorum_set = spec.Topology.qset_of 0;
            pledge = Nominate { votes = [ value ]; accepted = [] };
          }
        in
        Stellar_herder.Herder.receive_envelope h
          {
            Scp.Types.statement;
            signature = Stellar_crypto.Sim_sig.sign secret (Scp.Types.signing_bytes statement);
          };
        Validator.start v;
        Stellar_sim.Engine.run ~until:220.0 engine;
        let seq = Stellar_herder.Herder.ledger_seq h in
        check bool (Printf.sprintf "closed 40+ ledgers (%d)" seq) true (seq >= 40);
        let held ts = Stellar_herder.Herder.tx_set h (Stellar_herder.Tx_set.hash ts) <> None in
        check bool "the unreferenced set expired" false (held unused);
        check bool "the set slot 50 uses is kept" true (held used));
    test_case "a far-future envelope holds no tx set and waits for none" `Quick (fun () ->
        (* a forged envelope for slot ledger_seq + 10^9 names a known set and
           an unknown one: the herder drops it before any bookkeeping *)
        let spec = Topology.all_to_all ~n:1 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let v =
          Validator.create ~network ~index:0 ~peers:[]
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
                 ~qset:(spec.Topology.qset_of 0))
            ~genesis ()
        in
        let h = Validator.herder v in
        let known =
          Stellar_herder.Tx_set.make ~prev_header_hash:(Stellar_crypto.Sha256.digest "known") []
        in
        Stellar_herder.Herder.receive_tx_set h known;
        let envelope ~slot hashes =
          let value tx_set_hash =
            Stellar_herder.Value.encode
              { Stellar_herder.Value.tx_set_hash; close_time = 1; upgrades = [] }
          in
          {
            Scp.Types.statement =
              {
                node_id = (Topology.node_ids spec).(0);
                slot;
                quorum_set = spec.Topology.qset_of 0;
                pledge = Nominate { votes = List.map value hashes; accepted = [] };
              };
            signature = "";
          }
        in
        let unknown = Stellar_crypto.Sha256.digest "never flooded" in
        let seq = Stellar_herder.Herder.ledger_seq h in
        let before = Stellar_herder.Herder.table_sizes h in
        Stellar_herder.Herder.receive_envelope h
          (envelope ~slot:(seq + 1_000_000_000) [ Stellar_herder.Tx_set.hash known; unknown ]);
        check (pair int int) "tables unchanged" before (Stellar_herder.Herder.table_sizes h);
        (* the bracket's edge is still in range: this one waits for its set *)
        Stellar_herder.Herder.receive_envelope h (envelope ~slot:(seq + 100) [ unknown ]);
        check int "an envelope 100 slots ahead waits" (snd before + 1)
          (snd (Stellar_herder.Herder.table_sizes h));
        (* the known set's expiry was not raised: it leaves with its slot *)
        Validator.start v;
        Stellar_sim.Engine.run ~until:220.0 engine;
        let closed = Stellar_herder.Herder.ledger_seq h in
        check bool (Printf.sprintf "closed 40+ ledgers (%d)" closed) true (closed >= 40);
        check bool "the known set expired" true
          (Stellar_herder.Herder.tx_set h (Stellar_herder.Tx_set.hash known) = None));
    test_case "a badly signed envelope keeps no tx set alive" `Quick (fun () ->
        (* as above, but the slot-50 envelope naming the set carries a
           signature that does not verify: SCP rejects it, and the set
           leaves with the slot it was learnt in *)
        let spec = Topology.all_to_all ~n:1 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:9 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let v =
          Validator.create ~network ~index:0 ~peers:[]
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
                 ~qset:(spec.Topology.qset_of 0))
            ~genesis ()
        in
        let h = Validator.herder v in
        let named =
          Stellar_herder.Tx_set.make ~prev_header_hash:(Stellar_crypto.Sha256.digest "named") []
        in
        Stellar_herder.Herder.receive_tx_set h named;
        let value =
          Stellar_herder.Value.encode
            {
              Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash named;
              close_time = 1;
              upgrades = [];
            }
        in
        let secret, peer =
          Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest "peer")
        in
        let statement =
          {
            Scp.Types.node_id = peer;
            slot = 50;
            quorum_set = spec.Topology.qset_of 0;
            pledge = Nominate { votes = [ value ]; accepted = [] };
          }
        in
        Stellar_herder.Herder.receive_envelope h
          {
            Scp.Types.statement;
            signature = Stellar_crypto.Sim_sig.sign secret "some other message";
          };
        Validator.start v;
        Stellar_sim.Engine.run ~until:220.0 engine;
        let seq = Stellar_herder.Herder.ledger_seq h in
        check bool (Printf.sprintf "closed 40+ ledgers (%d)" seq) true (seq >= 40);
        check bool "the forged envelope's set expired" true
          (Stellar_herder.Herder.tx_set h (Stellar_herder.Tx_set.hash named) = None));
  ]

let () =
  Alcotest.run "faults"
    [
      ("validate", validate_tests);
      ("recovery", recovery_tests);
      ("regressions", regression_tests);
    ]
