(* Integration tests: whole validators over the simulated overlay —
   consensus + herder + ledger + buckets together. *)

open Stellar_node

let run_scenario ?(n = 4) ?(accounts = 50) ?(rate = 5.0) ?(duration = 30.0) ?(seed = 7)
    ?(latency = Stellar_sim.Latency.datacenter) ?spec () =
  let spec = match spec with Some s -> s | None -> Topology.all_to_all ~n in
  Scenario.run
    {
      (Scenario.default ~spec) with
      Scenario.n_accounts = accounts;
      tx_rate = rate;
      duration;
      seed;
      latency;
    }

(* Scenario's online agreement check for a hand-built network.  Returns
   the table, the count of closes that disagreed, and the callback. *)
let agreement () =
  let agreed = Hashtbl.create 16 and conflicts = ref 0 in
  let on_ledger_closed { Stellar_herder.Herder.header; _ } =
    if Scenario.agree agreed header = `Conflicts then incr conflicts
  in
  (agreed, conflicts, on_ledger_closed)

let integration_tests =
  let open Alcotest in
  [
    test_case "ledgers close on the 5s cadence" `Quick (fun () ->
        let r = run_scenario () in
        check bool "at least 5 ledgers" true (r.Scenario.ledgers_closed >= 5);
        check bool "no divergence" false r.Scenario.diverged;
        let ci = r.Scenario.close_interval.Stellar_obs.Report.mean in
        check bool "close interval ~5s" true (ci >= 4.9 && ci < 5.6));
    test_case "all submitted payments eventually apply" `Quick (fun () ->
        let r = run_scenario ~rate:10.0 ~duration:40.0 () in
        check int "none dropped" r.Scenario.txs_submitted r.Scenario.txs_applied);
    test_case "consensus latency well under the 5s target" `Quick (fun () ->
        let r = run_scenario () in
        check bool "nomination+balloting < 1s on datacenter links" true
          (r.Scenario.nomination.Stellar_obs.Report.mean
           +. r.Scenario.balloting.Stellar_obs.Report.mean
          < 1.0));
    test_case "~7 SCP envelopes per ledger in the fault-free case" `Quick (fun () ->
        let r = run_scenario () in
        check bool "6..10 envelopes" true
          (r.Scenario.envelopes_per_ledger >= 5.0 && r.Scenario.envelopes_per_ledger <= 10.0));
    test_case "tiered topology with watchers stays consistent" `Quick (fun () ->
        let spec, _ = Topology.tiered ~leaves:4 () in
        let r = run_scenario ~spec ~duration:25.0 ~latency:Stellar_sim.Latency.wide_area () in
        check bool "closed ledgers" true (r.Scenario.ledgers_closed >= 3);
        check bool "no divergence" false r.Scenario.diverged);
    test_case "validator count sweep keeps safety" `Quick (fun () ->
        List.iter
          (fun n ->
            let r = run_scenario ~n ~duration:20.0 ~rate:2.0 () in
            check bool (Printf.sprintf "n=%d closes" n) true (r.Scenario.ledgers_closed >= 2);
            check bool (Printf.sprintf "n=%d agrees" n) false r.Scenario.diverged)
          [ 4; 7; 10 ]);
    test_case "identical seeds give bit-identical runs (reproducibility)" `Quick
      (fun () ->
        let r1 = run_scenario ~seed:99 ~duration:20.0 () in
        let r2 = run_scenario ~seed:99 ~duration:20.0 () in
        check int "same ledgers" r1.Scenario.ledgers_closed r2.Scenario.ledgers_closed;
        check int "same txs applied" r1.Scenario.txs_applied r2.Scenario.txs_applied;
        check int "same final seq" r1.Scenario.final_ledger_seq r2.Scenario.final_ledger_seq;
        check (float 1e-12) "same nomination mean"
          r1.Scenario.nomination.Stellar_obs.Report.mean
          r2.Scenario.nomination.Stellar_obs.Report.mean);
    test_case "wide-area latency still beats the close target" `Quick (fun () ->
        let r = run_scenario ~latency:Stellar_sim.Latency.wide_area () in
        check bool "closes" true (r.Scenario.ledgers_closed >= 4);
        check bool "total < interval" true (r.Scenario.total.Stellar_obs.Report.mean < 5.0));
  ]

(* crash / partition behaviour uses the pieces directly *)
let fault_tests =
  let open Alcotest in
  [
    test_case "crashed minority does not stop the network" `Quick (fun () ->
        let spec = Topology.all_to_all ~n:4 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:3 in
        let network = Stellar_sim.Network.create ~engine ~rng ~n:4 ~latency:Stellar_sim.Latency.datacenter () in
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
        Array.iter Validator.start vs;
        (* run 3 ledgers, crash one validator, run more *)
        Stellar_sim.Engine.run ~until:16.0 engine;
        Stellar_sim.Network.set_down network 3 true;
        Stellar_sim.Engine.run ~until:60.0 engine;
        let seq i = Stellar_herder.Herder.ledger_seq (Validator.herder vs.(i)) in
        check bool "survivors progressed past crash" true (seq 0 >= 8);
        check bool "agree" true (seq 0 = seq 1 && seq 1 = seq 2));
    test_case "partitioned majority continues, minority halts safely" `Quick (fun () ->
        let spec = Topology.all_to_all ~n:5 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:4 in
        let network = Stellar_sim.Network.create ~engine ~rng ~n:5 ~latency:Stellar_sim.Latency.datacenter () in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let _, conflicts, on_ledger_closed = agreement () in
        let mk i =
          Validator.create ~network ~index:i
            ~peers:(spec.Topology.peers_of i)
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
                 ~qset:(spec.Topology.qset_of i))
            ~genesis ~on_ledger_closed ()
        in
        let vs = Array.init 5 mk in
        Array.iter Validator.start vs;
        Stellar_sim.Engine.run ~until:12.0 engine;
        (* 3-2 partition *)
        Stellar_sim.Network.set_partition network (fun i -> if i < 3 then 0 else 1);
        Stellar_sim.Engine.run ~until:60.0 engine;
        let seq i = Stellar_herder.Herder.ledger_seq (Validator.herder vs.(i)) in
        let majority = seq 0 in
        let minority = seq 3 in
        check bool "majority progressed" true (majority > minority);
        (* the minority must not have closed a conflicting ledger: every
           close agreed with the first close of its seq, so the minority's
           chain is a strict prefix of the majority's *)
        check int "minority chain is a prefix" 0 !conflicts;
        (* heal the partition: once the minority externalizes a slot past
           its next one, it asks its peers for the slots it missed (the §6
           fix) and closes them from their answer *)
        Stellar_sim.Network.set_partition network (fun _ -> 0);
        Stellar_sim.Engine.run ~until:130.0 engine;
        check bool "minority caught up after heal" true (seq 3 >= seq 0 - 1);
        check int "chains consistent after heal" 0 !conflicts);
    test_case "surge pricing under congestion (§5.2)" `Quick (fun () ->
        (* cap ledgers at 5 operations; submit 15 competing 1-op payments
           with tiered fees; the expensive ones must land first *)
        let spec = Topology.all_to_all ~n:4 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:23 in
        let network = Stellar_sim.Network.create ~engine ~rng ~n:4 ~latency:Stellar_sim.Latency.datacenter () in
        let genesis, accounts = Genesis.make ~n_accounts:15 () in
        let ledger_txs = ref [] in
        let on_ledger_closed stats =
          ledger_txs := Stellar_herder.Tx_set.txs stats.Stellar_herder.Herder.tx_set :: !ledger_txs
        in
        let mk i =
          let config =
            {
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
                 ~qset:(spec.Topology.qset_of i))
              with
              Stellar_herder.Herder.max_ops_per_ledger = 5;
            }
          in
          Validator.create ~network ~index:i ~peers:(spec.Topology.peers_of i) ~config
            ~genesis
            ~on_ledger_closed:(if i = 0 then on_ledger_closed else fun _ -> ())
            ()
        in
        let vs = Array.init 4 mk in
        Array.iter Validator.start vs;
        let scheme = (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string) in
        (* 15 payments: fees 100..1500 stroops, all submitted up front *)
        Array.iteri
          (fun i (a : Genesis.account) ->
            let tx =
              Stellar_ledger.Tx.make ~source:a.Genesis.public ~seq_num:1
                ~fee:(100 * (i + 1))
                [
                  Stellar_ledger.Tx.op
                    (Stellar_ledger.Tx.Payment
                       {
                         destination = accounts.((i + 1) mod 15).Genesis.public;
                         asset = Stellar_ledger.Asset.native;
                         amount = 10;
                       });
                ]
            in
            Validator.submit_tx vs.(0)
              (Stellar_ledger.Tx.sign tx ~secret:a.Genesis.secret ~public:a.Genesis.public
                 ~scheme))
          accounts;
        Stellar_sim.Engine.run ~until:21.0 engine;
        let ledgers = List.rev !ledger_txs in
        let nonempty = List.filter (fun l -> l <> []) ledgers in
        check bool "needed multiple ledgers" true (List.length nonempty >= 2);
        (* the first non-empty ledger must carry the highest-fee txs *)
        let first = List.hd nonempty in
        let fees = List.map (fun s -> s.Stellar_ledger.Tx.tx.Stellar_ledger.Tx.fee) first in
        check int "full ledger" 5 (List.length fees);
        List.iter
          (fun f -> check bool (Printf.sprintf "fee %d in top tier" f) true (f >= 1100))
          fees);
    test_case "misconfigured disjoint cliques diverge at the ledger level (§6)" `Quick
      (fun () ->
        (* the incident §6 guards against: two cliques that do not reference
           each other each confirm their own, conflicting ledgers.  (With
           identical inputs the halves can agree by accident, so each clique
           governs a different upgrade to make the conflict real.)  The
           quorum doctor flags the configuration up front. *)
        let base = Topology.all_to_all ~n:6 in
        let ids = Topology.node_ids base in
        let qset_of i =
          if i < 3 then Scp.Quorum_set.majority [ ids.(0); ids.(1); ids.(2) ]
          else Scp.Quorum_set.majority [ ids.(3); ids.(4); ids.(5) ]
        in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:13 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:6
            ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let vs =
          Array.init 6 (fun i ->
              let fee = if i < 3 then 150 else 250 in
              Validator.create ~network ~index:i ~peers:(base.Topology.peers_of i)
                ~config:
                  {
                    (Stellar_herder.Herder.default_config
                       ~seed:(base.Topology.validator_seed i) ~qset:(qset_of i))
                    with
                    Stellar_herder.Herder.is_governing = true;
                    desired_upgrades = [ Stellar_herder.Value.Upgrade_base_fee fee ];
                  }
                ~genesis ())
        in
        Array.iter Validator.start vs;
        Stellar_sim.Engine.run ~until:40.0 engine;
        let fee i =
          Stellar_ledger.State.base_fee
            (Stellar_herder.Herder.state (Validator.herder vs.(i)))
        in
        let seq i = Stellar_herder.Herder.ledger_seq (Validator.herder vs.(i)) in
        check bool "both halves made progress" true (seq 0 >= 4 && seq 3 >= 4);
        check bool "conflicting global parameters confirmed" true (fee 0 <> fee 3);
        (* the §6.2 checker catches the misconfiguration statically *)
        let spec = { base with Topology.qset_of } in
        let config = Topology.network_config spec in
        match Quorum_analysis.Intersection.check config with
        | Quorum_analysis.Intersection.Disjoint _ -> ()
        | _ -> fail "doctor failed to flag the split-brain configuration");
    test_case "a governing node configured with repeated upgrades still closes" `Quick (fun () ->
        (* two base-fee upgrades in the config: the node nominates one, the
           higher, since a value with a repeated kind does not decode *)
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:5 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:(Stellar_sim.Latency.Constant 0.001) ()
        in
        let genesis, _ = Genesis.make ~n_accounts:4 () in
        let spec = Topology.all_to_all ~n:1 in
        let v =
          Validator.create ~network ~index:0 ~peers:[]
            ~config:
              {
                (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
                   ~qset:(Scp.Quorum_set.singleton (Topology.node_ids spec).(0)))
                with
                Stellar_herder.Herder.is_governing = true;
                desired_upgrades =
                  Stellar_herder.Value.[ Upgrade_base_fee 150; Upgrade_base_fee 200 ];
              }
            ~genesis ()
        in
        Validator.start v;
        Stellar_sim.Engine.run ~until:20.0 engine;
        let h = Validator.herder v in
        check bool "ledgers closed" true
          (Stellar_herder.Herder.ledger_seq h >= Stellar_ledger.State.ledger_seq genesis + 2);
        check int "higher fee applied" 200
          (Stellar_ledger.State.base_fee (Stellar_herder.Herder.state h)));
    test_case "leaf watcher tracks without validating" `Quick (fun () ->
        let spec, _ = Topology.tiered ~leaves:1 () in
        let n = spec.Topology.n_nodes in
        let r = run_scenario ~spec ~duration:20.0 ~rate:2.0 () in
        ignore n;
        check bool "network closed ledgers" true (r.Scenario.ledgers_closed >= 2));
  ]

(* ---------- archive + catchup ---------- *)

(* A single-validator network running 62 s with ten payments, archived
   with checkpoint frequency 4, its closes made through [memo] (default a
   fresh one).  Returns the validator, its accounts, the archive and each
   closed ledger's live bucket list by sequence number. *)
let archived_run ?memo () =
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:5 in
  let network = Stellar_sim.Network.create ~engine ~rng ~n:1 ~latency:(Stellar_sim.Latency.Constant 0.001) () in
  let genesis, accounts = Genesis.make ~n_accounts:20 () in
  let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
  let buckets_at = Hashtbl.create 16 in
  let spec = Topology.all_to_all ~n:1 in
  let on_ledger_closed { Stellar_herder.Herder.header; value; tx_set; buckets; _ } =
    Hashtbl.replace buckets_at header.Stellar_ledger.Header.ledger_seq buckets;
    Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set ~buckets
  in
  let validator =
    Validator.create ~network ~index:0 ~peers:[]
      ~config:
        (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed 0)
           ~qset:(Scp.Quorum_set.singleton (Topology.node_ids spec).(0)))
      ~genesis ?memo ~on_ledger_closed ()
  in
  Validator.start validator;
  (* submit some payments *)
  let scheme = (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string) in
  for i = 0 to 9 do
    let src = accounts.(i) and dst = accounts.((i + 1) mod 20) in
    let tx =
      Stellar_ledger.Tx.make ~source:src.Genesis.public ~seq_num:1
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
    let signed =
      Stellar_ledger.Tx.sign tx ~secret:src.Genesis.secret ~public:src.Genesis.public
        ~scheme
    in
    ignore
      (Stellar_sim.Engine.schedule engine ~delay:(float_of_int i) (fun () ->
           Validator.submit_tx validator signed))
  done;
  Stellar_sim.Engine.run ~until:62.0 engine;
  Validator.stop validator;
  (validator, accounts, archive, buckets_at)

let archive_tests =
  let open Alcotest in
  [
    test_case "record, find, catch up to tip" `Quick (fun () ->
        (* drive a single-validator network and archive its ledgers, then
           bootstrap a state from the archive and compare hashes *)
        let validator, accounts, archive, _ = archived_run () in
        check bool "archived some ledgers" true
          (Option.value ~default:0 (Stellar_archive.Archive.latest_seq archive) >= 10);
        check bool "has checkpoints" true (Stellar_archive.Archive.checkpoint_count archive >= 2);
        (* every archived ledger's value is the one its header commits to *)
        for seq = 2 to Option.get (Stellar_archive.Archive.latest_seq archive) do
          match Stellar_archive.Archive.ledger archive seq with
          | None -> fail (Printf.sprintf "ledger %d not archived" seq)
          | Some (header, v, _) ->
              check string
                (Printf.sprintf "value hash %d" seq)
                header.Stellar_ledger.Header.scp_value_hash (Stellar_herder.Value.hash v);
              check string
                (Printf.sprintf "value names the tx set %d" seq)
                header.Stellar_ledger.Header.tx_set_hash v.Stellar_herder.Value.tx_set_hash
        done;
        (* catchup *)
        (match Stellar_archive.Archive.catchup ~memo:(Stellar_herder.Herder.memo ()) archive with
        | Error e -> fail e
        | Ok (from_seq, (state, _buckets, tip)) ->
            (* replayed from the latest checkpoint *)
            let latest = Option.get (Stellar_archive.Archive.latest_seq archive) in
            check int "from the latest checkpoint" (latest / 4 * 4) from_seq;
            let live = Stellar_herder.Herder.state (Validator.herder validator) in
            check bool "caught-up state matches live snapshot" true
              (String.equal
                 (Stellar_ledger.State.snapshot_hash state)
                 (Stellar_ledger.State.snapshot_hash live));
            (* the validator archived every close, so its tip is the archive's *)
            let live_tip = Option.get (Stellar_herder.Herder.last_header (Validator.herder validator)) in
            check string "caught-up tip header = live header"
              (Stellar_ledger.Header.hash live_tip) (Stellar_ledger.Header.hash tip));
        (* tx lookup by hash *)
        let src = accounts.(0) in
        let tx =
          Stellar_ledger.Tx.make ~source:src.Genesis.public ~seq_num:1
            [
              Stellar_ledger.Tx.op
                (Stellar_ledger.Tx.Payment
                   {
                     destination = accounts.(1).Genesis.public;
                     asset = Stellar_ledger.Asset.native;
                     amount = 100;
                   });
            ]
        in
        match Stellar_archive.Archive.find_tx archive (Stellar_ledger.Tx.hash tx) with
        | Some (seq, _) -> check bool "found in an early ledger" true (seq >= 2)
        | None -> fail "tx not found in archive");
    test_case "out-of-order publication rejected" `Quick (fun () ->
        let archive = Stellar_archive.Archive.create () in
        let genesis, _ = Genesis.make ~n_accounts:1 () in
        let buckets = Stellar_bucket.Bucket_list.of_state genesis in
        let mk seq =
          let state = Stellar_ledger.State.set_header genesis ~ledger_seq:seq ~close_time:seq in
          Stellar_ledger.Header.make ~prev:None ~scp_value_hash:"v" ~tx_set_hash:"t"
            ~results_hash:"r" ~snapshot_hash:(Stellar_bucket.Bucket_list.hash buckets) ~state
        in
        let ts = Stellar_herder.Tx_set.make ~prev_header_hash:"p" [] in
        let value =
          { Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash ts; close_time = 2; upgrades = [] }
        in
        Stellar_archive.Archive.record_ledger archive ~header:(mk 2) ~value ~tx_set:ts ~buckets;
        check_raises "gap rejected"
          (Invalid_argument "Archive.record_ledger: out of order (5 after 2)") (fun () ->
            Stellar_archive.Archive.record_ledger archive ~header:(mk 5) ~value ~tx_set:ts
              ~buckets));
    test_case "catch-up rejects a forged header after the checkpoint" `Quick (fun () ->
        (* copy a checkpoint with the two ledgers before and after it,
           forging one after it and relinking the next one to the forgery
           (its [prev_hash] and skip-list slot 0, the previous header's
           hash): every chain link and snapshot hash still checks out, so
           each forgery must be caught at the forged ledger itself.  Each
           case runs on a fresh memo and on the memo of the run that made
           the archive, which holds every honest close: the first ledger
           after the checkpoint is computed and rejoins the held close, and
           the second is answered from the memo *)
        let run_memo = Stellar_herder.Herder.memo () in
        let _, _, archive, buckets_at = archived_run ~memo:run_memo () in
        let latest = Option.get (Stellar_archive.Archive.latest_seq archive) in
        let chk = 4 * ((latest - 2) / 4) in
        let archived ?(at = chk + 1) forge =
          let copy = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
          let prev = ref None in
          for seq = chk - 2 to chk + 2 do
            let h, value, tx_set = Option.get (Stellar_archive.Archive.ledger archive seq) in
            let h, value = if seq = at then forge (h, value) else (h, value) in
            let h =
              match !prev with
              | Some p when seq > chk + 1 ->
                  let link = Stellar_ledger.Header.hash p in
                  {
                    h with
                    Stellar_ledger.Header.prev_hash = link;
                    skip_list = link :: List.tl h.Stellar_ledger.Header.skip_list;
                  }
              | _ -> h
            in
            prev := Some h;
            Stellar_archive.Archive.record_ledger copy ~header:h ~value ~tx_set
              ~buckets:(Hashtbl.find buckets_at seq)
          done;
          copy
        in
        List.iter
          (fun (on, memo) ->
            let copy ?at forge = Stellar_archive.Archive.catchup ~memo:(memo ()) (archived ?at forge) in
            (match copy Fun.id with
            | Ok (_, (_, _, tip)) ->
                check int ("faithful copy catches up to its tip, " ^ on) (chk + 2)
                  tip.Stellar_ledger.Header.ledger_seq
            | Error e -> fail e);
            (* a header before the checkpoint altered and the later links
               left as they are: replay starts at the checkpoint, so only
               the check of the links up to it can refuse the chain *)
            (match
               copy ~at:(chk - 1) (fun (h, v) ->
                   ({ h with Stellar_ledger.Header.fee_pool = h.Stellar_ledger.Header.fee_pool + 1 }, v))
             with
            | Ok _ -> fail ("header altered before the checkpoint accepted, " ^ on)
            | Error e ->
                check string ("header altered before the checkpoint, " ^ on) "header chain broken" e);
            (* the checkpoint record forged and the archived ledgers left as
               they are: the blob re-read with the checkpoint header's fee
               pool raised, so its bucket hash and its link back still check
               out, and only the comparison with the archived ledger at its
               seq can refuse it *)
            (let module Xdr = Stellar_xdr.Xdr in
             let module H = Stellar_ledger.Header in
             let blob_xdr =
               Xdr.(
                 pair uint32
                   (pair
                      (list (pair H.xdr (pair Stellar_herder.Value.xdr Stellar_herder.Tx_set.xdr)))
                      (list (pair hyper (pair H.xdr Stellar_bucket.Bucket_list.xdr)))))
             in
             let freq, (records, checkpoints) =
               Result.get_ok (Xdr.decode blob_xdr (Stellar_archive.Archive.to_blob (archived Fun.id)))
             in
             let checkpoints =
               List.map
                 (fun (seq, (h, b)) -> (seq, ({ h with H.fee_pool = h.H.fee_pool + 1 }, b)))
                 checkpoints
             in
             match
               Stellar_archive.Archive.of_blob (Xdr.encode blob_xdr (freq, (records, checkpoints)))
             with
             | Error e -> fail e
             | Ok forged -> (
                 match Stellar_archive.Archive.catchup ~memo:(memo ()) forged with
                 | Ok _ -> fail ("forged checkpoint accepted, " ^ on)
                 | Error e -> check string ("forged checkpoint, " ^ on) "header chain broken" e));
            (* a header made consistent with a forged value: its own hash
               and parameters agree, so only the value checks can refuse it *)
            let consistent (h, v) base_fee =
              ( {
                  h with
                  Stellar_ledger.Header.scp_value_hash = Stellar_herder.Value.hash v;
                  base_fee;
                },
                v )
            in
            List.iter
              (fun forged ->
                let mismatch = Printf.sprintf "replayed header mismatch at ledger %d" forged in
                List.iter
                  (fun (what, expected, forge) ->
                    let what = Printf.sprintf "%s at ledger %d, %s" what forged on in
                    match copy ~at:forged forge with
                    | Ok _ -> fail (what ^ " accepted")
                    | Error e -> check string what expected e)
                  [
                    ( "forged results hash",
                      mismatch,
                      fun (h, v) ->
                        ( {
                            h with
                            Stellar_ledger.Header.results_hash = Stellar_crypto.Sha256.digest "forged";
                          },
                          v ) );
                    ( "forged fee pool",
                      mismatch,
                      fun (h, v) ->
                        ( { h with Stellar_ledger.Header.fee_pool = h.Stellar_ledger.Header.fee_pool + 1 },
                          v ) );
                    ( "base fee forged in the header only",
                      mismatch,
                      fun (h, v) -> ({ h with Stellar_ledger.Header.base_fee = 200 }, v) );
                    ( "base-fee upgrade added to the value, scp_value_hash kept",
                      mismatch,
                      fun (h, v) ->
                        ( { h with Stellar_ledger.Header.base_fee = 200 },
                          {
                            v with
                            Stellar_herder.Value.upgrades = [ Stellar_herder.Value.Upgrade_base_fee 200 ];
                          } ) );
                    ( "value naming another tx set",
                      Printf.sprintf "value names another tx set at ledger %d" forged,
                      fun (h, v) ->
                        consistent
                          ( h,
                            {
                              v with
                              Stellar_herder.Value.tx_set_hash = Stellar_crypto.Sha256.digest "other";
                            } )
                          h.Stellar_ledger.Header.base_fee );
                    ( "out-of-range upgrade, header consistent",
                      Printf.sprintf "invalid upgrade at ledger %d" forged,
                      fun (h, v) ->
                        consistent
                          ( h,
                            {
                              v with
                              Stellar_herder.Value.upgrades =
                                [ Stellar_herder.Value.Upgrade_base_fee 20_000 ];
                            } )
                          20_000 );
                  ])
              [ chk + 1; chk + 2 ])
          [ ("on a fresh memo", Stellar_herder.Herder.memo); ("on the run's memo", fun () -> run_memo) ]);
    test_case "catch-up replays a parameter upgrade after the checkpoint" `Quick (fun () ->
        (* ledgers closed through the herder's transition, the base fee
           raised by ledger 5's value: replay must apply the archived
           value's upgrade *)
        let genesis, _ = Genesis.make ~n_accounts:4 () in
        let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
        let closes = Stellar_herder.Herder.memo () in
        let state = ref genesis in
        let buckets = ref (Stellar_bucket.Bucket_list.of_state genesis) in
        let prev = ref None in
        for seq = Stellar_ledger.State.ledger_seq genesis + 1 to 6 do
          let ts =
            Stellar_herder.Tx_set.make
              ~prev_header_hash:
                (Option.fold ~none:Stellar_ledger.Header.genesis_hash
                   ~some:Stellar_ledger.Header.hash !prev)
              []
          in
          let value =
            {
              Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash ts;
              close_time = 10 * seq;
              upgrades = (if seq = 5 then [ Stellar_herder.Value.Upgrade_base_fee 200 ] else []);
            }
          in
          let s, b, header, _ =
            Stellar_herder.Herder.apply_ledger ~memo:closes ~prev:!prev !state !buckets value ts
          in
          Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set:ts ~buckets:b;
          state := s;
          buckets := b;
          prev := Some header
        done;
        (* a memo of its own: every replayed ledger is computed *)
        match Stellar_archive.Archive.catchup ~memo:(Stellar_herder.Herder.memo ()) archive with
        | Error e -> fail e
        | Ok (_, (state, _, tip)) ->
            check int "upgraded base fee" 200 (Stellar_ledger.State.base_fee state);
            check string "tip header"
              (Stellar_ledger.Header.hash (Option.get !prev))
              (Stellar_ledger.Header.hash tip));
    test_case "catch-up keeps an entry deleted after it spilled deleted" `Quick (fun () ->
        (* ledger 2 creates an account, three empty ledgers fill level 0
           and its spill moves the account to level 1, ledger 6 merges the
           account away: the checkpoint at ledger 8 holds its tombstone in
           level 0, above its older version *)
        let module L = Stellar_ledger in
        let scheme = (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string) in
        let genesis, accounts = Genesis.make ~n_accounts:4 () in
        let funder = accounts.(0) in
        let secret, id = Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest "merged") in
        let txs state seq =
          if seq = 2 then
            [
              L.Tx.sign
                (L.Tx.make ~source:funder.Genesis.public ~seq_num:1
                   [
                     L.Tx.op
                       (L.Tx.Create_account
                          {
                            destination = id;
                            starting_balance = 2 * L.State.min_balance state ~num_sub_entries:0;
                          });
                   ])
                ~secret:funder.Genesis.secret ~public:funder.Genesis.public ~scheme;
            ]
          else if seq = 6 then
            let a = Option.get (L.State.account state id) in
            [
              L.Tx.sign
                (L.Tx.make ~source:id ~seq_num:(a.L.Entry.seq_num + 1)
                   [ L.Tx.op (L.Tx.Account_merge { destination = funder.Genesis.public }) ])
                ~secret ~public:id ~scheme;
            ]
          else []
        in
        let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
        let closes = Stellar_herder.Herder.memo () in
        let rec close prev state buckets seq =
          if seq > 8 then state
          else begin
            let ts =
              Stellar_herder.Tx_set.make
                ~prev_header_hash:(Option.fold ~none:L.Header.genesis_hash ~some:L.Header.hash prev)
                (txs state seq)
            in
            let value =
              { Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash ts; close_time = 10 * seq; upgrades = [] }
            in
            let state, buckets, header, _ =
              Stellar_herder.Herder.apply_ledger ~memo:closes ~prev state buckets value ts
            in
            Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set:ts ~buckets;
            check bool
              (Printf.sprintf "account live after ledger %d" seq)
              (seq >= 2 && seq < 6)
              (L.State.account state id <> None);
            close (Some header) state buckets (seq + 1)
          end
        in
        let live =
          close None genesis (Stellar_bucket.Bucket_list.of_state genesis) (L.State.ledger_seq genesis + 1)
        in
        match Stellar_archive.Archive.catchup ~memo:(Stellar_herder.Herder.memo ()) archive with
        | Error e -> fail e
        | Ok (from_seq, (state, _, _)) ->
            check int "from the checkpoint at ledger 8" 8 from_seq;
            let entries s = List.map L.Entry.encode_entry (L.State.all_entries s) in
            check bool "caught-up entries = live entries" true (entries state = entries live));
  ]

(* ---------- the close memo ---------- *)

module Obs = Stellar_obs

(* A live sink with its own registry and trace, and what it has seen: every
   metric's counter, gauge and histogram count, then every trace event. *)
let observed ?(now = fun () -> 0.0) node =
  let reg = Obs.Registry.create () and trace = Obs.Trace.create () in
  let seen skip =
    ( List.filter_map
        (fun name ->
          if List.mem name skip then None
          else
            Some
              ( name,
                Obs.Registry.counter_value reg name,
                Obs.Registry.gauge_value reg name,
                Option.map (fun s -> s.Obs.Registry.count) (Obs.Registry.summary reg name) ))
        (Obs.Registry.names reg),
      Obs.Trace.events trace )
  in
  (Obs.Sink.make ~trace ~node ~now reg, seen)

(* Ledger [seq]'s payments: account [i] pays account [i + 1], and account 0
   pays more than it holds, so the set holds a failed transaction too. *)
let payments accounts ~seq =
  List.init 6 (fun i ->
      let src = accounts.(i) and dst = accounts.(i + 1) in
      let amount = if i = 0 then Stellar_ledger.Asset.of_units 1_000_000 else 100 + seq in
      Stellar_ledger.Tx.sign
        (Stellar_ledger.Tx.make ~source:src.Genesis.public ~seq_num:(seq - 1)
           [
             Stellar_ledger.Tx.op
               (Stellar_ledger.Tx.Payment
                  { destination = dst.Genesis.public; asset = Stellar_ledger.Asset.native; amount });
           ])
        ~secret:src.Genesis.secret ~public:src.Genesis.public
        ~scheme:(module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string))

(* The value and tx set of the ledger after [prev], made afresh on every
   call: equal hashes, never the same values. *)
let ledger accounts ~prev ~seq =
  let ts =
    Stellar_herder.Tx_set.make
      ~prev_header_hash:
        (Option.fold ~none:Stellar_ledger.Header.genesis_hash ~some:Stellar_ledger.Header.hash prev)
      (payments accounts ~seq)
  in
  ({ Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash ts; close_time = 10 * seq; upgrades = [] }, ts)

(* [n] closes from genesis through [memo]; the inputs and result of each. *)
let chain ~memo accounts genesis buckets n =
  let rec go prev state buckets seq k =
    if k = 0 then []
    else
      let v, ts = ledger accounts ~prev ~seq in
      let ((state', buckets', header, _) as r) =
        Stellar_herder.Herder.apply_ledger ~memo ~prev state buckets v ts
      in
      (prev, state, buckets, seq, r) :: go (Some header) state' buckets' (seq + 1) (k - 1)
  in
  go None genesis buckets (Stellar_ledger.State.ledger_seq genesis + 1) n

(* A hand-built [n]-validator network run of four ledgers' payments, each
   node given [memo_of i], node 0's closes archived and the last node
   crashed at 17 s and restarted from the archive at 27 s: every node's
   metrics (but its CPU histogram) and trace, and its chain of header
   hashes. *)
let memo_run ~n memo_of =
  let spec = Topology.all_to_all ~n in
  let engine = Stellar_sim.Engine.create () in
  let network =
    Stellar_sim.Network.create ~engine ~rng:(Stellar_sim.Rng.create ~seed:5) ~n
      ~latency:Stellar_sim.Latency.datacenter ()
  in
  let genesis, accounts = Genesis.make ~n_accounts:8 () in
  let buckets = Stellar_bucket.Bucket_list.of_state genesis in
  let chains = Array.make n [] in
  let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
  let nodes =
    Array.init n (fun i ->
        let sink, seen = observed ~now:(fun () -> Stellar_sim.Engine.now engine) i in
        let on_ledger_closed { Stellar_herder.Herder.header; value; tx_set; buckets; _ } =
          if i = 0 then Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set ~buckets;
          chains.(i) <- Stellar_ledger.Header.hash header :: chains.(i)
        in
        let v =
          Validator.create ~network ~index:i ~peers:(spec.Topology.peers_of i)
            ~config:
              (Stellar_herder.Herder.default_config ~seed:(spec.Topology.validator_seed i)
                 ~qset:(spec.Topology.qset_of i))
            ~genesis ~buckets ~archive ~memo:(memo_of i) ~on_ledger_closed ~obs:sink ()
        in
        (v, seen))
  in
  Array.iter (fun (v, _) -> Validator.start v) nodes;
  let last = fst nodes.(n - 1) in
  ignore (Stellar_sim.Engine.schedule engine ~delay:17.0 (fun () -> Validator.crash last));
  ignore (Stellar_sim.Engine.schedule engine ~delay:27.0 (fun () -> Validator.restart last));
  for seq = 2 to 5 do
    List.iter
      (fun signed ->
        ignore
          (Stellar_sim.Engine.schedule engine ~delay:(float_of_int (5 * (seq - 2)) +. 1.0)
             (fun () -> Validator.submit_tx (fst nodes.(seq mod n)) signed)))
      (payments accounts ~seq)
  done;
  Stellar_sim.Engine.run ~until:40.0 engine;
  Array.mapi (fun i (_, seen) -> (seen [ "ledger.apply_ms" ], List.rev chains.(i))) nodes

let same_runs one each =
  let open Alcotest in
  Array.iteri
    (fun i ((metrics, events), chain) ->
      let (metrics', events'), chain' = each.(i) in
      check bool (Printf.sprintf "node %d closed ledgers" i) true (List.length chain >= 6);
      check (list string) (Printf.sprintf "node %d chain" i) chain chain';
      check bool (Printf.sprintf "node %d metrics" i) true (metrics = metrics');
      check bool (Printf.sprintf "node %d trace" i) true (events = events'))
    one;
  let (_, events), _ = one.(Array.length one - 1) in
  check bool "the last node replayed archived ledgers at its restart" true
    (List.exists
       (fun e ->
         match e.Obs.Trace.event with
         | Obs.Event.Catchup_done { from_seq; replayed; _ } -> from_seq > 0 && replayed > 0
         | _ -> false)
       events)

let memo_tests =
  let open Alcotest in
  let same_close (s, b, h, apply_s) (s', b', h', apply_s') =
    s == s' && b == b' && h == h' && Float.equal apply_s apply_s'
  in
  (* ledger [seq] closed again through [memo], from the given inputs *)
  let redo memo accounts ~prev state buckets seq =
    let v, ts = ledger accounts ~prev ~seq in
    Stellar_herder.Herder.apply_ledger ~memo ~prev state buckets v ts
  in
  [
    test_case "a repeated close is shared and shows the same observations" `Quick (fun () ->
        let genesis, accounts = Genesis.make ~n_accounts:8 () in
        let buckets = Stellar_bucket.Bucket_list.of_state genesis in
        let memo = Stellar_herder.Herder.memo () in
        (* six ledgers: level 0 spills into level 1 at the fourth *)
        List.iter
          (fun (prev, state, buckets, seq, _) ->
            let close () =
              let sink, seen = observed 0 in
              (* each herder boxes its own tip *)
              let prev = Option.map Fun.id prev in
              let v, ts = ledger accounts ~prev ~seq in
              let r = Stellar_herder.Herder.apply_ledger ~memo ~obs:sink ~prev state buckets v ts in
              (r, seen [])
            in
            let first, seen_first = close () and again, seen_again = close () in
            check bool (Printf.sprintf "ledger %d shared" seq) true (same_close first again);
            check bool (Printf.sprintf "ledger %d observed alike" seq) true (seen_first = seen_again);
            let metrics, events = seen_first in
            check bool "counted its transactions" true
              (List.exists (fun (name, n, _, _) -> name = "ledger.tx.success" && n = 5) metrics
              && List.exists (fun (name, n, _, _) -> name = "ledger.tx.failed" && n = 1) metrics);
            check bool "traced its merges" true
              (List.exists (fun e -> match e.Obs.Trace.event with Obs.Event.Bucket_merge _ -> true | _ -> false) events))
          (chain ~memo:(Stellar_herder.Herder.memo ()) accounts genesis buckets 6));
    test_case "an equal state not physically shared rejoins the shared close" `Quick (fun () ->
        let genesis, accounts = Genesis.make ~n_accounts:8 () in
        let memo = Stellar_herder.Herder.memo () in
        (* a full memo: a close kept by a miss would evict the oldest *)
        let closes =
          chain ~memo accounts genesis (Stellar_bucket.Bucket_list.of_state genesis)
            Stellar_herder.Herder.slots_to_remember
        in
        let redo = redo memo accounts in
        let prev, state, buckets, seq, shared = List.nth closes 1 in
        let _, _, _, _, next = List.nth closes 2 in
        (* the same ledger's inputs built apart: equal, not the same *)
        let genesis', _ = Genesis.make ~n_accounts:8 () in
        let _, state', buckets', _, _ =
          List.nth
            (chain ~memo:(Stellar_herder.Herder.memo ()) accounts genesis'
               (Stellar_bucket.Bucket_list.of_state genesis') 2)
            1
        in
        let copy h = { h with Stellar_ledger.Header.ledger_seq = h.Stellar_ledger.Header.ledger_seq } in
        List.iter
          (fun (what, prev, state, buckets) ->
            let ((s, b, h, _) as r) = redo ~prev state buckets seq in
            check bool (what ^ " gets the shared close") true (same_close r shared);
            (* its own box of the tip, as a herder holds it *)
            check bool (what ^ ": the next ledger hits") true
              (same_close (redo ~prev:(Some h) s b (seq + 1)) next))
          [
            ("an equal tip", Option.map copy prev, state, buckets);
            ("an equal state", prev, state', buckets);
            ("an equal bucket list", prev, state, buckets');
          ];
        let prev, state, buckets, seq, oldest = List.hd closes in
        check bool "no second close kept" true (same_close (redo ~prev state buckets seq) oldest));
    test_case "the memo holds the last 12 closes" `Quick (fun () ->
        let genesis, accounts = Genesis.make ~n_accounts:8 () in
        let memo = Stellar_herder.Herder.memo () in
        let n = Stellar_herder.Herder.slots_to_remember + 1 in
        let closes =
          chain ~memo accounts genesis (Stellar_bucket.Bucket_list.of_state genesis) n
        in
        let redo (prev, state, buckets, seq, _) = redo memo accounts ~prev state buckets seq in
        let first = List.hd closes and oldest_held = List.nth closes 1 in
        let _, _, _, _, oldest_result = oldest_held in
        check bool "the 12th newest is shared" true (same_close (redo oldest_held) oldest_result);
        let _, _, _, _, ((_, _, h, _) as first_result) = first in
        let (_, _, h', _) as again = redo first in
        check bool "the 13th newest was evicted" false (same_close again first_result);
        check string "and recomputes the same header" (Stellar_ledger.Header.hash h)
          (Stellar_ledger.Header.hash h'));
    test_case "a drifted state keeps its own close" `Quick (fun () ->
        let genesis, accounts = Genesis.make ~n_accounts:8 () in
        let memo = Stellar_herder.Herder.memo () in
        let redo = redo memo accounts in
        let prev, state, buckets, seq, ((_, _, h, _) as shared) =
          List.nth (chain ~memo accounts genesis (Stellar_bucket.Bucket_list.of_state genesis) 2) 1
        in
        (* account 7 pays nobody: a balance changed outside any close *)
        let id = accounts.(7).Genesis.public in
        let a = Option.get (Stellar_ledger.State.account state id) in
        let drifted =
          Stellar_ledger.State.put_account state
            { a with Stellar_ledger.Entry.balance = a.Stellar_ledger.Entry.balance + 1 }
        in
        let ((_, _, h', _) as own) = redo ~prev drifted buckets seq in
        check bool "not the shared close" false (same_close own shared);
        check bool "another header" false
          (String.equal (Stellar_ledger.Header.hash h) (Stellar_ledger.Header.hash h'));
        check bool "its own close is kept" true (same_close (redo ~prev drifted buckets seq) own);
        check bool "the lineage still gets the shared close" true
          (same_close (redo ~prev state buckets seq) shared));
    test_case "catch-up shares the memo's closes" `Quick (fun () ->
        (* ten ledgers closed through [memo] and archived, a checkpoint at
           ledger 8: replaying 9 to 11 through the same memo ends on the
           chain's own last close; through a fresh one, on equal copies *)
        let genesis, accounts = Genesis.make ~n_accounts:8 () in
        let memo = Stellar_herder.Herder.memo () in
        let closes = chain ~memo accounts genesis (Stellar_bucket.Bucket_list.of_state genesis) 10 in
        let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
        List.iter
          (fun (prev, _, _, seq, (_, buckets, header, _)) ->
            let value, tx_set = ledger accounts ~prev ~seq in
            Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set ~buckets)
          closes;
        let _, _, _, _, (state, buckets, header, _) = List.nth closes 9 in
        let caught memo =
          match Stellar_archive.Archive.catchup ~memo archive with
          | Ok (from_seq, r) ->
              check int "from the checkpoint at ledger 8" 8 from_seq;
              r
          | Error e -> fail e
        in
        let state', buckets', header' = caught memo in
        check bool "the chain's state" true (state' == state);
        check bool "the chain's bucket list" true (buckets' == buckets);
        check bool "the chain's header" true (header' == header);
        let state', buckets', header' = caught (Stellar_herder.Herder.memo ()) in
        check bool "another state" false (state' == state);
        check bool "another bucket list" false (buckets' == buckets);
        check bool "another header" false (header' == header);
        check string "an equal state" (Stellar_ledger.State.snapshot_hash state)
          (Stellar_ledger.State.snapshot_hash state');
        check string "an equal bucket list" (Stellar_bucket.Bucket_list.hash buckets)
          (Stellar_bucket.Bucket_list.hash buckets');
        check string "an equal header" (Stellar_ledger.Header.hash header)
          (Stellar_ledger.Header.hash header'));
    test_case "sharing closes is invisible to every node" `Quick (fun () ->
        (* one 4-validator network run twice: one memo for all, then one
           memo each; every node must count, trace and close alike *)
        let shared = Stellar_herder.Herder.memo () in
        same_runs
          (memo_run ~n:4 (fun _ -> shared))
          (memo_run ~n:4 (fun _ -> Stellar_herder.Herder.memo ())));
  ]

(* An envelope of [statement] under the signature of [secret]. *)
let signed secret statement =
  {
    Scp.Types.statement;
    signature = Stellar_crypto.Sim_sig.sign secret (Scp.Types.signing_bytes statement);
  }

let verify_memo_tests =
  let open Alcotest in
  let spec = Topology.all_to_all ~n:3 in
  let keys =
    Array.init 3 (fun i -> Stellar_crypto.Sim_sig.keypair ~seed:(spec.Topology.validator_seed i))
  in
  let nominate i ~slot vote =
    signed (fst keys.(i))
      {
        Scp.Types.node_id = snd keys.(i);
        slot;
        quorum_set = spec.Topology.qset_of i;
        pledge = Scp.Types.Nominate { votes = [ Stellar_crypto.Sha256.digest vote ]; accepted = [] };
      }
  in
  let verify = Stellar_herder.Herder.verify_envelope in
  [
    test_case "a forged envelope is rejected on a warm memo" `Quick (fun () ->
        let memo = Stellar_herder.Herder.memo () in
        let env = nominate 0 ~slot:2 "x" in
        check bool "checked" true (verify ~memo env);
        check bool "answered" true (verify ~memo env);
        check (pair int int) "one signature, one hit" (1, 1) (Stellar_herder.Herder.verified memo);
        (* the signature is valid, over other statement bytes *)
        let forged = { (nominate 0 ~slot:2 "y") with signature = env.Scp.Types.signature } in
        check bool "forged" false (verify ~memo forged);
        check bool "still forged" false (verify ~memo forged);
        (* an equal envelope that is not the one checked is checked again *)
        let copy = { env with Scp.Types.signature = env.Scp.Types.signature } in
        check bool "copy checked" true (verify ~memo copy);
        check (pair int int) "no hit but the first" (1, 1) (Stellar_herder.Herder.verified memo));
    test_case "a failed check is not memoized" `Quick (fun () ->
        let memo = Stellar_herder.Herder.memo () in
        let env = nominate 1 ~slot:2 "x" in
        let garbled = { env with Scp.Types.signature = String.make 64 's' } in
        List.iter
          (fun what ->
            check bool what false (verify ~memo garbled);
            check (pair int int) (what ^ ": nothing held") (0, 0)
              (Stellar_herder.Herder.verified memo))
          [ "garbled"; "garbled again" ];
        check bool "the real one" true (verify ~memo env);
        check (pair int int) "held" (1, 0) (Stellar_herder.Herder.verified memo));
    test_case "the memo holds the last 12 slots' signatures" `Quick (fun () ->
        let memo = Stellar_herder.Herder.memo () in
        let horizon = Stellar_herder.Herder.slots_to_remember in
        let held () = fst (Stellar_herder.Herder.verified memo) in
        for slot = 1 to (3 * horizon) + 5 do
          for i = 0 to 2 do
            check bool "checked" true (verify ~memo (nominate i ~slot "x"))
          done;
          check int (Printf.sprintf "held at slot %d" slot) (3 * min slot (horizon + 1)) (held ())
        done;
        let newest = (3 * horizon) + 5 in
        let old = nominate 0 ~slot:(newest - horizon - 1) "late" in
        check bool "one behind the horizon checks" true (verify ~memo old);
        check bool "and checks again" true (verify ~memo old);
        check (pair int int) "but is not held" (3 * (horizon + 1), 0)
          (Stellar_herder.Herder.verified memo));
    test_case "sharing checks is invisible to every node" `Quick (fun () ->
        let shared = Stellar_herder.Herder.memo () in
        let one = memo_run ~n:5 (fun _ -> shared) in
        let each = memo_run ~n:5 (fun _ -> Stellar_herder.Herder.memo ()) in
        let held, hits = Stellar_herder.Herder.verified shared in
        (* each signature served the other receivers of its envelope *)
        check bool "the shared memo answered most checks" true (hits > 2 * held);
        same_runs one each);
  ]

(* ---------- topology & genesis ---------- *)

let topo_tests =
  let open Alcotest in
  [
    test_case "all_to_all shape" `Quick (fun () ->
        let spec = Topology.all_to_all ~n:5 in
        check int "nodes" 5 spec.Topology.n_nodes;
        check int "peers" 4 (List.length (spec.Topology.peers_of 0));
        check int "majority threshold" 3 (spec.Topology.qset_of 0).Scp.Quorum_set.threshold);
    test_case "tiered default has 17 tier-1 validators" `Quick (fun () ->
        let _, orgs = Topology.tiered () in
        let tier1 =
          List.filter (fun o -> o.Quorum_analysis.Synthesis.quality = Quorum_analysis.Synthesis.Critical) orgs
        in
        let n = List.fold_left (fun acc o -> acc + List.length o.Quorum_analysis.Synthesis.validators) 0 tier1 in
        check int "17 tier-1" 17 n);
    test_case "tiered config enjoys quorum intersection" `Quick (fun () ->
        let spec, _ = Topology.tiered () in
        let config = Topology.network_config spec in
        check bool "intersecting" true
          (Quorum_analysis.Intersection.check config = Quorum_analysis.Intersection.Intersecting));
    test_case "genesis conserves the total supply" `Quick (fun () ->
        let state, accounts = Genesis.make ~n_accounts:100 () in
        check int "accounts + master" 101 (Stellar_ledger.State.account_count state);
        check int "supply" (Stellar_ledger.Asset.of_units 1_000_000_000_000)
          (Stellar_ledger.State.total_native state);
        check bool "keys distinct" true
          (Array.length accounts
          = List.length
              (List.sort_uniq String.compare
                 (Array.to_list (Array.map (fun a -> a.Genesis.public) accounts)))));
    test_case "genesis of 1000 accounts hashes to its pinned values" `Quick (fun () ->
        (* the sorted one-pass build must reproduce, byte for byte, the
           ledger the insertion-built genesis gave *)
        let state, accounts = Genesis.make ~n_accounts:1000 () in
        let hex = Stellar_crypto.Hex.encode in
        check string "bucket-list hash"
          "d0e30fefd1dfe19d95eac3cd81d394369cb245f0bb9f4d16babf1d4ebb91403c"
          (hex (Stellar_bucket.Bucket_list.hash (Stellar_bucket.Bucket_list.of_state state)));
        check string "snapshot hash"
          "e1e6ff6702f9035ca9d2b8a27c50d9e9c361a1baa83f93de495526e23ab8b2b3"
          (hex (Stellar_ledger.State.snapshot_hash state));
        check string "account 0's key"
          "2d1edd29df9900d4680bf929bc7be263b38fe13f52a747c18aef9f479f1a8b33"
          (hex accounts.(0).Genesis.public);
        check int "accounts in index order" 999 accounts.(999).Genesis.name);
  ]


(* ---------- archive-bootstrap join (§5.4) ---------- *)

let join_tests =
  let open Alcotest in
  [
    test_case "new node bootstraps from the archive and joins the network" `Quick
      (fun () ->
        (* 4 founding validators run and publish to an archive; later a 5th
           node catches up from the archive and starts tracking the live
           network in agreement *)
        let n = 5 in
        let engine = Stellar_sim.Engine.create () in
        let rng = Stellar_sim.Rng.create ~seed:17 in
        let network =
          Stellar_sim.Network.create ~engine ~rng ~n
            ~latency:Stellar_sim.Latency.datacenter ()
        in
        let genesis, _ = Genesis.make ~n_accounts:10 () in
        let archive = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
        let agreed, conflicts, check_agreement = agreement () in
        (* founders trust a majority of the four founders only *)
        let founder_ids = Array.init 4 (fun i -> (Topology.node_ids (Topology.all_to_all ~n:4)).(i)) in
        let qset = Scp.Quorum_set.majority (Array.to_list founder_ids) in
        let founders =
          Array.init 4 (fun i ->
              let on_ledger_closed ({ Stellar_herder.Herder.header; value; tx_set; buckets; _ } as stats) =
                check_agreement stats;
                if i = 0 then
                  Stellar_archive.Archive.record_ledger archive ~header ~value ~tx_set ~buckets
              in
              Validator.create ~network ~index:i
                ~peers:(List.filter (fun j -> j <> i) [ 0; 1; 2; 3; 4 ])
                ~config:
                  (Stellar_herder.Herder.default_config
                     ~seed:(Stellar_crypto.Sha256.digest (Printf.sprintf "validator-%d" i))
                     ~qset)
                ~genesis ~on_ledger_closed ())
        in
        Array.iter Validator.start founders;
        Stellar_sim.Engine.run ~until:31.0 engine;
        let founder_seq = Stellar_herder.Herder.ledger_seq (Validator.herder founders.(0)) in
        check bool "founders made progress" true (founder_seq >= 6);
        (* the newcomer catches up offline from the archive... *)
        let state, catchup_buckets, tip =
          match Stellar_archive.Archive.catchup ~memo:(Stellar_herder.Herder.memo ()) archive with
          | Ok (_, r) -> r
          | Error e -> fail e
        in
        let newcomer =
          Validator.create ~network ~index:4 ~peers:[ 0; 1; 2; 3 ]
            ~config:
              {
                (Stellar_herder.Herder.default_config
                   ~seed:(Stellar_crypto.Sha256.digest "newcomer") ~qset)
                with
                Stellar_herder.Herder.is_validator = false;
              }
            ~genesis:state ~buckets:catchup_buckets ~tip ()
        in
        Validator.start newcomer;
        let start_seq = Stellar_herder.Herder.ledger_seq (Validator.herder newcomer) in
        Stellar_sim.Engine.run ~until:(Stellar_sim.Engine.now engine +. 30.0) engine;
        let new_seq = Stellar_herder.Herder.ledger_seq (Validator.herder newcomer) in
        check bool "newcomer tracked new ledgers" true (new_seq > start_seq);
        (* and its chain head matches the founders' header at the same
           height, on which the founders agree *)
        check int "founders agree" 0 !conflicts;
        let new_head = Option.get (Stellar_herder.Herder.last_header (Validator.herder newcomer)) in
        match Hashtbl.find_opt agreed new_seq with
        | Some h ->
            check bool "same header hash" true
              (String.equal h (Stellar_ledger.Header.hash new_head))
        | None -> fail "founder does not have the newcomer's height yet");
  ]

let () =
  Alcotest.run "node"
    [
      ("integration", integration_tests);
      ("faults", fault_tests);
      ("archive", archive_tests);
      ("close-memo", memo_tests);
      ("verify-memo", verify_memo_tests);
      ("join", join_tests);
      ("topology", topo_tests);
    ]
