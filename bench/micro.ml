(* abl-crypto: Bechamel micro-benchmarks of the substrate design choices —
   real Ed25519 vs the simulated scheme, hashing, order-book crossing,
   transaction application, bucket merging, streamed tx-set
   and bucket hashing, the event core and the tracing paths. *)

open Bechamel

let make_tests () =
  let open Stellar_crypto in
  Sim_sig.reset ();
  let data64 = String.make 64 'x' in
  let data8k = String.make 8192 'x' in
  let ed_sk, ed_pk = Ed25519.keypair ~seed:(Sha256.digest "bench-ed") in
  let ed_sig = Ed25519.sign ed_sk data64 in
  let sim_sk, sim_pk = Sim_sig.keypair ~seed:(Sha256.digest "bench-sim") in
  let sim_sig = Sim_sig.sign sim_sk data64 in
  let a = Nat.of_bytes_be (Sha256.digest "a" ^ Sha256.digest "b") in
  let b = Nat.of_bytes_be (Sha256.digest "c" ^ Sha256.digest "d") in

  (* ledger fixtures *)
  let open Stellar_ledger in
  let scheme = (module Sim_sig : Sig_intf.SCHEME with type secret = string) in
  let genesis, accounts = Stellar_node.Genesis.make ~n_accounts:10_000 () in
  let state = State.set_header genesis ~ledger_seq:2 ~close_time:1000 in
  let pay (src : Stellar_node.Genesis.account) (dst : Stellar_node.Genesis.account) =
    let tx =
      Tx.make ~source:src.public ~seq_num:1
        [ Tx.op (Tx.Payment { destination = dst.public; asset = Asset.native; amount = 100 }) ]
    in
    Tx.sign tx ~secret:src.secret ~public:src.public ~scheme
  in
  let src = accounts.(0) in
  let payment = pay src accounts.(1) in
  (* a book with 100 resting offers to cross *)
  let usd = Asset.credit ~code:"USD" ~issuer:src.Stellar_node.Genesis.public in
  let book_state =
    let s = ref state in
    for i = 1 to 100 do
      let st, id = State.next_offer_id !s in
      s :=
        State.put_offer st
          {
            Entry.offer_id = id;
            seller = src.Stellar_node.Genesis.public;
            selling = usd;
            buying = Asset.native;
            amount = 1_000;
            price = Price.make ~n:(100 + i) ~d:100;
            passive = false;
          }
    done;
    !s
  in
  let bucket_items n tag =
    List.init n (fun i ->
        let acct =
          Entry.new_account
            ~id:(Sha256.digest (Printf.sprintf "%s-%d" tag i))
            ~balance:i ~seq_num:0
        in
        { Stellar_bucket.Bucket.key = Entry.Account_key acct.Entry.id;
          entry = Some (Entry.Account_entry acct) })
  in
  let bucket_a = Stellar_bucket.Bucket.of_items (bucket_items 10_000 "a") in
  (* the bucket list's merges: a 1,000-entry batch into level 0's two
     batches, and a full level 0 (four batches) spilling into a level 1
     that holds one earlier spill *)
  let batch_1k = bucket_items 1_000 "batch" in
  let level0_2k = Stellar_bucket.Bucket.of_items (bucket_items 2_000 "level-0") in
  let level0_4k = Stellar_bucket.Bucket.of_items (bucket_items 4_000 "full-0") in
  let level1_4k = Stellar_bucket.Bucket.of_items (bucket_items 4_000 "level-1") in
  let bucket_b = Stellar_bucket.Bucket.of_items (bucket_items 10_000 "b") in
  (* a 2,000-item run already in key order: of_items only checks the order
     and streams the items into SHA-256 *)
  let sorted_2k =
    Stellar_bucket.Bucket.items (Stellar_bucket.Bucket.of_items (bucket_items 2_000 "hash"))
  in
  (* a payments ledger's tx set: 1,000 signed payments, hashed as
     Tx_set.make does, streamed through one fixed chunk *)
  let tx_set_1k =
    Stellar_herder.Tx_set.make ~prev_header_hash:(Sha256.digest "prev")
      (List.init 1_000 (fun i -> pay accounts.(i) accounts.(i + 1)))
  in
  let tx_set_hash () =
    let ctx = Sha256.init () in
    ignore (Stellar_xdr.Xdr.stream Stellar_herder.Tx_set.xdr tx_set_1k (Sha256.update_sub ctx));
    Sha256.final ctx
  in
  let qset =
    Scp.Quorum_set.majority (List.init 19 (fun i -> Sha256.digest (Printf.sprintf "v%d" i)))
  in
  let members = Scp.Quorum_set.all_validators qset in
  let in_set v = List.mem v (List.filteri (fun i _ -> i < 10) members) in
  (* the two largest parts of one SCP envelope receive on the tiered
     topology (27 validators and 5 watchers, every statement carrying the
     one shared tiered quorum set): the quorum check and the signature check *)
  let tiered = fst (Stellar_node.Topology.tiered ~leaves:5 ()) in
  let tiered_qset = tiered.Stellar_node.Topology.qset_of 0 in
  let tiered_ids = Stellar_node.Topology.node_ids tiered in
  let tiered_statement i =
    Scp.Types.
      {
        node_id = tiered_ids.(i);
        slot = 2;
        quorum_set = tiered_qset;
        pledge = Nominate { votes = [ Sha256.digest "value" ]; accepted = [] };
      }
  in
  let tiered_index = Scp.Federation.create_index () in
  let tiered_statements =
    Array.to_seqi tiered_ids
    |> Seq.map (fun (i, v) -> (v, Scp.Federation.voter tiered_index (tiered_statement i)))
    |> Scp.Federation.Node_map.of_seq
  in
  let voted st =
    match st.Scp.Types.pledge with Scp.Types.Nominate n -> n.Scp.Types.votes <> [] | _ -> false
  in
  (* about a third of the nodes (by key byte) are ahead: enough to block
     some inner sets, not all *)
  let ahead st = Char.code st.Scp.Types.node_id.[0] mod 3 = 0 in
  (* one slot on node 0 holding PREPARE <1, v> from nodes 1-26; node 1
     re-sends its PREPARE under two sets in turn, so every delivery is new
     (a reconfiguration) and runs the ballot protocol's attempt steps.
     Every delivery checks its signature in full, as the herder's check
     does on a verify-memo miss. *)
  let slot_envelope =
    let driver =
      Scp.Driver.make
        ~emit_envelope:(fun _ -> ())
        ~sign:(fun _ -> "")
        ~verify:(fun env ->
          let st = env.Scp.Types.statement in
          Sim_sig.verify ~public:st.node_id ~msg:(Scp.Types.signing_bytes st)
            ~signature:env.signature)
        ~validate_value:(fun ~slot:_ _ -> Scp.Driver.Valid)
        ~combine_candidates:(fun ~slot:_ _ -> None)
        ~value_externalized:(fun ~slot:_ _ -> ())
        ~schedule:(fun ~delay:_ _ () -> ())
        ()
    in
    let slot =
      Scp.Slot.create ~index:2 ~local_id:tiered_ids.(0) ~get_qset:(fun () -> tiered_qset) ~driver
    in
    let prepare i qset =
      let st =
        Scp.Types.
          {
            node_id = tiered_ids.(i);
            slot = 2;
            quorum_set = qset;
            pledge =
              Prepare
                {
                  ballot = { counter = 1; value = Sha256.digest "value" };
                  prepared = None;
                  prepared_prime = None;
                  n_c = 0;
                  n_h = 0;
                };
          }
      in
      let signature =
        Sim_sig.sign (tiered.Stellar_node.Topology.validator_seed i) (Scp.Types.signing_bytes st)
      in
      { Scp.Types.statement = st; signature }
    in
    for i = 1 to 26 do
      ignore (Scp.Slot.process_envelope slot (prepare i tiered_qset))
    done;
    let envs =
      [| prepare 1 tiered_qset; prepare 1 { tiered_qset with threshold = tiered_qset.threshold - 1 } |]
    in
    let turn = ref 0 in
    fun () ->
      turn := 1 - !turn;
      Scp.Slot.process_envelope slot envs.(!turn)
  in
  let statement = tiered_statement 0 in
  let statement_sig =
    Sim_sig.sign (tiered.Stellar_node.Topology.validator_seed 0) (Scp.Types.signing_bytes statement)
  in
  (* the herder's check through a warm verify memo: a hit on the envelope
     it checked, and a miss on its forged twin (node 0's valid signature
     over node 1's statement), which is checked in full on every call *)
  let verify_memo = Stellar_herder.Herder.memo () in
  let memo_verify = Stellar_herder.Herder.verify_envelope ~memo:verify_memo in
  let checked = { Scp.Types.statement; signature = statement_sig } in
  let forged = { checked with Scp.Types.statement = tiered_statement 1 } in
  if not (memo_verify checked) then failwith "scp/verify-memo: envelope rejected";
  (* tracing: the trace's append and walk, and a hot-path counter update
     through a resolved handle against one looked up by name *)
  let module Obs = Stellar_obs in
  let hash32 = Sha256.digest "hex-input" in
  let trace_100k () =
    let trace = Obs.Trace.create () in
    let sink = Obs.Sink.make ~trace ~node:0 ~now:(fun () -> 1.0) (Obs.Registry.create ()) in
    for i = 1 to 100_000 do
      Obs.Sink.emit sink (Obs.Event.Dedup_drop { kind = "scp"; src = i; bytes = 200 })
    done;
    let n = ref 0 in
    Obs.Trace.iter trace (fun _ -> incr n);
    !n
  in
  let counter_sink = Obs.Sink.make ~node:0 ~now:(fun () -> 0.0) (Obs.Registry.create ()) in
  let counter_handle = Obs.Sink.counter counter_sink "flood.dup_dropped" in
  (* the event core at tiered's peak queue depth (7,669 pending events):
     each call schedules one event due now and runs it, a full push and pop
     through a heap that deep, while the far-future events stay queued *)
  let engine = Stellar_sim.Engine.create () in
  for i = 1 to 7_669 do
    ignore (Stellar_sim.Engine.schedule engine ~delay:(1e6 +. float_of_int i) ignore)
  done;
  let engine_event () =
    ignore (Stellar_sim.Engine.schedule engine ~delay:0.0 ignore);
    Stellar_sim.Engine.run ~until:(Stellar_sim.Engine.now engine) engine
  in
  [
    Test.make ~name:"hex/encode-32B" (Staged.stage (fun () -> ignore (Hex.encode hash32)));
    Test.make ~name:"obs/trace-record-100k" (Staged.stage (fun () -> ignore (trace_100k ())));
    Test.make ~name:"obs/counter-handle"
      (Staged.stage (fun () -> Obs.Registry.incr counter_handle));
    Test.make ~name:"obs/counter-by-name"
      (Staged.stage (fun () -> Obs.Sink.incr counter_sink "flood.dup_dropped"));
    Test.make ~name:"sim/engine" (Staged.stage engine_event);
    Test.make ~name:"sha256/64B" (Staged.stage (fun () -> ignore (Sha256.digest data64)));
    Test.make ~name:"sha256/8KiB" (Staged.stage (fun () -> ignore (Sha256.digest data8k)));
    Test.make ~name:"sha512/8KiB" (Staged.stage (fun () -> ignore (Sha512.digest data8k)));
    Test.make ~name:"hmac-sha256/64B"
      (Staged.stage (fun () -> ignore (Hmac.sha256 ~key:"k" data64)));
    (let key = Hmac.prepare "k" in
     Test.make ~name:"hmac-sha256/prepared-64B"
       (Staged.stage (fun () -> ignore (Hmac.mac key data64))));
    Test.make ~name:"tx/hash" (Staged.stage (fun () -> ignore (Tx.hash payment.Tx.tx)));
    Test.make ~name:"ed25519/sign" (Staged.stage (fun () -> ignore (Ed25519.sign ed_sk data64)));
    Test.make ~name:"ed25519/verify"
      (Staged.stage (fun () ->
           ignore (Ed25519.verify ~public:ed_pk ~msg:data64 ~signature:ed_sig)));
    Test.make ~name:"sim-sig/sign" (Staged.stage (fun () -> ignore (Sim_sig.sign sim_sk data64)));
    Test.make ~name:"sim-sig/verify"
      (Staged.stage (fun () ->
           ignore (Sim_sig.verify ~public:sim_pk ~msg:data64 ~signature:sim_sig)));
    Test.make ~name:"nat/mul-512bit" (Staged.stage (fun () -> ignore (Nat.mul a b)));
    Test.make ~name:"nat/divmod-512bit" (Staged.stage (fun () -> ignore (Nat.divmod (Nat.mul a b) b)));
    Test.make ~name:"ledger/apply-payment"
      (Staged.stage (fun () -> ignore (Apply.apply_tx Apply.sim_ctx state payment)));
    Test.make ~name:"ledger/cross-100-offers"
      (Staged.stage (fun () ->
           ignore
             (Exchange.cross book_state ~give_asset:Asset.native ~get_asset:usd
                ~want_get:50_000 ())));
    Test.make ~name:"bucket/merge-2x10k"
      (Staged.stage (fun () ->
           ignore
             (Stellar_bucket.Bucket.merge ~newer:bucket_a ~older:bucket_b
                ~keep_tombstones:true)));
    Test.make ~name:"bucket/merge-level0-1k"
      (Staged.stage (fun () ->
           ignore (Stellar_bucket.Bucket.merge_batch batch_1k ~older:level0_2k)));
    Test.make ~name:"bucket/spill-level1-4k"
      (Staged.stage (fun () ->
           ignore
             (Stellar_bucket.Bucket.merge ~newer:level0_4k ~older:level1_4k
                ~keep_tombstones:true)));
    Test.make ~name:"bucket/hash-2k"
      (Staged.stage (fun () -> ignore (Stellar_bucket.Bucket.of_items sorted_2k)));
    Test.make ~name:"txset/hash-1000" (Staged.stage (fun () -> ignore (tx_set_hash ())));
    Test.make ~name:"scp/quorum-slice-19"
      (Staged.stage (fun () -> ignore (Scp.Quorum_set.is_quorum_slice qset in_set)));
    Test.make ~name:"scp/v-blocking-19"
      (Staged.stage (fun () -> ignore (Scp.Quorum_set.is_v_blocking qset in_set)));
    Test.make ~name:"scp/is_quorum"
      (Staged.stage (fun () ->
           ignore
             (Scp.Federation.is_quorum tiered_index ~local_qset:tiered_qset tiered_statements
                voted)));
    Test.make ~name:"scp/is_v_blocking"
      (Staged.stage (fun () ->
           ignore
             (Scp.Federation.is_v_blocking_set tiered_index ~local_qset:tiered_qset
                tiered_statements ahead)));
    Test.make ~name:"scp/slot-envelope"
      (Staged.stage (fun () ->
           match slot_envelope () with
           | `Processed -> ()
           | `Stale | `Invalid -> failwith "scp/slot-envelope: envelope not processed"));
    Test.make ~name:"scp/verify-memo-hit"
      (Staged.stage (fun () ->
           if not (memo_verify checked) then failwith "scp/verify-memo-hit: envelope rejected"));
    Test.make ~name:"scp/verify-memo-miss"
      (Staged.stage (fun () ->
           if memo_verify forged then failwith "scp/verify-memo-miss: forged envelope accepted"));
    Test.make ~name:"sim-sig/verify-statement"
      (Staged.stage (fun () ->
           ignore
             (Sim_sig.verify ~public:statement.Scp.Types.node_id
                ~msg:(Scp.Types.signing_bytes statement) ~signature:statement_sig)));
  ]

let run () =
  Common.section "abl-crypto: substrate micro-benchmarks (Bechamel)"
    "design-choice ablations: real vs simulated crypto, core data paths";
  let tests = make_tests () in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~stabilize:false ~kde:None ()
  in
  let grouped = Test.make_grouped ~name:"micro" ~fmt:"%s %s" tests in
  let raw = Benchmark.all cfg [ instance ] grouped in
  let results = Analyze.all ols instance raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  Common.row "%-32s | %14s@." "operation" "time/op";
  Common.row "---------------------------------+----------------@.";
  List.iter
    (fun (name, ols) ->
      let ns =
        match Analyze.OLS.estimates ols with Some [ x ] -> x | _ -> Float.nan
      in
      let pretty =
        if ns >= 1_000_000.0 then Printf.sprintf "%.2f ms" (ns /. 1_000_000.0)
        else if ns >= 1_000.0 then Printf.sprintf "%.2f us" (ns /. 1_000.0)
        else Printf.sprintf "%.0f ns" ns
      in
      Common.row "%-32s | %14s@." name pretty)
    rows;
  Common.row "note: sim-sig trades ~3 orders of magnitude vs ed25519, motivating@.";
  Common.row "the registry-based scheme for large in-process simulations.@."
