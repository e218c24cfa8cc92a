open Stellar_herder
open Stellar_ledger

let scheme = (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME
               with type secret = string)

let kp name = Stellar_crypto.Sim_sig.keypair ~seed:(Stellar_crypto.Sha256.digest name)

(* ---------- consensus value codec & combination ---------- *)

let h32 s = Stellar_crypto.Sha256.digest s

let value_tests =
  let open Alcotest in
  [
    test_case "encode/decode roundtrip" `Quick (fun () ->
        let v =
          Value.
            {
              tx_set_hash = h32 "ts";
              close_time = 123456;
              upgrades = [ Value.Upgrade_base_fee 200; Value.Upgrade_protocol_version 2 ];
            }
        in
        check bool "roundtrip" true (Value.decode (Value.encode v) = Some v));
    test_case "decode rejects garbage" `Quick (fun () ->
        check bool "junk" true (Value.decode "nonsense" = None);
        check bool "empty" true (Value.decode "" = None);
        let v = Value.{ tx_set_hash = h32 "x"; close_time = 1; upgrades = [] } in
        let enc = Value.encode v in
        check bool "trailing bytes" true (Value.decode (enc ^ "x") = None));
    test_case "combine: highest close time, upgrade union" `Quick (fun () ->
        let a = Tx_set.make ~prev_header_hash:(h32 "a") [] in
        let b = Tx_set.make ~prev_header_hash:(h32 "b") [] in
        let lookup h = List.find_opt (fun ts -> Tx_set.hash ts = h) [ a; b ] in
        let v1 = Value.{ tx_set_hash = Tx_set.hash a; close_time = 10; upgrades = [ Value.Upgrade_base_fee 200 ] } in
        let v2 = Value.{ tx_set_hash = Tx_set.hash b; close_time = 12; upgrades = [ Value.Upgrade_base_fee 150; Value.Upgrade_base_reserve 9 ] } in
        match Value.combine_with ~lookup [ v1; v2 ] with
        | None -> fail "no combination"
        | Some v ->
            check int "max close" 12 v.Value.close_time;
            check bool "higher fee wins" true
              (List.mem (Value.Upgrade_base_fee 200) v.Value.upgrades);
            check bool "reserve kept" true
              (List.mem (Value.Upgrade_base_reserve 9) v.Value.upgrades));
    test_case "combine_with prefers most operations" `Quick (fun () ->
        let _, alice = kp "alice" and _, bob = kp "bob" in
        let mk_ts n_ops =
          let txs =
            List.init n_ops (fun i ->
                let tx =
                  Tx.make ~source:alice ~seq_num:(i + 1)
                    [ Tx.op (Tx.Payment { destination = bob; asset = Asset.native; amount = 1 }) ]
                in
                Tx.sign tx ~secret:(fst (kp "alice")) ~public:alice ~scheme)
          in
          Tx_set.make ~prev_header_hash:(h32 "prev") txs
        in
        let small = mk_ts 1 and big = mk_ts 3 in
        let lookup h =
          if h = Tx_set.hash small then Some small
          else if h = Tx_set.hash big then Some big
          else None
        in
        let v_small = Value.{ tx_set_hash = Tx_set.hash small; close_time = 5; upgrades = [] } in
        let v_big = Value.{ tx_set_hash = Tx_set.hash big; close_time = 4; upgrades = [] } in
        match Value.combine_with ~lookup [ v_small; v_big ] with
        | Some v ->
            check bool "big set chosen" true (v.Value.tx_set_hash = Tx_set.hash big);
            check int "still max close time" 5 v.Value.close_time
        | None -> fail "no combination");
    test_case "upgrade validity bounds" `Quick (fun () ->
        check bool "fee ok" true (Value.valid_upgrade (Value.Upgrade_base_fee 100));
        check bool "fee zero bad" false (Value.valid_upgrade (Value.Upgrade_base_fee 0));
        check bool "absurd reserve bad" false
          (Value.valid_upgrade (Value.Upgrade_base_reserve 1_000_000_000)));
    test_case "apply_upgrades changes parameters" `Quick (fun () ->
        let _, master = kp "m" in
        let state = State.genesis ~master ~total_xlm:100 () in
        let state' =
          Value.apply_upgrades state
            [ Value.Upgrade_base_fee 777; Value.Upgrade_protocol_version 3 ]
        in
        check int "fee" 777 (State.base_fee state');
        check int "version" 3 (State.protocol_version state'));
  ]

(* ---------- tx sets ---------- *)

let tx_set_tests =
  let open Alcotest in
  [
    test_case "hash independent of submission order" `Quick (fun () ->
        let sa, alice = kp "alice" and _, bob = kp "bob" in
        let mk i =
          let tx =
            Tx.make ~source:alice ~seq_num:i
              [ Tx.op (Tx.Payment { destination = bob; asset = Asset.native; amount = i }) ]
          in
          Tx.sign tx ~secret:sa ~public:alice ~scheme
        in
        let t1 = Tx_set.make ~prev_header_hash:(h32 "p") [ mk 1; mk 2; mk 3 ] in
        let t2 = Tx_set.make ~prev_header_hash:(h32 "p") [ mk 3; mk 1; mk 2 ] in
        check bool "equal hashes" true (Tx_set.hash t1 = Tx_set.hash t2));
    test_case "hash binds previous header" `Quick (fun () ->
        let t1 = Tx_set.make ~prev_header_hash:(h32 "p1") [] in
        let t2 = Tx_set.make ~prev_header_hash:(h32 "p2") [] in
        check bool "different" false (Tx_set.hash t1 = Tx_set.hash t2));
    test_case "op and fee accounting" `Quick (fun () ->
        let sa, alice = kp "alice" and _, bob = kp "bob" in
        let tx =
          Tx.make ~source:alice ~seq_num:1
            [
              Tx.op (Tx.Payment { destination = bob; asset = Asset.native; amount = 1 });
              Tx.op (Tx.Payment { destination = bob; asset = Asset.native; amount = 2 });
            ]
        in
        let ts = Tx_set.make ~prev_header_hash:(h32 "p") [ Tx.sign tx ~secret:sa ~public:alice ~scheme ] in
        check int "ops" 2 (Tx_set.op_count ts);
        check int "fees" 200 (Tx_set.total_fees ts));
  ]

(* ---------- tx queue ---------- *)

let queue_tests =
  let open Alcotest in
  let setup () =
    let sa, alice = kp "alice" and _, bob = kp "bob" in
    let state = State.genesis ~master:alice ~total_xlm:(Asset.of_units 100) () in
    let mk seq =
      let tx =
        Tx.make ~source:alice ~seq_num:seq
          [ Tx.op (Tx.Payment { destination = bob; asset = Asset.native; amount = 1 }) ]
      in
      Tx.sign tx ~secret:sa ~public:alice ~scheme
    in
    (state, mk)
  in
  [
    test_case "duplicates rejected" `Quick (fun () ->
        let _, mk = setup () in
        let q = Tx_queue.create () in
        check bool "first" true (Tx_queue.add q (mk 1));
        check bool "dup" false (Tx_queue.add q (mk 1));
        check int "size" 1 (Tx_queue.size q));
    test_case "candidates follow the sequence chain" `Quick (fun () ->
        let state, mk = setup () in
        let q = Tx_queue.create () in
        ignore (Tx_queue.add q (mk 1));
        ignore (Tx_queue.add q (mk 2));
        ignore (Tx_queue.add q (mk 4));
        (* gap at 3 *)
        let c = Tx_queue.candidates q ~state ~max_ops:100 in
        check int "chain stops at the gap" 2 (List.length c));
    test_case "max_ops respected" `Quick (fun () ->
        let state, mk = setup () in
        let q = Tx_queue.create () in
        for i = 1 to 10 do
          ignore (Tx_queue.add q (mk i))
        done;
        check int "capped" 3 (List.length (Tx_queue.candidates q ~state ~max_ops:3)));
    test_case "surge pricing: highest fee-per-op chains win" `Quick (fun () ->
        (* two funded accounts compete for one slot of 2 ops *)
        let sa, alice = kp "alice" and sb, bob = kp "bob" in
        let state = State.genesis ~master:alice ~total_xlm:(Asset.of_units 100) () in
        let state, _ =
          Apply.apply_tx Apply.sim_ctx state
            (Tx.sign
               (Tx.make ~source:alice ~seq_num:1
                  [ Tx.op (Tx.Create_account { destination = bob; starting_balance = Asset.of_units 10 }) ])
               ~secret:sa ~public:alice ~scheme)
        in
        let q = Tx_queue.create () in
        let pay source secret seq fee =
          Tx.sign
            (Tx.make ~source ~seq_num:seq ~fee
               [ Tx.op (Tx.Payment { destination = alice; asset = Asset.native; amount = 1 }) ])
            ~secret ~public:source ~scheme
        in
        (* alice queues two cheap txs, bob one expensive tx *)
        ignore (Tx_queue.add q (pay alice sa 2 100));
        ignore (Tx_queue.add q (pay alice sa 3 100));
        let bob_seq = (Option.get (State.account state bob)).Entry.seq_num in
        ignore (Tx_queue.add q (pay bob sb (bob_seq + 1) 900));
        let picked = Tx_queue.candidates q ~state ~max_ops:2 in
        check int "two picked" 2 (List.length picked);
        check bool "bob's expensive tx included" true
          (List.exists (fun s -> String.equal s.Tx.tx.Tx.source bob) picked));
    test_case "remove_applied and purge" `Quick (fun () ->
        let state, mk = setup () in
        let q = Tx_queue.create () in
        ignore (Tx_queue.add q (mk 1));
        ignore (Tx_queue.add q (mk 2));
        Tx_queue.remove_applied q [ mk 1 ];
        check int "one left" 1 (Tx_queue.size q);
        (* if the account's seq has advanced past 2, purge drops it *)
        let state =
          match State.account state (snd (kp "alice")) with
          | Some a -> State.put_account state { a with Stellar_ledger.Entry.seq_num = 5 }
          | None -> state
        in
        check int "purged" 1 (List.length (Tx_queue.purge_invalid q ~state));
        check int "empty" 0 (Tx_queue.size q));
  ]

(* The spec is the queue's former [add]: a stable sort by sequence number
   of the new tx consed onto the account's chain. *)
let queue_order_prop =
  QCheck.Test.make ~name:"add keeps the order a stable sort gives" ~count:300
    QCheck.(small_list (pair (int_bound 8) (int_bound 3)))
    (fun inserts ->
      let state = State.genesis ~master:(snd (kp "alice")) ~total_xlm:(Asset.of_units 100) () in
      let mk (seq, fee) =
        Tx.make_signed (Tx.make ~source:"no-account" ~seq_num:seq ~fee:(100 + fee) []) []
      in
      let q = Tx_queue.create () in
      let spec =
        List.fold_left
          (fun chain insert ->
            let signed = mk insert in
            if Tx_queue.add q signed then
              List.sort (fun a b -> Int.compare a.Tx.tx.Tx.seq_num b.Tx.tx.Tx.seq_num)
                (signed :: chain)
            else chain)
          [] inserts
      in
      (* The source has no account, so purge drops its whole chain and
         returns it last tx first. *)
      let hashes = List.map (fun s -> s.Tx.tx_hash) in
      hashes (List.rev (Tx_queue.purge_invalid q ~state)) = hashes spec)

let () =
  Alcotest.run "herder"
    [
      ("value", value_tests);
      ("tx-set", tx_set_tests);
      ("tx-queue", queue_tests @ [ QCheck_alcotest.to_alcotest queue_order_prop ]);
    ]
