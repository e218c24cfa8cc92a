open Stellar_ledger

let scheme = (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME
               with type secret = string)

(* Deterministic key material. *)
let keys = Hashtbl.create 16

let key name =
  match Hashtbl.find_opt keys name with
  | Some kp -> kp
  | None ->
      let seed = Stellar_crypto.Sha256.digest ("ledger-test-" ^ name) in
      let kp = Stellar_crypto.Sim_sig.keypair ~seed in
      Hashtbl.add keys name kp;
      kp

let pub name = snd (key name)
let sec name = fst (key name)

let ctx = Apply.sim_ctx

let xlm = Asset.of_units

(* A fresh ledger with some funded accounts. *)
let setup names =
  Stellar_crypto.Sim_sig.reset ();
  Hashtbl.reset keys;
  let master = pub "master" in
  let state = State.genesis ~master ~total_xlm:(xlm 1_000_000_000) () in
  let state = State.set_header state ~ledger_seq:2 ~close_time:1000 in
  List.fold_left
    (fun state name ->
      let dest = pub name in
      let seq = (Option.get (State.account state master)).Entry.seq_num + 1 in
      let tx =
        Tx.make ~source:master ~seq_num:seq
          [ Tx.op (Tx.Create_account { destination = dest; starting_balance = xlm 10_000 }) ]
      in
      let signed = Tx.sign tx ~secret:(sec "master") ~public:master ~scheme in
      let state', outcome = Apply.apply_tx ctx state signed in
      if not (Apply.tx_succeeded outcome) then
        Alcotest.failf "setup create %s failed: %a" name Apply.pp_tx_outcome outcome;
      state')
    state names

let next_seq state name = (Option.get (State.account state (pub name))).Entry.seq_num + 1

let submit ?(signers = []) state name ops =
  let source = pub name in
  let tx = Tx.make ~source ~seq_num:(next_seq state name) ops in
  let signed = Tx.sign tx ~secret:(sec name) ~public:source ~scheme in
  let signed =
    List.fold_left
      (fun s signer -> Tx.co_sign s ~secret:(sec signer) ~public:(pub signer) ~scheme)
      signed signers
  in
  Apply.apply_tx ctx state signed

let expect_success (state, outcome) =
  if not (Apply.tx_succeeded outcome) then
    Alcotest.failf "expected success, got %a" Apply.pp_tx_outcome outcome;
  (match State.check_integrity state with
  | Ok () -> ()
  | Error e -> Alcotest.failf "integrity: %s" e);
  state

let expect_op_failure expected (state, outcome) =
  (match outcome with
  | Apply.Tx_failed results ->
      let last = List.nth results (List.length results - 1) in
      Alcotest.(check string)
        "op result" (Format.asprintf "%a" Apply.pp_op_result expected)
        (Format.asprintf "%a" Apply.pp_op_result last)
  | other -> Alcotest.failf "expected op failure, got %a" Apply.pp_tx_outcome other);
  state

let balance state name = (Option.get (State.account state (pub name))).Entry.balance

let trust_balance state name asset =
  match State.trustline state (pub name) asset with
  | Some tl -> tl.Entry.tl_balance
  | None -> 0

let usd () = Asset.credit ~code:"USD" ~issuer:(pub "issuer")

(* Give [name] a trustline and [amount] USD from the issuer. *)
let fund_usd state name amount =
  let state =
    expect_success (submit state name [ Tx.op (Tx.Change_trust { asset = usd (); limit = xlm 1_000_000 }) ])
  in
  if amount > 0 then
    expect_success
      (submit state "issuer"
         [ Tx.op (Tx.Payment { destination = pub name; asset = usd (); amount }) ])
  else state

(* ---------- payments ---------- *)

let payment_tests =
  let open Alcotest in
  [
    test_case "native payment moves balance" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let before = balance state "bob" in
        let state =
          expect_success
            (submit state "alice"
               [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = xlm 5 }) ])
        in
        check int "bob received" (before + xlm 5) (balance state "bob"));
    test_case "payment charges fee" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let before = balance state "alice" in
        let state =
          expect_success
            (submit state "alice"
               [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = xlm 5 }) ])
        in
        check int "alice paid amount + fee" (before - xlm 5 - 100) (balance state "alice");
        (* setup itself paid creation fees into the pool; check the delta *)
        check int "fee pool grew by the fee" 300 (State.fee_pool state));
    test_case "underfunded payment fails atomically" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let before_bob = balance state "bob" in
        let state =
          expect_op_failure Apply.Op_underfunded
            (submit state "alice"
               [
                 Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = xlm 1 });
                 Tx.op
                   (Tx.Payment
                      { destination = pub "bob"; asset = Asset.native; amount = xlm 1_000_000 });
               ])
        in
        check int "first op rolled back too" before_bob (balance state "bob"));
    test_case "payment respects reserve" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        (* alice has 10k XLM, reserve with 0 sub entries is 1 XLM *)
        expect_op_failure Apply.Op_underfunded
          (submit state "alice"
             [
               Tx.op
                 (Tx.Payment
                    { destination = pub "bob"; asset = Asset.native; amount = xlm 10_000 });
             ])
        |> ignore);
    test_case "payment to missing account fails" `Quick (fun () ->
        let state = setup [ "alice" ] in
        expect_op_failure Apply.Op_no_destination
          (submit state "alice"
             [
               Tx.op
                 (Tx.Payment
                    { destination = pub "ghost"; asset = Asset.native; amount = xlm 1 });
             ])
        |> ignore);
    test_case "sequence numbers enforced" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice" + 5)
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "bad seq" true (outcome = Apply.Tx_bad_seq));
    test_case "replay rejected" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let state, outcome = Apply.apply_tx ctx state signed in
        check bool "first ok" true (Apply.tx_succeeded outcome);
        let _, outcome2 = Apply.apply_tx ctx state signed in
        check bool "replay rejected" true (outcome2 = Apply.Tx_bad_seq));
    test_case "wrong signature rejected" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "bob") ~public:(pub "bob") ~scheme in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "bad auth" true (outcome = Apply.Tx_bad_auth));
    test_case "time bounds" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let mk bounds =
          let tx =
            Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
              ~time_bounds:bounds
              [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
          in
          snd (Apply.apply_tx ctx state (Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme))
        in
        check bool "too early" true
          (mk { Tx.min_time = 2000; max_time = 0 } = Apply.Tx_too_early);
        check bool "too late" true
          (mk { Tx.min_time = 0; max_time = 500 } = Apply.Tx_too_late);
        check bool "in range" true
          (Apply.tx_succeeded (mk { Tx.min_time = 500; max_time = 1500 })));
    test_case "fee below minimum rejected" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice") ~fee:10
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let _, outcome =
          Apply.apply_tx ctx state (Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme)
        in
        check bool "insufficient fee" true (outcome = Apply.Tx_insufficient_fee));
  ]

(* ---------- trustlines, issuance, authorization ---------- *)

let trust_tests =
  let open Alcotest in
  [
    test_case "issue and pay a credit asset" `Quick (fun () ->
        let state = setup [ "issuer"; "alice"; "bob" ] in
        let state = fund_usd state "alice" (xlm 100) in
        let state = fund_usd state "bob" 0 in
        let state =
          expect_success
            (submit state "alice"
               [ Tx.op (Tx.Payment { destination = pub "bob"; asset = usd (); amount = xlm 30 }) ])
        in
        check int "alice" (xlm 70) (trust_balance state "alice" (usd ()));
        check int "bob" (xlm 30) (trust_balance state "bob" (usd ())));
    test_case "payment without trustline fails" `Quick (fun () ->
        let state = setup [ "issuer"; "alice"; "bob" ] in
        let state = fund_usd state "alice" (xlm 100) in
        expect_op_failure Apply.Op_no_trustline
          (submit state "alice"
             [ Tx.op (Tx.Payment { destination = pub "bob"; asset = usd (); amount = 1 }) ])
        |> ignore);
    test_case "trustline limit enforced" `Quick (fun () ->
        let state = setup [ "issuer"; "alice" ] in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Change_trust { asset = usd (); limit = 100 }) ])
        in
        expect_op_failure Apply.Op_line_full
          (submit state "issuer"
             [ Tx.op (Tx.Payment { destination = pub "alice"; asset = usd (); amount = 200 }) ])
        |> ignore);
    test_case "issuer redeems its own asset" `Quick (fun () ->
        let state = setup [ "issuer"; "alice" ] in
        let state = fund_usd state "alice" (xlm 50) in
        let state =
          expect_success
            (submit state "alice"
               [ Tx.op (Tx.Payment { destination = pub "issuer"; asset = usd (); amount = xlm 20 }) ])
        in
        check int "burned" (xlm 30) (State.total_issued state (usd ())));
    test_case "auth_required blocks until allowed (KYC flow §5.1)" `Quick (fun () ->
        let state = setup [ "issuer"; "alice" ] in
        let state =
          expect_success
            (submit state "issuer"
               [
                 Tx.op
                   (Tx.Set_options
                      {
                        master_weight = None;
                        low = None;
                        medium = None;
                        high = None;
                        signer = None;
                        home_domain = None;
                        set_auth_required = Some true;
                        set_auth_revocable = Some true;
                        set_auth_immutable = None;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Change_trust { asset = usd (); limit = xlm 100 }) ])
        in
        (* unauthorized: issuer cannot pay alice yet *)
        let state =
          expect_op_failure Apply.Op_not_authorized
            (submit state "issuer"
               [ Tx.op (Tx.Payment { destination = pub "alice"; asset = usd (); amount = 1 }) ])
        in
        (* issuer authorizes (AllowTrust), then payment works *)
        let state =
          expect_success
            (submit state "issuer"
               [
                 Tx.op
                   (Tx.Allow_trust { trustor = pub "alice"; asset_code = "USD"; authorize = true });
               ])
        in
        let state =
          expect_success
            (submit state "issuer"
               [ Tx.op (Tx.Payment { destination = pub "alice"; asset = usd (); amount = 5 }) ])
        in
        (* and can revoke again *)
        let state =
          expect_success
            (submit state "issuer"
               [
                 Tx.op
                   (Tx.Allow_trust
                      { trustor = pub "alice"; asset_code = "USD"; authorize = false });
               ])
        in
        expect_op_failure Apply.Op_not_authorized
          (submit state "alice"
             [ Tx.op (Tx.Payment { destination = pub "issuer"; asset = usd (); amount = 1 }) ])
        |> ignore);
    test_case "delete trustline requires zero balance" `Quick (fun () ->
        let state = setup [ "issuer"; "alice" ] in
        let state = fund_usd state "alice" 5 in
        let state =
          expect_op_failure Apply.Op_trust_non_empty
            (submit state "alice" [ Tx.op (Tx.Change_trust { asset = usd (); limit = 0 }) ])
        in
        let state =
          expect_success
            (submit state "alice"
               [ Tx.op (Tx.Payment { destination = pub "issuer"; asset = usd (); amount = 5 }) ])
        in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Change_trust { asset = usd (); limit = 0 }) ])
        in
        check bool "gone" true (State.trustline state (pub "alice") (usd ()) = None));
    test_case "trustline requires reserve" `Quick (fun () ->
        let state = setup [ "issuer"; "poor" ] in
        (* Drain poor down to the bare minimum (reserve 1 XLM + fees). *)
        let spare = balance state "poor" - xlm 1 - 200 in
        let state =
          expect_success
            (submit state "poor"
               [
                 Tx.op
                   (Tx.Payment
                      { destination = pub "issuer"; asset = Asset.native; amount = spare });
               ])
        in
        expect_op_failure Apply.Op_low_reserve
          (submit state "poor" [ Tx.op (Tx.Change_trust { asset = usd (); limit = 10 }) ])
        |> ignore);
  ]

(* ---------- multisig ---------- *)

let multisig_tests =
  let open Alcotest in
  let add_signer state name signer_name weight =
    expect_success
      (submit state name
         [
           Tx.op
             (Tx.Set_options
                {
                  master_weight = None;
                  low = None;
                  medium = None;
                  high = None;
                  signer = Some (Tx.Set_signer { Entry.key = pub signer_name; weight });
                  home_domain = None;
                  set_auth_required = None;
                  set_auth_revocable = None;
                  set_auth_immutable = None;
                });
         ])
  in
  let set_thresholds state name (low, medium, high) =
    expect_success
      (submit state name
         [
           Tx.op
             (Tx.Set_options
                {
                  master_weight = None;
                  low = Some low;
                  medium = Some medium;
                  high = Some high;
                  signer = None;
                  home_domain = None;
                  set_auth_required = None;
                  set_auth_revocable = None;
                  set_auth_immutable = None;
                });
         ])
  in
  [
    test_case "2-of-2 multisig payment" `Quick (fun () ->
        let state = setup [ "alice"; "bob"; "carol" ] in
        let state = add_signer state "alice" "carol" 1 in
        let state = set_thresholds state "alice" (1, 2, 2) in
        (* single signature no longer enough for a payment (medium=2) *)
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let single = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let _, outcome = Apply.apply_tx ctx state single in
        check bool "single insufficient" true (outcome = Apply.Tx_bad_auth);
        let both = Tx.co_sign single ~secret:(sec "carol") ~public:(pub "carol") ~scheme in
        let _, outcome2 = Apply.apply_tx ctx state both in
        check bool "both sign ok" true (Apply.tx_succeeded outcome2));
    test_case "signer alone can act within weight" `Quick (fun () ->
        let state = setup [ "alice"; "bob"; "carol" ] in
        let state = add_signer state "alice" "carol" 5 in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "carol") ~public:(pub "carol") ~scheme in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "carol signs for alice" true (Apply.tx_succeeded outcome));
    test_case "deauthorized master key (§5.1)" `Quick (fun () ->
        let state = setup [ "alice"; "bob"; "carol" ] in
        let state = add_signer state "alice" "carol" 1 in
        (* master weight 0: the key that names the account loses power *)
        let state =
          expect_success
            (submit state "alice" ~signers:[]
               [
                 Tx.op
                   (Tx.Set_options
                      {
                        master_weight = Some 0;
                        low = None;
                        medium = None;
                        high = None;
                        signer = None;
                        home_domain = None;
                        set_auth_required = None;
                        set_auth_revocable = None;
                        set_auth_immutable = None;
                      });
               ])
        in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let by_master = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let _, outcome = Apply.apply_tx ctx state by_master in
        check bool "master rejected" true (outcome = Apply.Tx_bad_auth);
        let by_signer = Tx.sign tx ~secret:(sec "carol") ~public:(pub "carol") ~scheme in
        let _, outcome2 = Apply.apply_tx ctx state by_signer in
        check bool "signer accepted" true (Apply.tx_succeeded outcome2));
    test_case "ops with distinct sources need all signatures" `Quick (fun () ->
        (* the paper's land_token-deal: one tx moving assets of two accounts *)
        let state = setup [ "alice"; "bob" ] in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [
              Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 10 });
              Tx.op ~source:(pub "bob")
                (Tx.Payment { destination = pub "alice"; asset = Asset.native; amount = 20 });
            ]
        in
        let only_alice = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let _, outcome = Apply.apply_tx ctx state only_alice in
        check bool "missing bob" true (outcome = Apply.Tx_bad_auth);
        let both = Tx.co_sign only_alice ~secret:(sec "bob") ~public:(pub "bob") ~scheme in
        let state', outcome2 = Apply.apply_tx ctx state both in
        check bool "both ok" true (Apply.tx_succeeded outcome2);
        check int "net +10 for alice minus fee"
          (balance state "alice" + 10 - 200)
          (balance state' "alice"));
  ]

(* ---------- order book & path payments ---------- *)

let mxn () = Asset.credit ~code:"MXN" ~issuer:(pub "mxn-issuer")

let offer_tests =
  let open Alcotest in
  [
    test_case "resting offer then crossing fill" `Quick (fun () ->
        let state = setup [ "issuer"; "maker"; "taker" ] in
        let state = fund_usd state "maker" (xlm 1000) in
        let state = fund_usd state "taker" 0 in
        (* maker sells 100 USD at 2 XLM per USD *)
        let state =
          expect_success
            (submit state "maker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 100;
                        price = Price.make ~n:2 ~d:1;
                        passive = false;
                      });
               ])
        in
        check int "book has offer" 1
          (List.length (State.best_offers state ~selling:(usd ()) ~buying:Asset.native));
        (* taker buys USD with XLM at up to 0.5 USD per XLM *)
        let state =
          expect_success
            (submit state "taker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 40;
                        price = Price.make ~n:1 ~d:2;
                        passive = false;
                      });
               ])
        in
        check int "taker got 20 USD" (xlm 20) (trust_balance state "taker" (usd ()));
        check int "maker offer reduced" (xlm 80)
          (List.hd (State.best_offers state ~selling:(usd ()) ~buying:Asset.native)).Entry.amount);
    test_case "non-crossing offers rest" `Quick (fun () ->
        let state = setup [ "issuer"; "a"; "b" ] in
        let state = fund_usd state "a" (xlm 100) in
        let state = fund_usd state "b" 0 in
        let state =
          expect_success
            (submit state "a"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 10;
                        price = Price.make ~n:3 ~d:1;
                        passive = false;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "b"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 10;
                        price = Price.make ~n:1 ~d:4;
                        passive = false;
                      });
               ])
        in
        check int "both rest" 2
          (List.length (State.best_offers state ~selling:(usd ()) ~buying:Asset.native)
          + List.length (State.best_offers state ~selling:Asset.native ~buying:(usd ()))));
    test_case "better-priced offer fills first" `Quick (fun () ->
        let state = setup [ "issuer"; "m1"; "m2"; "taker" ] in
        let state = fund_usd state "m1" (xlm 100) in
        let state = fund_usd state "m2" (xlm 100) in
        let state = fund_usd state "taker" 0 in
        let sell name price =
          expect_success
            (submit state name
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 10;
                        price;
                        passive = false;
                      });
               ])
        in
        ignore sell;
        let state =
          expect_success
            (submit state "m1"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 10;
                        price = Price.make ~n:3 ~d:1;
                        passive = false;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "m2"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 10;
                        price = Price.make ~n:2 ~d:1;
                        passive = false;
                      });
               ])
        in
        (* taker pays XLM for 10 USD: should hit m2's cheaper offer *)
        let state =
          expect_success
            (submit state "taker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 20;
                        price = Price.make ~n:1 ~d:2;
                        passive = false;
                      });
               ])
        in
        (* m2 paid 3 fees (create trust, fund, offer) before receiving 20 XLM *)
        check int "m2 filled" (xlm 10_000 + xlm 20 - 200) (balance state "m2");
        check int "m1 untouched" 1
          (List.length (State.offers_of state (pub "m1"))));
    test_case "delete and replace offers" `Quick (fun () ->
        let state = setup [ "issuer"; "maker" ] in
        let state = fund_usd state "maker" (xlm 100) in
        let mk state amount =
          submit state "maker"
            [
              Tx.op
                (Tx.Manage_offer
                   {
                     offer_id = 0;
                     selling = usd ();
                     buying = Asset.native;
                     amount;
                     price = Price.make ~n:2 ~d:1;
                     passive = false;
                   });
            ]
        in
        let state = expect_success (mk state (xlm 10)) in
        let id =
          (List.hd (State.best_offers state ~selling:(usd ()) ~buying:Asset.native)).Entry.offer_id
        in
        (* replace amount *)
        let state =
          expect_success
            (submit state "maker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = id;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 5;
                        price = Price.make ~n:2 ~d:1;
                        passive = false;
                      });
               ])
        in
        (* delete *)
        let state =
          expect_success
            (submit state "maker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = id + 1;
                        selling = usd ();
                        buying = Asset.native;
                        amount = 0;
                        price = Price.make ~n:2 ~d:1;
                        passive = false;
                      });
               ])
        in
        check int "book empty" 0
          (List.length (State.best_offers state ~selling:(usd ()) ~buying:Asset.native));
        let acct = Option.get (State.account state (pub "maker")) in
        check int "sub entries back to just trustline" 1 acct.Entry.num_sub_entries);
    test_case "passive offer does not cross equal price" `Quick (fun () ->
        let state = setup [ "issuer"; "a"; "b" ] in
        let state = fund_usd state "a" (xlm 100) in
        let state = fund_usd state "b" 0 in
        let state =
          expect_success
            (submit state "a"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 10;
                        price = Price.make ~n:2 ~d:1;
                        passive = false;
                      });
               ])
        in
        (* b places the exactly-opposite passive offer: must rest, not fill *)
        let state =
          expect_success
            (submit state "b"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 20;
                        price = Price.make ~n:1 ~d:2;
                        passive = true;
                      });
               ])
        in
        check int "a's offer untouched" (xlm 10)
          (List.hd (State.best_offers state ~selling:(usd ()) ~buying:Asset.native)).Entry.amount;
        check int "b's rests" 1
          (List.length (State.best_offers state ~selling:Asset.native ~buying:(usd ()))));
    test_case "path payment: USD -> XLM -> MXN (the $0.50 to Mexico)" `Quick (fun () ->
        let state = setup [ "issuer"; "mxn-issuer"; "alice"; "bob"; "mm1"; "mm2" ] in
        let state = fund_usd state "alice" (xlm 100) in
        let state = fund_usd state "mm1" (xlm 1000) in
        (* market maker 1 buys USD with XLM at 1 USD = 2 XLM *)
        let state =
          expect_success
            (submit state "mm1"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 500;
                        price = Price.make ~n:1 ~d:2;
                        passive = false;
                      });
               ])
        in
        (* market maker 2 sells MXN for XLM at 1 XLM = 8 MXN *)
        let state =
          expect_success
            (submit state "mm2"
               [ Tx.op (Tx.Change_trust { asset = mxn (); limit = xlm 1_000_000 }) ])
        in
        let state =
          expect_success
            (submit state "mxn-issuer"
               [ Tx.op (Tx.Payment { destination = pub "mm2"; asset = mxn (); amount = xlm 10_000 }) ])
        in
        let state =
          expect_success
            (submit state "mm2"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = mxn ();
                        buying = Asset.native;
                        amount = xlm 8000;
                        price = Price.make ~n:1 ~d:8;
                        passive = false;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "bob" [ Tx.op (Tx.Change_trust { asset = mxn (); limit = xlm 1000 }) ])
        in
        (* alice sends bob exactly 16 MXN, paying at most 2 USD via XLM *)
        let usd_before = trust_balance state "alice" (usd ()) in
        let state =
          expect_success
            (submit state "alice"
               [
                 Tx.op
                   (Tx.Path_payment
                      {
                        send_asset = usd ();
                        send_max = xlm 2;
                        destination = pub "bob";
                        dest_asset = mxn ();
                        dest_amount = xlm 16;
                        path = [ Asset.native ];
                      });
               ])
        in
        check int "bob got exactly 16 MXN" (xlm 16) (trust_balance state "bob" (mxn ()));
        (* 16 MXN costs 2 XLM, which costs 1 USD *)
        check int "alice paid 1 USD" (usd_before - xlm 1) (trust_balance state "alice" (usd ()));
        (match State.check_integrity state with
        | Ok () -> ()
        | Error e -> fail e));
    test_case "path payment over send_max fails atomically" `Quick (fun () ->
        let state = setup [ "issuer"; "mxn-issuer"; "alice"; "bob"; "mm1"; "mm2" ] in
        let state = fund_usd state "alice" (xlm 100) in
        let state = fund_usd state "mm1" (xlm 1000) in
        let state =
          expect_success
            (submit state "mm1"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 500;
                        price = Price.make ~n:1 ~d:2;
                        passive = false;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "bob" [ Tx.op (Tx.Change_trust { asset = usd (); limit = xlm 1000 }) ])
        in
        let offers_before = List.length (State.best_offers state ~selling:Asset.native ~buying:(usd ())) in
        let state =
          expect_op_failure Apply.Op_over_send_max
            (submit state "alice"
               [
                 Tx.op
                   (Tx.Path_payment
                      {
                        send_asset = usd ();
                        send_max = 1;
                        destination = pub "bob";
                        dest_asset = usd ();
                        dest_amount = xlm 10;
                        path = [ Asset.native; usd () ] |> List.tl;
                        (* USD -> XLM ... nonsense path to force a cross *)
                      });
               ])
        in
        (* failed op must not consume book liquidity *)
        check int "book unchanged" offers_before
          (List.length (State.best_offers state ~selling:Asset.native ~buying:(usd ()))));
    test_case "path payment with empty book fails" `Quick (fun () ->
        let state = setup [ "issuer"; "alice"; "bob" ] in
        let state = fund_usd state "alice" (xlm 10) in
        let state =
          expect_success
            (submit state "bob" [ Tx.op (Tx.Change_trust { asset = usd (); limit = xlm 10 }) ])
        in
        ignore
          (expect_op_failure Apply.Op_too_few_offers
             (submit state "alice"
                [
                  Tx.op
                    (Tx.Path_payment
                       {
                         send_asset = Asset.native;
                         send_max = xlm 5;
                         destination = pub "bob";
                         dest_asset = usd ();
                         dest_amount = xlm 1;
                         path = [];
                       });
                ])));
  ]

(* ---------- other operations ---------- *)

let misc_op_tests =
  let open Alcotest in
  [
    test_case "manage data set/update/delete" `Quick (fun () ->
        let state = setup [ "alice" ] in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Manage_data { name = "k"; value = Some "v1" }) ])
        in
        check (option string) "set" (Some "v1")
          (Option.map (fun d -> d.Entry.value) (State.data state (pub "alice") "k"));
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Manage_data { name = "k"; value = Some "v2" }) ])
        in
        check (option string) "updated" (Some "v2")
          (Option.map (fun d -> d.Entry.value) (State.data state (pub "alice") "k"));
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Manage_data { name = "k"; value = None }) ])
        in
        check bool "deleted" true (State.data state (pub "alice") "k" = None);
        let acct = Option.get (State.account state (pub "alice")) in
        check int "sub entries released" 0 acct.Entry.num_sub_entries);
    test_case "bump sequence" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let target = next_seq state "alice" + 1000 in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Bump_sequence { bump_to = target }) ])
        in
        check int "bumped" target (Option.get (State.account state (pub "alice"))).Entry.seq_num;
        (* old numbers now invalid *)
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(target - 5)
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let _, outcome =
          Apply.apply_tx ctx state (Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme)
        in
        check bool "bad seq" true (outcome = Apply.Tx_bad_seq));
    test_case "account merge reclaims full balance (§5.1)" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let alice_bal = balance state "alice" in
        let bob_bal = balance state "bob" in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Account_merge { destination = pub "bob" }) ])
        in
        check bool "alice gone" true (State.account state (pub "alice") = None);
        check int "bob got everything minus fee" (bob_bal + alice_bal - 100) (balance state "bob"));
    test_case "merge with sub entries fails" `Quick (fun () ->
        let state = setup [ "issuer"; "alice"; "bob" ] in
        let state = fund_usd state "alice" 0 in
        ignore
          (expect_op_failure Apply.Op_has_sub_entries
             (submit state "alice" [ Tx.op (Tx.Account_merge { destination = pub "bob" }) ])));
    test_case "create account below reserve fails" `Quick (fun () ->
        let state = setup [ "alice" ] in
        ignore
          (expect_op_failure Apply.Op_low_reserve
             (submit state "alice"
                [
                  Tx.op
                    (Tx.Create_account
                       { destination = pub "tiny"; starting_balance = 100 });
                ])));
    test_case "land_token-deal: 3-op atomic multi-party swap (§5.2)" `Quick (fun () ->
        let state = setup [ "deeds"; "usd-bank"; "alice"; "bob" ] in
        let land_token = Asset.credit ~code:"LAND" ~issuer:(pub "deeds") in
        let dollars = Asset.credit ~code:"USD" ~issuer:(pub "usd-bank") in
        let give state who asset amount issuer_name =
          let state =
            expect_success
              (submit state who [ Tx.op (Tx.Change_trust { asset; limit = xlm 1_000_000 }) ])
          in
          if amount > 0 then
            expect_success
              (submit state issuer_name
                 [ Tx.op (Tx.Payment { destination = pub who; asset; amount }) ])
          else state
        in
        let state = give state "alice" land_token 2 "deeds" in
        let state = give state "alice" dollars (xlm 10_000) "usd-bank" in
        let state = give state "bob" land_token 5 "deeds" in
        let state = give state "bob" dollars 0 "usd-bank" in
        (* alice gives a small parcel + $10k; bob gives a big parcel *)
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [
              Tx.op (Tx.Payment { destination = pub "bob"; asset = land_token; amount = 1 });
              Tx.op (Tx.Payment { destination = pub "bob"; asset = dollars; amount = xlm 10_000 });
              Tx.op ~source:(pub "bob")
                (Tx.Payment { destination = pub "alice"; asset = land_token; amount = 3 });
            ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let signed = Tx.co_sign signed ~secret:(sec "bob") ~public:(pub "bob") ~scheme in
        let state', outcome = Apply.apply_tx ctx state signed in
        check bool "swap succeeded" true (Apply.tx_succeeded outcome);
        check int "alice holds 4 land_token" 4 (trust_balance state' "alice" land_token);
        check int "bob holds 3 land_token + dollars" 3 (trust_balance state' "bob" land_token);
        check int "bob dollars" (xlm 10_000) (trust_balance state' "bob" dollars));
  ]

(* ---------- conservation & integrity properties ---------- *)

let conservation_tests =
  let open Alcotest in
  [
    test_case "native total conserved across random payments" `Quick (fun () ->
        let names = [ "a"; "b"; "c"; "d" ] in
        let state = setup names in
        let total0 = State.total_native state in
        let rng = ref 12345 in
        let rand n =
          rng := (!rng * 1103515245) + 12347;
          abs !rng mod n
        in
        let state = ref state in
        for _ = 1 to 100 do
          let src = List.nth names (rand 4) in
          let dst = List.nth names (rand 4) in
          if src <> dst then begin
            let amount = 1 + rand 1000 in
            let s, _ =
              submit !state src
                [ Tx.op (Tx.Payment { destination = pub dst; asset = Asset.native; amount }) ]
            in
            state := s
          end
        done;
        check int "conserved" total0 (State.total_native !state);
        match State.check_integrity !state with Ok () -> () | Error e -> fail e);
    test_case "issued total = issuer mints - burns" `Quick (fun () ->
        let state = setup [ "issuer"; "a"; "b" ] in
        let state = fund_usd state "a" (xlm 100) in
        let state = fund_usd state "b" (xlm 50) in
        check int "minted" (xlm 150) (State.total_issued state (usd ()));
        let state =
          expect_success
            (submit state "a"
               [ Tx.op (Tx.Payment { destination = pub "b"; asset = usd (); amount = xlm 10 }) ])
        in
        check int "transfer conserves" (xlm 150) (State.total_issued state (usd ())));
    test_case "order-book crossing conserves both assets" `Quick (fun () ->
        let state = setup [ "issuer"; "maker"; "taker" ] in
        let state = fund_usd state "maker" (xlm 500) in
        let state = fund_usd state "taker" 0 in
        let native0 = State.total_native state in
        let usd0 = State.total_issued state (usd ()) in
        let state =
          expect_success
            (submit state "maker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = usd ();
                        buying = Asset.native;
                        amount = xlm 100;
                        price = Price.make ~n:7 ~d:3;
                        passive = false;
                      });
               ])
        in
        let state =
          expect_success
            (submit state "taker"
               [
                 Tx.op
                   (Tx.Manage_offer
                      {
                        offer_id = 0;
                        selling = Asset.native;
                        buying = usd ();
                        amount = xlm 77;
                        price = Price.make ~n:3 ~d:7;
                        passive = false;
                      });
               ])
        in
        check int "native conserved" native0 (State.total_native state);
        check int "usd conserved" usd0 (State.total_issued state (usd ())));
  ]

(* ---------- tx set application ---------- *)

let txset_tests =
  let open Alcotest in
  [
    test_case "apply_tx_set bumps ledger and applies all" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let seq0 = State.ledger_seq state in
        let mk i =
          let tx =
            Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice" + i)
              [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
          in
          Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme
        in
        let txs = [ mk 0; mk 1; mk 2 ] in
        let state', results = Apply.apply_tx_set ctx state ~close_time:2000 txs in
        check int "ledger seq" (seq0 + 1) (State.ledger_seq state');
        check int "close time" 2000 (State.close_time state');
        (* all three consume sequence numbers in order regardless of the
           hash-shuffled apply order *)
        check int "applied" 3 (List.length (List.filter (fun (_, o) -> Apply.tx_succeeded o) results)));
    test_case "headers chain" `Quick (fun () ->
        let state = setup [ "alice" ] in
        let mk_header prev state =
          Header.make ~prev ~scp_value_hash:(Stellar_crypto.Sha256.digest "v")
            ~tx_set_hash:(Stellar_crypto.Sha256.digest "t")
            ~results_hash:(Stellar_crypto.Sha256.digest "r")
            ~snapshot_hash:(State.snapshot_hash state) ~state
        in
        let h1 = mk_header None state in
        let state2 = State.set_header state ~ledger_seq:(State.ledger_seq state + 1) ~close_time:123 in
        let h2 = mk_header (Some h1) state2 in
        let state3 = State.set_header state2 ~ledger_seq:(State.ledger_seq state2 + 1) ~close_time:456 in
        let h3 = mk_header (Some h2) state3 in
        check bool "chain verifies" true (Header.verify_chain [ h1; h2; h3 ]);
        check bool "tamper detected" false
          (Header.verify_chain [ h1; { h2 with Header.close_time = 999 }; h3 ]));
    test_case "snapshot hash changes with state" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        let h0 = State.snapshot_hash state in
        let state', _ =
          submit state "alice"
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        check bool "hash moved" false (String.equal h0 (State.snapshot_hash state')));
  ]

(* ---------- price properties ---------- *)

let price_tests =
  let open QCheck in
  let price_arb =
    make
      ~print:(fun p -> Format.asprintf "%a" Price.pp p)
      Gen.(map2 (fun n d -> Price.make ~n ~d) (int_range 1 1000) (int_range 1 1000))
  in
  [
    Test.make ~name:"compare antisymmetric" ~count:300 (pair price_arb price_arb)
      (fun (a, b) -> Price.compare a b = -Price.compare b a);
    Test.make ~name:"inverse flips comparison" ~count:300 (pair price_arb price_arb)
      (fun (a, b) ->
        assume (Price.compare a b <> 0);
        Price.compare a b = -Price.compare (Price.inverse a) (Price.inverse b));
    Test.make ~name:"mul_floor <= mul_ceil" ~count:300 (pair (int_bound 100000) price_arb)
      (fun (x, p) ->
        match (Price.mul_floor x p, Price.mul_ceil x p) with
        | Some f, Some c -> f <= c && c - f <= 1
        | _ -> false);
    Test.make ~name:"crosses consistent with product" ~count:300 (pair price_arb price_arb)
      (fun (t, m) ->
        Price.crosses ~taker:t ~maker:m
        = (Price.to_float t *. Price.to_float m <= 1.0 +. 1e-9));
  ]
  |> List.map QCheck_alcotest.to_alcotest


(* ---------- inflation / fee recycling (§5.2) ---------- *)

let inflation_tests =
  let open Alcotest in
  [
    test_case "fees recycled proportionally by vote" `Quick (fun () ->
        let state = setup [ "alice"; "bob"; "carol" ] in
        (* the whale (master) votes for carol; alice's small stake votes for
           bob and stays below the 0.05% winner threshold *)
        let state =
          expect_success
            (submit state "master" [ Tx.op (Tx.Set_inflation_dest { dest = pub "carol" }) ])
        in
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Set_inflation_dest { dest = pub "bob" }) ])
        in
        let pool_before = State.fee_pool state in
        check bool "fees accumulated" true (pool_before > 0);
        let total_before = State.total_native state in
        let carol_before = balance state "carol" in
        let bob_before = balance state "bob" in
        let state = expect_success (submit state "alice" [ Tx.op Tx.Inflation ]) in
        check bool "carol (above threshold) received" true
          (balance state "carol" > carol_before);
        check int "bob (dust votes) received nothing" bob_before (balance state "bob");
        check bool "pool mostly drained" true (State.fee_pool state < pool_before / 10 + 200);
        check int "XLM conserved" total_before (State.total_native state));
    test_case "inflation with no votes fails" `Quick (fun () ->
        let state = setup [ "alice" ] in
        ignore (expect_op_failure Apply.Op_no_fees_to_distribute
          (submit state "alice" [ Tx.op Tx.Inflation ])));
    test_case "dust votes below threshold are ignored" `Quick (fun () ->
        let state = setup [ "alice"; "bob" ] in
        (* alice votes for bob, but alice's 10k XLM is below 0.05% of the
           1B XLM supply *)
        let state =
          expect_success
            (submit state "alice" [ Tx.op (Tx.Set_inflation_dest { dest = pub "bob" }) ])
        in
        ignore (expect_op_failure Apply.Op_no_fees_to_distribute
          (submit state "alice" [ Tx.op Tx.Inflation ])));
  ]

(* ---------- hash-preimage signers: HTLC / cross-chain trading (§5.2) ---------- *)

let htlc_tests =
  let open Alcotest in
  let preimage = "the-secret-preimage-of-the-swap!" in
  let hash_x = Stellar_crypto.Sha256.digest preimage in
  (* alice locks her account behind (preimage OR nothing) until T, by adding
     a hash-x signer and dropping her master key below the payment
     threshold *)
  let setup_htlc () =
    let state = setup [ "alice"; "bob" ] in
    expect_success
      (submit state "alice"
         [
           Tx.op
             (Tx.Set_options
                {
                  master_weight = Some 1;
                  low = Some 1;
                  medium = Some 2;  (* payments need master AND preimage *)
                  high = Some 3;
                  signer = Some (Tx.Set_signer { Entry.key = hash_x; weight = 1 });
                  home_domain = None;
                  set_auth_required = None;
                  set_auth_revocable = None;
                  set_auth_immutable = None;
                });
         ])
  in
  [
    test_case "payment without the preimage is rejected" `Quick (fun () ->
        let state = setup_htlc () in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "insufficient weight" true (outcome = Apply.Tx_bad_auth));
    test_case "revealing the preimage unlocks the payment" `Quick (fun () ->
        let state = setup_htlc () in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            ~time_bounds:{ Tx.min_time = 0; max_time = 2000 }
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 7 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        (* anyone can attach the preimage in place of a signature *)
        let signed = Tx.make_signed signed.Tx.tx (("", preimage) :: signed.Tx.signatures) in
        let before = balance state "bob" in
        let state', outcome = Apply.apply_tx ctx state signed in
        check bool "accepted" true (Apply.tx_succeeded outcome);
        check int "paid" (before + 7) (balance state' "bob"));
    test_case "wrong preimage grants nothing" `Quick (fun () ->
        let state = setup_htlc () in
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 1 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let signed = Tx.make_signed signed.Tx.tx (("", "not-the-secret") :: signed.Tx.signatures) in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "rejected" true (outcome = Apply.Tx_bad_auth));
    test_case "preimage after the deadline is too late (HTLC expiry)" `Quick (fun () ->
        let state = setup_htlc () in
        (* claim window closed at t=500, ledger is at close_time 1000 *)
        let tx =
          Tx.make ~source:(pub "alice") ~seq_num:(next_seq state "alice")
            ~time_bounds:{ Tx.min_time = 0; max_time = 500 }
            [ Tx.op (Tx.Payment { destination = pub "bob"; asset = Asset.native; amount = 7 }) ]
        in
        let signed = Tx.sign tx ~secret:(sec "alice") ~public:(pub "alice") ~scheme in
        let signed = Tx.make_signed signed.Tx.tx (("", preimage) :: signed.Tx.signatures) in
        let _, outcome = Apply.apply_tx ctx state signed in
        check bool "expired" true (outcome = Apply.Tx_too_late));
  ]


(* ---------- randomized operation fuzz ---------- *)

let fuzz_tests =
  (* A deterministic stream of random operations over a small cast; after
     every transaction the ledger must stay internally consistent, XLM and
     issued totals must be conserved, and applying must never raise. *)
  let cast = [ "issuer"; "f1"; "f2"; "f3"; "f4" ] in
  let run_fuzz seed steps =
    let state = ref (setup cast) in
    let rng = ref (seed * 2 + 1) in
    let rand n =
      rng := (!rng * 1103515245) + 1013904223;
      abs (!rng asr 13) mod n
    in
    let name () = List.nth cast (rand (List.length cast)) in
    let asset () = if rand 3 = 0 then Asset.native else usd () in
    let native_total = State.total_native !state in
    for _ = 1 to steps do
      let who = name () in
      let body =
        match rand 8 with
        | 0 -> Tx.Payment { destination = pub (name ()); asset = asset (); amount = 1 + rand 5000 }
        | 1 -> Tx.Change_trust { asset = usd (); limit = rand 2 * xlm (1 + rand 1000) }
        | 2 ->
            Tx.Manage_offer
              {
                offer_id = 0;
                selling = (if rand 2 = 0 then Asset.native else usd ());
                buying = (if rand 2 = 0 then usd () else Asset.native);
                amount = 1 + rand 10000;
                price = Price.make ~n:(1 + rand 20) ~d:(1 + rand 20);
                passive = rand 4 = 0;
              }
        | 3 -> Tx.Manage_data { name = Printf.sprintf "k%d" (rand 4); value = (if rand 3 = 0 then None else Some "v") }
        | 4 -> Tx.Bump_sequence { bump_to = 0 }
        | 5 -> Tx.Allow_trust { trustor = pub (name ()); asset_code = "USD"; authorize = rand 2 = 0 }
        | 6 -> Tx.Set_inflation_dest { dest = pub (name ()) }
        | _ ->
            Tx.Path_payment
              {
                send_asset = asset ();
                send_max = 1 + rand 10000;
                destination = pub (name ());
                dest_asset = asset ();
                dest_amount = 1 + rand 1000;
                path = (if rand 2 = 0 then [] else [ Asset.native ]);
              }
      in
      let state', _outcome = submit !state who [ Tx.op body ] in
      (match State.check_integrity state' with
      | Ok () -> ()
      | Error e -> Alcotest.failf "integrity violated: %s" e);
      state := state'
    done;
    Alcotest.(check int) "XLM conserved" native_total (State.total_native !state);
    (* every unit of USD in circulation was minted by the issuer *)
    Alcotest.(check bool) "issued total non-negative" true
      (State.total_issued !state (usd ()) >= 0)
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random op streams keep invariants" ~count:12
         QCheck.(int_bound 100_000)
         (fun seed ->
           run_fuzz seed 120;
           true));
  ]

(* ---- State.of_entries against a build by puts ---- *)

let build_header f =
  f ~ledger_seq:7 ~close_time:70 ~base_fee:100 ~base_reserve:10 ~protocol_version:1
    ~fee_pool:5 ~id_pool:40

let by_key a b = Entry.compare_key (Entry.key_of_entry a) (Entry.key_of_entry b)

(* A consistent ledger of every entry kind: trustlines, offers and data of
   up to six owners (offer ids unique, last write wins), and an account for
   each owner counting its sub-entries.  The entries come out shuffled. *)
let ledger_entries_arb =
  let owner i = Stellar_crypto.Sha256.digest (Printf.sprintf "owner%d" i) in
  let asset i =
    if i = 0 then Asset.native
    else Asset.credit ~code:(Printf.sprintf "C%d" (i mod 3)) ~issuer:(owner (i mod 2))
  in
  QCheck.(
    map
      (fun (ops, seed) ->
        let subs = Hashtbl.create 16 in
        let put entry = Hashtbl.replace subs (Entry.encode_key (Entry.key_of_entry entry)) entry in
        List.iter
          (fun (kind, i, v) ->
            match kind with
            | 0 ->
                put
                  (Entry.Trustline_entry
                     {
                       Entry.account = owner i;
                       asset = asset (1 + v);
                       tl_balance = v;
                       limit = 1000;
                       authorized = true;
                     })
            | 1 ->
                put
                  (Entry.Offer_entry
                     {
                       Entry.offer_id = (7 * i) + v;
                       seller = owner i;
                       selling = asset v;
                       buying = asset ((v + 1 + i) mod 4);
                       amount = 1 + v;
                       price = Price.make ~n:(1 + ((i * v) mod 5)) ~d:3;
                       passive = false;
                     })
            | _ ->
                put
                  (Entry.Data_entry
                     { Entry.owner = owner i; name = Printf.sprintf "n%d" v; value = "x" }))
          ops;
        let subs = Hashtbl.fold (fun _ e acc -> e :: acc) subs [] in
        let count id =
          List.length
            (List.filter
               (function
                 | Entry.Trustline_entry tl -> tl.Entry.account = id
                 | Entry.Offer_entry o -> o.Entry.seller = id
                 | Entry.Data_entry d -> d.Entry.owner = id
                 | Entry.Account_entry _ -> false)
               subs)
        in
        let accounts =
          List.init 6 (fun i ->
              Entry.Account_entry
                {
                  (Entry.new_account ~id:(owner i) ~balance:(1000 * (i + 1)) ~seq_num:i) with
                  Entry.num_sub_entries = count (owner i);
                })
        in
        let entries = Array.of_list (accounts @ subs) in
        let rng = Random.State.make [| seed |] in
        for i = Array.length entries - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let e = entries.(i) in
          entries.(i) <- entries.(j);
          entries.(j) <- e
        done;
        Array.to_list entries)
      (pair
         (list_of_size (Gen.int_range 0 50) (triple (int_bound 2) (int_bound 5) (int_bound 5)))
         int))

(* The reference: every entry put, in the given order, into an empty state. *)
let put_all entries =
  let state =
    List.fold_left
      (fun state e ->
        match e with
        | Entry.Account_entry a -> State.put_account state a
        | Entry.Trustline_entry tl -> State.put_trustline state tl
        | Entry.Offer_entry o -> State.put_offer state o
        | Entry.Data_entry d -> State.put_data state d)
      (build_header State.of_entries [||])
      entries
  in
  fst (State.take_dirty state)

let pairs_of entries =
  List.sort_uniq compare
    (List.filter_map
       (function
         | Entry.Offer_entry o -> Some (o.Entry.selling, o.Entry.buying)
         | _ -> None)
       entries)

let of_entries_tests =
  let open Alcotest in
  let sorted entries = Array.of_list (List.sort by_key entries) in
  let raises entries =
    match build_header State.of_entries entries with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_entries equals a build by puts" ~count:200 ledger_entries_arb
         (fun entries ->
           let built = build_header State.of_entries (sorted entries) in
           let reference = put_all entries in
           State.all_entries built = State.all_entries reference
           && String.equal (State.snapshot_hash built) (State.snapshot_hash reference)
           && List.for_all
                (fun (selling, buying) ->
                  State.best_offers built ~selling ~buying
                  = State.best_offers reference ~selling ~buying)
                (pairs_of entries)
           && State.check_integrity built = Ok ()
           && snd (State.take_dirty built) = []
           && State.id_pool built = 40
           && State.fee_pool built = 5));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"of_entries refuses what is not in strict key order" ~count:200
         ledger_entries_arb (fun entries ->
           let arr = Array.of_list entries in
           let ordered = arr = sorted entries in
           raises arr = not ordered
           && (Array.length arr = 0 || raises (Array.append arr [| arr.(0) |]))));
    test_case "of_entries refuses a repeated key and a swapped pair" `Quick (fun () ->
        let a ?(balance = 1) c =
          Entry.Account_entry (Entry.new_account ~id:(String.make 32 c) ~balance ~seq_num:0)
        in
        check bool "ordered" false (raises [| a 'a'; a 'b' |]);
        check bool "swapped" true (raises [| a 'b'; a 'a' |]);
        check bool "repeated" true (raises [| a 'a'; a 'a' |]);
        check bool "repeated key, other entry" true (raises [| a 'a'; a ~balance:2 'a' |]);
        check bool "kinds out of order" true
          (raises
             [|
               Entry.Data_entry { Entry.owner = String.make 32 'a'; name = "n"; value = "v" }; a 'b';
             |]));
  ]

let () =
  Alcotest.run "ledger"
    [
      ("payments", payment_tests);
      ("inflation", inflation_tests);
      ("htlc", htlc_tests);
      ("fuzz", fuzz_tests);
      ("trustlines", trust_tests);
      ("multisig", multisig_tests);
      ("orderbook", offer_tests);
      ("operations", misc_op_tests);
      ("conservation", conservation_tests);
      ("txset", txset_tests);
      ("price-props", price_tests);
      ("state-build", of_entries_tests);
    ]
