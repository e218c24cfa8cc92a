open Stellar_bucket
open Stellar_ledger

let acct i balance =
  Entry.new_account ~id:(Stellar_crypto.Sha256.digest (Printf.sprintf "acct%d" i)) ~balance ~seq_num:0

let item_of i balance =
  let a = acct i balance in
  { Bucket.key = Entry.Account_key a.Entry.id; entry = Some (Entry.Account_entry a) }

let dead_of i =
  let a = acct i 0 in
  { Bucket.key = Entry.Account_key a.Entry.id; entry = None }

let bucket_tests =
  let open Alcotest in
  [
    test_case "of_items sorts and dedups (last wins)" `Quick (fun () ->
        let b = Bucket.of_items [ item_of 3 1; item_of 1 1; item_of 3 99; item_of 2 1 ] in
        check int "three items" 3 (Bucket.size b);
        match Bucket.find b (Entry.Account_key (acct 3 0).Entry.id) with
        | Some { entry = Some (Entry.Account_entry a); _ } ->
            check int "latest balance" 99 a.Entry.balance
        | _ -> fail "missing");
    test_case "hash deterministic and content-sensitive" `Quick (fun () ->
        let b1 = Bucket.of_items [ item_of 1 5; item_of 2 5 ] in
        let b2 = Bucket.of_items [ item_of 2 5; item_of 1 5 ] in
        let b3 = Bucket.of_items [ item_of 1 5; item_of 2 6 ] in
        check bool "order independent" true (Bucket.hash b1 = Bucket.hash b2);
        check bool "content sensitive" false (Bucket.hash b1 = Bucket.hash b3));
    test_case "merge: newer shadows older" `Quick (fun () ->
        let older = Bucket.of_items [ item_of 1 10; item_of 2 10 ] in
        let newer = Bucket.of_items [ item_of 1 20 ] in
        let m = Bucket.merge ~newer ~older ~keep_tombstones:true in
        check int "two keys" 2 (Bucket.size m);
        match Bucket.find m (Entry.Account_key (acct 1 0).Entry.id) with
        | Some { entry = Some (Entry.Account_entry a); _ } -> check int "newer" 20 a.Entry.balance
        | _ -> fail "missing");
    test_case "tombstones kept or dropped" `Quick (fun () ->
        let older = Bucket.of_items [ item_of 1 10 ] in
        let newer = Bucket.of_items [ dead_of 1 ] in
        let kept = Bucket.merge ~newer ~older ~keep_tombstones:true in
        let dropped = Bucket.merge ~newer ~older ~keep_tombstones:false in
        check int "tombstone kept" 1 (Bucket.size kept);
        check int "tombstone dropped at bottom" 0 (Bucket.size dropped));
    test_case "find on empty" `Quick (fun () ->
        check bool "none" true (Bucket.find Bucket.empty (Entry.Offer_key 1) = None));
    test_case "of_sorted refuses unsorted input and a repeated key" `Quick (fun () ->
        let refused items =
          match Bucket.of_sorted (Array.of_list items) with
          | _ -> false
          | exception Invalid_argument _ -> true
        in
        let sorted = Bucket.items (Bucket.of_items [ item_of 1 1; item_of 2 1; item_of 3 1 ]) in
        check bool "sorted taken" false (refused sorted);
        check bool "reversed" true (refused (List.rev sorted));
        check bool "repeated key" true (refused [ List.hd sorted; List.hd sorted ]);
        check bool "repeated key, other entry" true
          (refused [ List.hd sorted; { (List.hd sorted) with Bucket.entry = None } ]);
        check bool "empty hashes as empty" true
          (Bucket.hash (Bucket.of_sorted [||]) = Bucket.hash Bucket.empty));
  ]

let bucket_prop =
  QCheck.Test.make ~name:"merge contains union of keys" ~count:200
    QCheck.(pair (small_list (int_bound 50)) (small_list (int_bound 50)))
    (fun (xs, ys) ->
      let b1 = Bucket.of_items (List.map (fun i -> item_of i 1) xs) in
      let b2 = Bucket.of_items (List.map (fun i -> item_of i 2) ys) in
      let m = Bucket.merge ~newer:b1 ~older:b2 ~keep_tombstones:true in
      let expect = List.sort_uniq Int.compare (xs @ ys) in
      Bucket.size m = List.length expect)

(* The definition [of_items] had before it sorted stably: deduplicate
   through a table keyed on the XDR key encoding (the latest write wins),
   then sort the survivors by key. *)
let of_items_spec list =
  let tbl = Hashtbl.create 16 in
  List.iter (fun it -> Hashtbl.replace tbl (Entry.encode_key it.Bucket.key) it) list;
  Hashtbl.fold (fun _ it acc -> it :: acc) tbl []
  |> List.sort (fun a b -> Entry.compare_key a.Bucket.key b.Bucket.key)

(* Few distinct keys, so runs of equal keys are common; live, dead and
   offer items mix. *)
let items_arb =
  QCheck.(
    map
      (List.map (fun (k, v) ->
           if k < 8 then item_of k v
           else if k < 12 then dead_of (k - 6)
           else { Bucket.key = Entry.Offer_key (k - 12); entry = None }))
      (list_of_size (Gen.int_range 0 40) (pair (int_bound 15) (int_bound 5))))

let bucket_props =
  [
    QCheck.Test.make ~name:"of_items matches the table-dedup definition" ~count:300 items_arb
      (fun items -> Bucket.items (Bucket.of_items items) = of_items_spec items);
    QCheck.Test.make ~name:"merge_batch = merge of the batch bucket" ~count:300
      (QCheck.pair items_arb items_arb) (fun (batch, older) ->
        let older = Bucket.of_items older in
        let direct = Bucket.merge_batch batch ~older in
        let via = Bucket.merge ~newer:(Bucket.of_items batch) ~older ~keep_tombstones:true in
        Bucket.items direct = Bucket.items via && Bucket.hash direct = Bucket.hash via);
  ]

(* Recorded before the bucket and SHA-256 code was reworked: any change
   here moves every snapshot hash in ledger headers. *)
let golden_tests =
  let open Alcotest in
  let hex = Stellar_crypto.Hex.encode in
  [
    test_case "bucket hash golden vector" `Quick (fun () ->
        check string "3-item bucket"
          "c389490ac7d49ac1bd3bfae2f9ce9ad58ed4702f95b9fb8c4f2151c8fbb37236"
          (hex (Bucket.hash (Bucket.of_items [ item_of 1 10; item_of 2 20; dead_of 3 ]))));
    test_case "bucket list hash golden vector" `Quick (fun () ->
        let bl = ref (Bucket_list.create ~levels:4 ~spill_factor:2 ()) in
        for i = 1 to 6 do
          let batch = [ item_of i i; item_of (i mod 3) (i * 7); item_of i (i + 1) ] in
          let batch = if i = 5 then dead_of 2 :: batch else batch in
          bl := Bucket_list.add_batch !bl batch
        done;
        check (list int) "spilled to level 2" [ 0; 4; 5; 0 ] (Bucket_list.level_sizes !bl);
        check string "list hash"
          "395a8701abe1dbe5f14e5da5b64f084498d2b01de73265dfa327d80a3a5f33fd"
          (hex (Bucket_list.hash !bl)));
  ]

let list_tests =
  let open Alcotest in
  [
    test_case "hash changes with every batch" `Quick (fun () ->
        let bl = ref (Bucket_list.create ()) in
        let seen = Hashtbl.create 16 in
        for i = 1 to 40 do
          bl := Bucket_list.add_batch !bl [ item_of i i ];
          let h = Bucket_list.hash !bl in
          Alcotest.(check bool) "fresh hash" false (Hashtbl.mem seen h);
          Hashtbl.replace seen h ()
        done);
    test_case "spills push mass to deeper levels" `Quick (fun () ->
        let bl = ref (Bucket_list.create ~levels:4 ~spill_factor:2 ()) in
        for i = 1 to 32 do
          bl := Bucket_list.add_batch !bl [ item_of i 1 ]
        done;
        let sizes = Bucket_list.level_sizes !bl in
        (* deepest level should hold most entries *)
        let deepest = List.nth sizes 3 in
        check bool "bottom heavy" true (deepest > List.hd sizes);
        check int "nothing lost" 32 (List.length (Bucket_list.live_entries !bl)));
    test_case "find newest version wins across levels" `Quick (fun () ->
        let bl = ref (Bucket_list.create ~levels:3 ~spill_factor:2 ()) in
        bl := Bucket_list.add_batch !bl [ item_of 7 1 ];
        for i = 100 to 110 do
          bl := Bucket_list.add_batch !bl [ item_of i 1 ]
        done;
        bl := Bucket_list.add_batch !bl [ item_of 7 42 ];
        (match Bucket_list.find !bl (Entry.Account_key (acct 7 0).Entry.id) with
        | Some { entry = Some (Entry.Account_entry a); _ } ->
            check int "newest" 42 a.Entry.balance
        | _ -> fail "missing");
        (* live view also has exactly one copy *)
        let live =
          Bucket_list.live_entries !bl
          |> List.filter (fun e ->
                 match e with
                 | Entry.Account_entry a -> String.equal a.Entry.id (acct 7 0).Entry.id
                 | _ -> false)
        in
        check int "one copy" 1 (List.length live));
    test_case "deletion tombstone hides entry" `Quick (fun () ->
        let bl = ref (Bucket_list.create ()) in
        bl := Bucket_list.add_batch !bl [ item_of 1 5 ];
        bl := Bucket_list.add_batch !bl [ dead_of 1 ];
        check int "not live" 0 (List.length (Bucket_list.live_entries !bl)));
    test_case "diff_levels pinpoints divergence" `Quick (fun () ->
        let a = ref (Bucket_list.create ()) and b = ref (Bucket_list.create ()) in
        for i = 1 to 10 do
          a := Bucket_list.add_batch !a [ item_of i 1 ];
          b := Bucket_list.add_batch !b [ item_of i 1 ]
        done;
        check (list int) "identical" [] (Bucket_list.diff_levels !a !b);
        a := Bucket_list.add_batch !a [ item_of 99 1 ];
        b := Bucket_list.add_batch !b [ item_of 98 1 ];
        check bool "differ somewhere" true (Bucket_list.diff_levels !a !b <> []));
    test_case "of_state holds the full snapshot" `Quick (fun () ->
        let master = Stellar_crypto.Sha256.digest "m" in
        let state = State.genesis ~master ~total_xlm:1000 () in
        let bl = Bucket_list.of_state state in
        check int "entries" (List.length (State.all_entries state))
          (List.length (Bucket_list.live_entries bl)));
    test_case "reconstruction matches incremental state" `Quick (fun () ->
        (* apply random account updates and deletions both to a State and
           via batches; live_entries must equal the state's entries after
           every batch *)
        let master = Stellar_crypto.Sha256.digest "m" in
        let state = ref (State.genesis ~master ~total_xlm:1_000_000 ()) in
        let bl = ref (Bucket_list.of_state !state) in
        let _, cleared = State.take_dirty !state in
        ignore cleared;
        let entries l = List.map Entry.encode_entry l |> List.sort compare in
        for round = 1 to 25 do
          let a = acct (round mod 7) (round * 10) in
          state := State.put_account !state a;
          (* every fifth batch deletes the account put four batches back,
             whose older version the fourth batch's spill moved to level 1 *)
          if round mod 5 = 0 then
            state := State.remove_account !state (acct ((round - 4) mod 7) 0).Entry.id;
          let s', dirty = State.take_dirty !state in
          state := s';
          let batch =
            List.map (fun key -> { Bucket.key; entry = State.lookup s' key }) dirty
          in
          bl := Bucket_list.add_batch !bl batch;
          check bool
            (Printf.sprintf "same entries after batch %d" round)
            true
            (entries (Bucket_list.live_entries !bl) = entries (State.all_entries !state))
        done);
  ]

(* ---- setup paths against their sort-based definitions ---- *)

(* [of_items] before it took strictly ordered input as it is: a stable sort
   by key, then the last item of every run of equal keys. *)
let of_items_sort_spec list =
  let arr = Array.of_list list in
  Array.stable_sort (fun a b -> Entry.compare_key a.Bucket.key b.Bucket.key) arr;
  let n = Array.length arr in
  List.filteri
    (fun i it -> i = n - 1 || Entry.compare_key it.Bucket.key arr.(i + 1).Bucket.key <> 0)
    (Array.to_list arr)

(* Raw, sorted with duplicates, or strictly sorted: the last two take the
   ordered-input path or must be refused by it. *)
let shaped_items_arb =
  QCheck.(
    map
      (fun (shape, items) ->
        let by_key a b = Entry.compare_key a.Bucket.key b.Bucket.key in
        match shape with
        | 0 -> items
        | 1 -> List.stable_sort by_key items
        | _ -> List.sort_uniq by_key items)
      (pair (int_bound 2) items_arb))

(* A state built by random puts and removes of every entry kind, and a
   model of what it holds keyed by the XDR key encoding. *)
let state_arb =
  let owner i = (acct i 0).Entry.id in
  let asset i = Asset.credit ~code:(Printf.sprintf "C%d" (i mod 3)) ~issuer:(owner (i mod 2)) in
  QCheck.(
    map
      (fun ops ->
        let model = Hashtbl.create 16 in
        let put entry = Hashtbl.replace model (Entry.encode_key (Entry.key_of_entry entry)) entry in
        let drop key = Hashtbl.remove model (Entry.encode_key key) in
        let master = Stellar_crypto.Sha256.digest "m" in
        let state = State.genesis ~master ~total_xlm:1_000_000 () in
        Option.iter (fun a -> put (Entry.Account_entry a)) (State.account state master);
        let state =
          List.fold_left
            (fun state (kind, i, v) ->
              match kind with
              | 0 ->
                  let a = acct i v in
                  put (Entry.Account_entry a);
                  State.put_account state a
              | 1 ->
                  let tl =
                    {
                      Entry.account = owner i;
                      asset = asset v;
                      tl_balance = v;
                      limit = 1000;
                      authorized = true;
                    }
                  in
                  put (Entry.Trustline_entry tl);
                  State.put_trustline state tl
              | 2 ->
                  let o =
                    {
                      Entry.offer_id = i;
                      seller = owner v;
                      selling = asset i;
                      buying = Asset.native;
                      amount = 1 + v;
                      price = Price.make ~n:(1 + v) ~d:3;
                      passive = false;
                    }
                  in
                  put (Entry.Offer_entry o);
                  State.put_offer state o
              | 3 ->
                  let d = { Entry.owner = owner i; name = Printf.sprintf "n%d" v; value = "x" } in
                  put (Entry.Data_entry d);
                  State.put_data state d
              | 4 ->
                  drop (Entry.Account_key (owner i));
                  State.remove_account state (owner i)
              | _ ->
                  drop (Entry.Offer_key i);
                  State.remove_offer state i)
            state ops
        in
        (state, Hashtbl.fold (fun _ e acc -> e :: acc) model []))
      (list_of_size (Gen.int_range 0 60) (triple (int_bound 5) (int_bound 7) (int_bound 4))))

let setup_props =
  [
    QCheck.Test.make ~name:"of_items equals the sort-based definition" ~count:300
      shaped_items_arb (fun items -> Bucket.items (Bucket.of_items items) = of_items_sort_spec items);
    (* the definition [all_entries] had: every entry, sorted by key *)
    QCheck.Test.make ~name:"all_entries equals the sort-based definition" ~count:300 state_arb
      (fun (state, model) ->
        State.all_entries state
        = List.sort
            (fun a b -> Entry.compare_key (Entry.key_of_entry a) (Entry.key_of_entry b))
            model);
    QCheck.Test.make ~name:"of_sorted is of_items on a strict run and refuses the rest"
      ~count:300 shaped_items_arb (fun items ->
        let by_key a b = Entry.compare_key a.Bucket.key b.Bucket.key in
        let strict = items = List.sort_uniq by_key items in
        match Bucket.of_sorted (Array.of_list items) with
        | b ->
            let reference = Bucket.of_items items in
            strict
            && Bucket.items b = Bucket.items reference
            && String.equal (Bucket.hash b) (Bucket.hash reference)
        | exception Invalid_argument _ -> not strict);
    (* the route [of_state] took before: every entry listed, made an item
       and sorted by [of_items] into the bottom of ten levels *)
    QCheck.Test.make ~name:"of_state hashes as of_items over all_entries" ~count:300 state_arb
      (fun (state, _) ->
        let items =
          List.map
            (fun e -> { Bucket.key = Entry.key_of_entry e; entry = Some e })
            (State.all_entries state)
        in
        let empty = Bucket.hash Bucket.empty in
        String.equal
          (Bucket_list.hash (Bucket_list.of_state state))
          (Stellar_crypto.Sha256.digest_list
             (List.init 9 (fun _ -> empty) @ [ Bucket.hash (Bucket.of_items items) ])));
  ]

(* ---- lists grown apart ---- *)

let roundtrip bl =
  match Stellar_xdr.Xdr.(decode Bucket_list.xdr (encode Bucket_list.xdr bl)) with
  | Ok bl -> bl
  | Error e -> failwith e

let lineage_props =
  [
    (* spill factor 2 over 4 levels: 8+ batches reach the bottom level,
       where tombstones are dropped *)
    QCheck.Test.make ~name:"shared, independent and decoded lists agree" ~count:100
      QCheck.(list_of_size (Gen.int_range 8 30) items_arb)
      (fun batches ->
        let make () = Bucket_list.create ~levels:4 ~spill_factor:2 () in
        let base = make () in
        let rec go a b indep decoded = function
          | [] -> true
          | batch :: rest ->
              let a = Bucket_list.add_batch a batch in
              let b = Bucket_list.add_batch b batch in
              let indep = Bucket_list.add_batch indep batch in
              let decoded = Bucket_list.add_batch (roundtrip decoded) batch in
              let h = Bucket_list.hash a in
              List.for_all (fun l -> String.equal h (Bucket_list.hash l)) [ b; indep; decoded ]
              && go a b indep decoded rest
        in
        go base base (make ()) (make ()) batches);
  ]

let () =
  Alcotest.run "bucket"
    [
      ( "bucket",
        bucket_tests
        @ List.map QCheck_alcotest.to_alcotest (bucket_prop :: bucket_props)
        @ golden_tests
        @ List.map QCheck_alcotest.to_alcotest setup_props );
      ("bucket-list", list_tests @ List.map QCheck_alcotest.to_alcotest lineage_props);
    ]
