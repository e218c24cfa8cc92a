(* The XDR wire-format suite: randomized round-trip properties for every
   codec (seeded by Stellar_sim.Rng, so failures reproduce), strict-decoding
   checks, golden hex vectors pinning the wire format, and the archive blob
   round trip.

   Regenerate the golden vectors with:
     XDR_PRINT_GOLDEN=1 dune exec test/test_xdr.exe -- test golden 2>/dev/null *)

open Stellar_ledger
module Xdr = Stellar_xdr.Xdr
module Rng = Stellar_sim.Rng

let hex = Stellar_crypto.Hex.encode
let sha256 = Stellar_crypto.Sha256.digest

let rng = Rng.create ~seed:0xC0FFEE

(* ---------- random generators ---------- *)

let gen_blob max = Rng.bytes rng (Rng.int rng (max + 1))
let gen_acct () = Rng.bytes rng (1 + Rng.int rng 16)

let gen_asset () =
  if Rng.bool rng then Asset.native
  else Asset.credit ~code:(Rng.bytes rng (1 + Rng.int rng 12)) ~issuer:(gen_acct ())

let gen_price () = Price.make ~n:(1 + Rng.int rng 1_000_000) ~d:(1 + Rng.int rng 1_000_000)

let gen_signer () = { Entry.key = gen_acct (); weight = Rng.int rng 256 }

let gen_account_entry () =
  Entry.Account_entry
    {
      id = gen_acct ();
      balance = Rng.int rng 1_000_000_000;
      seq_num = Rng.int rng 1_000_000;
      num_sub_entries = Rng.int rng 32;
      flags =
        {
          auth_required = Rng.bool rng;
          auth_revocable = Rng.bool rng;
          auth_immutable = Rng.bool rng;
        };
      thresholds =
        {
          master_weight = Rng.int rng 256;
          low = Rng.int rng 256;
          medium = Rng.int rng 256;
          high = Rng.int rng 256;
        };
      signers = List.init (Rng.int rng 3) (fun _ -> gen_signer ());
      home_domain = gen_blob 24;
      inflation_dest = (if Rng.bool rng then Some (gen_acct ()) else None);
    }

let gen_entry () =
  match Rng.int rng 4 with
  | 0 -> gen_account_entry ()
  | 1 ->
      Entry.Trustline_entry
        {
          account = gen_acct ();
          asset = gen_asset ();
          tl_balance = Rng.int rng 1_000_000;
          limit = Rng.int rng 10_000_000;
          authorized = Rng.bool rng;
        }
  | 2 ->
      Entry.Offer_entry
        {
          offer_id = Rng.int rng 1_000_000;
          seller = gen_acct ();
          selling = gen_asset ();
          buying = gen_asset ();
          amount = 1 + Rng.int rng 1_000_000;
          price = gen_price ();
          passive = Rng.bool rng;
        }
  | _ -> Entry.Data_entry { owner = gen_acct (); name = gen_blob 12; value = gen_blob 32 }

let gen_key () =
  match Rng.int rng 4 with
  | 0 -> Entry.Account_key (gen_acct ())
  | 1 -> Entry.Trustline_key (gen_acct (), gen_asset ())
  | 2 -> Entry.Offer_key (Rng.int rng 1_000_000)
  | _ -> Entry.Data_key (gen_acct (), gen_blob 12)

let gen_body () =
  match Rng.int rng 12 with
  | 0 -> Tx.Create_account { destination = gen_acct (); starting_balance = Rng.int rng 100000 }
  | 1 ->
      Tx.Payment
        { destination = gen_acct (); asset = gen_asset (); amount = 1 + Rng.int rng 100000 }
  | 2 ->
      Tx.Path_payment
        {
          send_asset = gen_asset ();
          send_max = 1 + Rng.int rng 100000;
          destination = gen_acct ();
          dest_asset = gen_asset ();
          dest_amount = 1 + Rng.int rng 100000;
          path = List.init (Rng.int rng 3) (fun _ -> gen_asset ());
        }
  | 3 ->
      Tx.Manage_offer
        {
          offer_id = Rng.int rng 1000;
          selling = gen_asset ();
          buying = gen_asset ();
          amount = Rng.int rng 100000;
          price = gen_price ();
          passive = Rng.bool rng;
        }
  | 4 ->
      let opt f = if Rng.bool rng then Some (f ()) else None in
      Tx.Set_options
        {
          master_weight = opt (fun () -> Rng.int rng 256);
          low = opt (fun () -> Rng.int rng 256);
          medium = opt (fun () -> Rng.int rng 256);
          high = opt (fun () -> Rng.int rng 256);
          signer =
            opt (fun () ->
                if Rng.bool rng then Tx.Set_signer (gen_signer ())
                else Tx.Remove_signer (gen_acct ()));
          home_domain = opt (fun () -> gen_blob 24);
          set_auth_required = opt (fun () -> Rng.bool rng);
          set_auth_revocable = opt (fun () -> Rng.bool rng);
          set_auth_immutable = opt (fun () -> Rng.bool rng);
        }
  | 5 -> Tx.Change_trust { asset = gen_asset (); limit = Rng.int rng 10_000_000 }
  | 6 ->
      Tx.Allow_trust
        {
          trustor = gen_acct ();
          asset_code = Rng.bytes rng (1 + Rng.int rng 12);
          authorize = Rng.bool rng;
        }
  | 7 -> Tx.Account_merge { destination = gen_acct () }
  | 8 ->
      Tx.Manage_data
        { name = gen_blob 12; value = (if Rng.bool rng then Some (gen_blob 16) else None) }
  | 9 -> Tx.Bump_sequence { bump_to = Rng.int rng 1_000_000 }
  | 10 -> Tx.Set_inflation_dest { dest = gen_acct () }
  | _ -> Tx.Inflation

let gen_tx () =
  {
    Tx.source = gen_acct ();
    fee = Rng.int rng 10_000;
    seq_num = Rng.int rng 1_000_000;
    time_bounds =
      (if Rng.bool rng then Some { Tx.min_time = Rng.int rng 1000; max_time = Rng.int rng 100000 }
       else None);
    memo =
      (match Rng.int rng 3 with
      | 0 -> Tx.Memo_none
      | 1 -> Tx.Memo_text (gen_blob 28)
      | _ -> Tx.Memo_hash (Rng.bytes rng 32));
    operations =
      List.init (1 + Rng.int rng 3) (fun _ -> { Tx.op_source = None; body = gen_body () });
  }

let gen_signed () =
  let signatures = List.init (Rng.int rng 3) (fun _ -> (gen_acct (), Rng.bytes rng 16)) in
  Tx.make_signed (gen_tx ()) signatures

let gen_header () =
  {
    Header.ledger_seq = Rng.int rng 1_000_000;
    prev_hash = Rng.bytes rng 32;
    scp_value_hash = Rng.bytes rng 32;
    tx_set_hash = Rng.bytes rng 32;
    results_hash = Rng.bytes rng 32;
    snapshot_hash = Rng.bytes rng 32;
    close_time = Rng.int rng 1_000_000;
    base_fee = 100 + Rng.int rng 100;
    base_reserve = Rng.int rng 1_000_000;
    protocol_version = Rng.int rng 20;
    fee_pool = Rng.int rng 1_000_000;
    id_pool = Rng.int rng 1_000_000;
    skip_list = List.init (Rng.int rng 4) (fun _ -> Rng.bytes rng 32);
  }

let rec gen_qset depth =
  let n_vals = 1 + Rng.int rng 4 in
  let validators = List.init n_vals (fun _ -> gen_acct ()) in
  let inner =
    if depth >= 2 then [] else List.init (Rng.int rng 2) (fun _ -> gen_qset (depth + 1))
  in
  let n = List.length validators + List.length inner in
  Scp.Quorum_set.make ~threshold:(1 + Rng.int rng n) ~inner validators

let gen_ballot () =
  {
    Scp.Types.counter =
      (if Rng.int rng 10 = 0 then Scp.Types.Ballot.max_counter else Rng.int rng 1000);
    value = gen_blob 48;
  }

let gen_pledge () =
  match Rng.int rng 4 with
  | 0 ->
      Scp.Types.Nominate
        {
          votes = List.init (Rng.int rng 3) (fun _ -> gen_blob 32);
          accepted = List.init (Rng.int rng 3) (fun _ -> gen_blob 32);
        }
  | 1 ->
      Scp.Types.Prepare
        {
          ballot = gen_ballot ();
          prepared = (if Rng.bool rng then Some (gen_ballot ()) else None);
          prepared_prime = (if Rng.bool rng then Some (gen_ballot ()) else None);
          n_c = Rng.int rng 100;
          n_h = Rng.int rng 100;
        }
  | 2 ->
      Scp.Types.Confirm
        {
          ballot = gen_ballot ();
          n_prepared = Rng.int rng 100;
          n_commit = Rng.int rng 100;
          n_h = Rng.int rng 100;
        }
  | _ -> Scp.Types.Externalize { commit = gen_ballot (); n_h = Rng.int rng 100 }

let gen_statement () =
  {
    Scp.Types.node_id = gen_acct ();
    slot = Rng.int rng 1_000_000;
    quorum_set = gen_qset 0;
    pledge = gen_pledge ();
  }

let gen_envelope () = { Scp.Types.statement = gen_statement (); signature = Rng.bytes rng 32 }

let gen_value () =
  let tags = List.filter (fun _ -> Rng.bool rng) [ 0; 1; 2 ] in
  {
    Stellar_herder.Value.tx_set_hash = Rng.bytes rng 32;
    close_time = Rng.int rng 1_000_000;
    upgrades =
      List.map
        (function
          | 0 -> Stellar_herder.Value.Upgrade_base_fee (100 + Rng.int rng 1000)
          | 1 -> Stellar_herder.Value.Upgrade_base_reserve (1 + Rng.int rng 1000)
          | _ -> Stellar_herder.Value.Upgrade_protocol_version (1 + Rng.int rng 50))
        tags;
  }

let gen_tx_set_of n =
  Stellar_herder.Tx_set.make ~prev_header_hash:(Rng.bytes rng 32)
    (List.init n (fun _ -> gen_signed ()))

let gen_tx_set () = gen_tx_set_of (Rng.int rng 4)

let gen_message () =
  match Rng.int rng 4 with
  | 0 -> Stellar_node.Message.Envelope (gen_envelope ())
  | 1 -> Stellar_node.Message.Tx_set_msg (gen_tx_set ())
  | 2 -> Stellar_node.Message.Tx_msg (gen_signed ())
  | _ -> Stellar_node.Message.Get_scp_state (Rng.int rng 0x1_0000_0000)

let gen_item () =
  {
    Stellar_bucket.Bucket.key = gen_key ();
    entry = (if Rng.bool rng then Some (gen_entry ()) else None);
  }

let gen_bucket_list () =
  let bl = ref (Stellar_bucket.Bucket_list.create ~levels:4 ()) in
  for _ = 1 to Rng.int rng 4 do
    bl :=
      Stellar_bucket.Bucket_list.add_batch !bl (List.init (1 + Rng.int rng 4) (fun _ -> gen_item ()))
  done;
  !bl

(* ---------- round-trip properties ---------- *)

let iterations = 100

(* decode ∘ encode = id (structural), and encode ∘ decode = id (bytes): both
   are implied by [Xdr.round_trips] plus the structural equality check. *)
let roundtrip_case name codec gen =
  Alcotest.test_case name `Quick (fun () ->
      for i = 1 to iterations do
        let v = gen () in
        let enc = Xdr.encode codec v in
        Alcotest.(check bool)
          (Printf.sprintf "%s: 4-byte alignment (iter %d)" name i)
          true
          (String.length enc mod 4 = 0);
        (match Xdr.decode codec enc with
        | Error e -> Alcotest.failf "%s: decode failed (iter %d): %s" name i e
        | Ok v' ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: decode(encode v) = v (iter %d)" name i)
              true (v' = v);
            Alcotest.(check string)
              (Printf.sprintf "%s: encode(decode bytes) = bytes (iter %d)" name i)
              (hex enc)
              (hex (Xdr.encode codec v')));
        Alcotest.(check bool)
          (Printf.sprintf "%s: round_trips (iter %d)" name i)
          true (Xdr.round_trips codec v)
      done)

(* Tx_set / Bucket / Bucket_list values are abstract or carry derived
   fields; compare via canonical bytes and hashes instead of (=). *)
let roundtrip_bytes_case name codec gen hash_of =
  Alcotest.test_case name `Quick (fun () ->
      for i = 1 to iterations do
        let v = gen () in
        let enc = Xdr.encode codec v in
        match Xdr.decode codec enc with
        | Error e -> Alcotest.failf "%s: decode failed (iter %d): %s" name i e
        | Ok v' ->
            Alcotest.(check string)
              (Printf.sprintf "%s: canonical bytes (iter %d)" name i)
              (hex enc)
              (hex (Xdr.encode codec v'));
            Alcotest.(check string)
              (Printf.sprintf "%s: hash stable (iter %d)" name i)
              (hex (hash_of v)) (hex (hash_of v'))
      done)

let roundtrip_tests =
  [
    roundtrip_case "price" Price.xdr gen_price;
    roundtrip_case "asset" Asset.xdr gen_asset;
    roundtrip_case "entry key" Entry.key_xdr gen_key;
    roundtrip_case "ledger entry" Entry.entry_xdr gen_entry;
    roundtrip_case "transaction" Tx.xdr gen_tx;
    roundtrip_case "signed transaction" Tx.signed_xdr gen_signed;
    roundtrip_case "ledger header" Header.xdr gen_header;
    roundtrip_case "quorum set" Scp.Quorum_set.xdr (fun () -> gen_qset 0);
    roundtrip_case "scp statement" Scp.Types.statement_xdr gen_statement;
    roundtrip_case "scp envelope" Scp.Types.envelope_xdr gen_envelope;
    roundtrip_case "consensus value" Stellar_herder.Value.xdr gen_value;
    roundtrip_case "bucket item" Stellar_bucket.Bucket.item_xdr gen_item;
    roundtrip_case "overlay message" Stellar_node.Message.xdr gen_message;
    roundtrip_bytes_case "tx set" Stellar_herder.Tx_set.xdr gen_tx_set
      Stellar_herder.Tx_set.hash;
    roundtrip_bytes_case "bucket list" Stellar_bucket.Bucket_list.xdr gen_bucket_list
      Stellar_bucket.Bucket_list.hash;
  ]

(* ---------- canonical decoding: two properties per codec ---------- *)

(* Every exported codec, with a generator and the value as its module's
   constructor builds it from the decoded parts: a decoded bucket must be
   the sorted run [Bucket.of_items] makes of its items.  Identity where the
   module has no such constructor. *)
type codec = Codec : string * 'a Xdr.codec * (unit -> 'a) * ('a -> 'a) -> codec

let gen_bucket () =
  Stellar_bucket.Bucket.of_items (List.init (Rng.int rng 6) (fun _ -> gen_item ()))

let codecs =
  let module B = Stellar_bucket.Bucket in
  [
    Codec ("asset", Asset.xdr, gen_asset, Fun.id);
    Codec ("price", Price.xdr, gen_price, Fun.id);
    Codec ("entry key", Entry.key_xdr, gen_key, Fun.id);
    Codec ("ledger entry", Entry.entry_xdr, gen_entry, Fun.id);
    Codec ("transaction", Tx.xdr, gen_tx, Fun.id);
    Codec ("signed transaction", Tx.signed_xdr, gen_signed, Fun.id);
    Codec ("ledger header", Header.xdr, gen_header, Fun.id);
    Codec ("scp statement", Scp.Types.statement_xdr, gen_statement, Fun.id);
    Codec ("scp envelope", Scp.Types.envelope_xdr, gen_envelope, Fun.id);
    Codec ("consensus value", Stellar_herder.Value.xdr, gen_value, Fun.id);
    Codec ("tx set", Stellar_herder.Tx_set.xdr, gen_tx_set, Fun.id);
    Codec ("overlay message", Stellar_node.Message.xdr, gen_message, Fun.id);
    Codec ("bucket item", B.item_xdr, gen_item, Fun.id);
    Codec ("bucket", B.xdr, gen_bucket, fun b -> B.of_items (B.items b));
    Codec ("bucket list", Stellar_bucket.Bucket_list.xdr, gen_bucket_list, Fun.id);
    Codec ("quorum set", Scp.Quorum_set.xdr, (fun () -> gen_qset 0), Fun.id);
  ]

(* The four mutations of an encoding: a flipped byte, two 4-byte words
   swapped, a truncation and an extension.  [a] and [b] pick the place and
   the bytes. *)
let mutate s (kind, a, b) =
  let n = String.length s in
  match kind with
  | 0 when n > 0 ->
      let m = Bytes.of_string s in
      Bytes.set m (a mod n) (Char.chr (Char.code s.[a mod n] lxor (1 + (b mod 255))));
      ("flip", Bytes.to_string m)
  | 1 when n >= 8 ->
      let words = n / 4 in
      let i = a mod words in
      let j = (i + 1 + (b mod (words - 1))) mod words in
      let m = Bytes.of_string s in
      Bytes.blit_string s (4 * i) m (4 * j) 4;
      Bytes.blit_string s (4 * j) m (4 * i) 4;
      ("swap", Bytes.to_string m)
  | 2 when n > 0 -> ("truncate", String.sub s 0 (a mod n))
  | _ -> ("extend", s ^ String.init (1 + (a mod 8)) (fun k -> Char.chr ((b lsr k) land 0xff)))

let mutations_per_value = 32

let mutation =
  QCheck.Gen.(triple (int_bound 3) (int_bound 1_000_000) (int_bound 1_000_000))

(* Fixed QCheck seed: mutations, like values, reproduce run to run. *)
let canonical_case t =
  QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x5EED |]) t

let canonical_tests =
  List.concat_map
    (fun (Codec (name, codec, gen, rebuild)) ->
      let value = QCheck.make ~print:(fun v -> hex (Xdr.encode codec v)) (fun _ -> gen ()) in
      let mutated =
        QCheck.make
          ~print:(fun (v, _) -> hex (Xdr.encode codec v))
          (fun st -> (gen (), QCheck.Gen.list_repeat mutations_per_value mutation st))
      in
      [
        canonical_case
          (QCheck.Test.make ~count:100 ~name:(name ^ ": encode (decode (encode v)) = encode v")
             value (fun v ->
               let e = Xdr.encode codec v in
               match Xdr.decode codec e with
               | Ok v' -> String.equal (Xdr.encode codec v') e
               | Error err -> QCheck.Test.fail_reportf "decode failed: %s" err));
        canonical_case
          (QCheck.Test.make ~count:100
             ~name:(name ^ ": a mutated encoding decodes only to a value encoding as it")
             mutated (fun (v, plans) ->
               let e = Xdr.encode codec v in
               List.for_all
                 (fun plan ->
                   let what, m = mutate e plan in
                   match Xdr.decode codec m with
                   | Error _ -> true
                   | Ok v' ->
                       String.equal (Xdr.encode codec v') m
                       && String.equal (Xdr.encode codec (rebuild v')) m
                       || QCheck.Test.fail_reportf "%s: %s decodes to a value encoding as %s"
                            what (hex m)
                            (hex (Xdr.encode codec (rebuild v'))))
                 plans));
      ])
    codecs

(* ---------- primitives & strictness ---------- *)

let prim_tests =
  let open Alcotest in
  [
    test_case "primitive golden vectors" `Quick (fun () ->
        check string "uint32 1" "00000001" (hex (Xdr.encode Xdr.uint32 1));
        check string "uint32 max" "ffffffff" (hex (Xdr.encode Xdr.uint32 0xffff_ffff));
        check string "int32 -1" "ffffffff" (hex (Xdr.encode Xdr.int32 (-1)));
        check string "hyper -1" "ffffffffffffffff" (hex (Xdr.encode Xdr.hyper (-1)));
        check string "hyper 2^40" "0000010000000000" (hex (Xdr.encode Xdr.hyper (1 lsl 40)));
        check string "bool true" "00000001" (hex (Xdr.encode Xdr.bool true));
        check string "str hi (padded)" "0000000268690000" (hex (Xdr.encode (Xdr.str ()) "hi"));
        check string "str empty" "00000000" (hex (Xdr.encode (Xdr.str ()) ""));
        check string "opaque3 abc" "61626300" (hex (Xdr.encode (Xdr.opaque 3) "abc"));
        check string "option none" "00000000" (hex (Xdr.encode (Xdr.option Xdr.uint32) None));
        check string "option some 7" "0000000100000007"
          (hex (Xdr.encode (Xdr.option Xdr.uint32) (Some 7)));
        check string "list [1;2]" "000000020000000100000002"
          (hex (Xdr.encode (Xdr.list Xdr.uint32) [ 1; 2 ])));
    test_case "primitive integer round trips" `Quick (fun () ->
        List.iter
          (fun v -> check bool "int32" true (Xdr.round_trips Xdr.int32 v))
          [ 0; 1; -1; 0x7fff_ffff; -0x8000_0000 ];
        List.iter
          (fun v -> check bool "uint32" true (Xdr.round_trips Xdr.uint32 v))
          [ 0; 1; 0xffff_ffff ];
        List.iter
          (fun v -> check bool "hyper" true (Xdr.round_trips Xdr.hyper v))
          [ 0; 1; -1; max_int; min_int ]);
    test_case "writer range checks" `Quick (fun () ->
        let raises f = match f () with _ -> false | exception Xdr.Error _ -> true in
        check bool "uint32 negative" true (raises (fun () -> Xdr.encode Xdr.uint32 (-1)));
        check bool "uint32 too big" true (raises (fun () -> Xdr.encode Xdr.uint32 0x1_0000_0000));
        check bool "int32 too big" true (raises (fun () -> Xdr.encode Xdr.int32 0x8000_0000));
        check bool "opaque wrong length" true
          (raises (fun () -> Xdr.encode (Xdr.opaque 4) "abc"));
        check bool "str over max" true
          (raises (fun () -> Xdr.encode (Xdr.str ~max:2 ()) "abc")));
    test_case "strict decoding rejects malformed input" `Quick (fun () ->
        let is_err = function Error _ -> true | Ok _ -> false in
        check bool "truncated" true (is_err (Xdr.decode Xdr.uint32 "abc"));
        check bool "trailing bytes" true
          (is_err (Xdr.decode Xdr.uint32 "\x00\x00\x00\x01\x00\x00\x00\x00"));
        (* "a" encodes as 00000001 'a' 000000; corrupt a pad byte *)
        let enc = Bytes.of_string (Xdr.encode (Xdr.str ()) "a") in
        Bytes.set enc 7 '\x01';
        check bool "nonzero padding" true (is_err (Xdr.decode (Xdr.str ()) (Bytes.to_string enc)));
        (* declared length overruns the buffer *)
        check bool "length overrun" true
          (is_err (Xdr.decode (Xdr.str ()) "\x00\x00\x00\xff\x61\x00\x00\x00"));
        (* absurd list count must fail before allocating *)
        check bool "huge list count" true
          (is_err (Xdr.decode (Xdr.list Xdr.uint32) "\xff\xff\xff\xff"));
        check bool "bad union discriminant" true
          (is_err (Xdr.decode Asset.xdr "\x00\x00\x00\x07"));
        check bool "bad bool" true (is_err (Xdr.decode Xdr.bool "\x00\x00\x00\x02")));
    test_case "value decode accepts only the canonical upgrade order" `Quick (fun () ->
        (* the two arms of a canonical two-upgrade encoding, swapped, and a
           value with two base-fee arms: each would decode to a value whose
           encoding is not the bytes received *)
        let module V = Stellar_herder.Value in
        let encode upgrades = V.encode { V.tx_set_hash = "tsh"; close_time = 7; upgrades } in
        let canonical = encode [ V.Upgrade_base_fee 200; V.Upgrade_base_reserve 5 ] in
        (* each arm is a 4-byte tag and an 8-byte hyper, at the end *)
        let n = String.length canonical in
        let swapped =
          String.sub canonical 0 (n - 24) ^ String.sub canonical (n - 12) 12
          ^ String.sub canonical (n - 24) 12
        in
        check bool "canonical two-upgrade value decodes" true (V.decode canonical <> None);
        check bool "swapped arms rejected" true (V.decode swapped = None);
        check bool "repeated tag rejected" true
          (V.decode (encode [ V.Upgrade_base_fee 200; V.Upgrade_base_fee 300 ]) = None));
    test_case "bucket decode accepts only strictly increasing keys" `Quick (fun () ->
        (* a canonical three-item bucket re-encoded with two items swapped,
           and with one item repeated: neither is a sorted run *)
        let module B = Stellar_bucket.Bucket in
        let item name = { B.key = Entry.Account_key name; entry = None } in
        let b = B.of_items [ item "a"; item "b"; item "c" ] in
        let encode items =
          let w = Xdr.Writer.create () in
          Xdr.Writer.uint32 w (List.length items);
          List.iter (B.item_xdr.Xdr.write w) items;
          Xdr.Writer.contents w
        in
        let ok s = Result.is_ok (Xdr.decode B.xdr s) in
        match B.items b with
        | [ x; y; z ] ->
            check string "canonical order encodes as the bucket" (Xdr.encode B.xdr b)
              (encode [ x; y; z ]);
            check bool "canonical bucket decodes" true (ok (encode [ x; y; z ]));
            check bool "swapped items rejected" false (ok (encode [ x; z; y ]));
            check bool "repeated item rejected" false (ok (encode [ x; y; y; z ]))
        | _ -> fail "expected three items");
    test_case "quorum set decode re-validates invariants" `Quick (fun () ->
        (* threshold 3 over 1 validator: structurally decodable, semantically bad *)
        let w = Xdr.Writer.create () in
        Xdr.Writer.uint32 w 3;
        Xdr.Writer.uint32 w 1;
        Xdr.Writer.opaque_var w "v1";
        Xdr.Writer.uint32 w 0;
        match Scp.Quorum_set.decode (Xdr.Writer.contents w) with
        | Ok _ -> Alcotest.fail "accepted out-of-range threshold"
        | Error _ -> ());
  ]

(* ---------- hashes and sizes are measured over canonical bytes ---------- *)

(* [Xdr.stream] into SHA-256 returns the length of [Xdr.encode] and hashes
   to the digest of its bytes. *)
let streams_like_encode codec v =
  let ctx = Stellar_crypto.Sha256.init () in
  let n = Xdr.stream codec v (Stellar_crypto.Sha256.update_sub ctx) in
  let bytes = Xdr.encode codec v in
  n = String.length bytes && String.equal (Stellar_crypto.Sha256.final ctx) (sha256 bytes)

let accounting_tests =
  let open Alcotest in
  [
    test_case "content hashes = SHA-256 of canonical bytes" `Quick (fun () ->
        for _ = 1 to 25 do
          let q = gen_qset 0 in
          check string "quorum set" (hex (sha256 (Scp.Quorum_set.encode q)))
            (hex (Scp.Quorum_set.hash q));
          let h = gen_header () in
          check string "header" (hex (sha256 (Header.encode h))) (hex (Header.hash h));
          let v = gen_value () in
          check string "value"
            (hex (sha256 (Stellar_herder.Value.encode v)))
            (hex (Stellar_herder.Value.hash v));
          let ts = gen_tx_set () in
          check string "tx set"
            (hex (sha256 (Stellar_herder.Tx_set.encode ts)))
            (hex (Stellar_herder.Tx_set.hash ts));
          (* A tx set is named by its own hash; other messages by the
             hash of the flood wrapper's bytes. *)
          let m = gen_message () in
          check string "message wire id"
            (hex
               (match m with
               | Stellar_node.Message.Tx_set_msg ts -> Stellar_herder.Tx_set.hash ts
               | _ -> sha256 (Stellar_node.Message.encode m)))
            (hex (Stellar_node.Message.wire m).Stellar_node.Message.id)
        done);
    test_case "sizes = Bytes.length of the actual encoding" `Quick (fun () ->
        for _ = 1 to 25 do
          let s = gen_signed () in
          check int "tx size" (String.length (Xdr.encode Tx.signed_xdr s)) (Tx.size s);
          let e = gen_envelope () in
          check int "envelope size"
            (String.length (Scp.Types.encode_envelope e))
            (Scp.Types.envelope_size e);
          let ts = gen_tx_set () in
          check int "tx set size"
            (String.length (Stellar_herder.Tx_set.encode ts))
            (Stellar_herder.Tx_set.size_bytes ts);
          let m = gen_message () in
          check int "message wire size"
            (String.length (Stellar_node.Message.encode m))
            (Stellar_node.Message.wire m).Stellar_node.Message.size
        done);
    test_case "wire size and id for every message kind" `Quick (fun () ->
        let open Stellar_node.Message in
        for i = 1 to 30 do
          let m =
            match i mod 4 with
            | 0 -> Envelope (gen_envelope ())
            | 1 -> Tx_set_msg (gen_tx_set_of (Rng.int rng 300))
            | 2 -> Tx_msg (gen_signed ())
            | _ -> Get_scp_state (Rng.int rng 0x1_0000_0000)
          in
          let w = wire m and bytes = encode m in
          check int (kind_name m ^ " size") (String.length bytes) w.size;
          check string (kind_name m ^ " id")
            (hex (match m with Tx_set_msg ts -> Stellar_herder.Tx_set.hash ts | _ -> sha256 bytes))
            (hex w.id)
        done);
    test_case "a tx set re-read from the wire keeps its id" `Quick (fun () ->
        let open Stellar_node.Message in
        for _ = 1 to 20 do
          let ts = gen_tx_set_of (Rng.int rng 300) in
          let sent = wire (Tx_set_msg ts) in
          (match decode (encode (Tx_set_msg ts)) with
          | Ok (Tx_set_msg _ as m) ->
              let got = wire m in
              check string "id" (hex sent.id) (hex got.id);
              check int "size" sent.size got.size
          | Ok _ -> fail "decoded another kind"
          | Error e -> fail e);
          (* Dedup is by set: the same txs in another order are one message,
             another previous header is another. *)
          let prev = Stellar_herder.Tx_set.prev_header_hash ts
          and txs = Stellar_herder.Tx_set.txs ts in
          let same = Stellar_herder.Tx_set.make ~prev_header_hash:prev (List.rev txs) in
          check string "reordered" (hex sent.id) (hex (wire (Tx_set_msg same)).id);
          let other = Stellar_herder.Tx_set.make ~prev_header_hash:(prev ^ "x") txs in
          check bool "other prev" false (String.equal sent.id (wire (Tx_set_msg other)).id)
        done);
    test_case "stream: chunk boundaries and long opaques" `Quick (fun () ->
        let chunk = Xdr.Writer.chunk_size in
        let blob n = String.init n (fun i -> Char.chr ((i * 31) land 255)) in
        let case name codec v len =
          let sunk = Buffer.create 16 and longest = ref 0 in
          let n =
            Xdr.stream codec v (fun b off l ->
                longest := max !longest l;
                Buffer.add_subbytes sunk b off l)
          in
          check int (name ^ " length") len n;
          check string (name ^ " bytes") (hex (Xdr.encode codec v)) (hex (Buffer.contents sunk));
          check bool (name ^ " streams") true (streams_like_encode codec v);
          (* an opaque longer than the chunk reaches the sink in place *)
          if len > 2 * chunk then check bool (name ^ " in place") true (!longest > chunk)
        in
        (* ends exactly on one chunk boundary, then on two *)
        case "one chunk" (Xdr.str ()) (blob (chunk - 4)) chunk;
        case "two chunks" Xdr.(list uint32) (List.init ((2 * chunk / 4) - 1) Fun.id) (2 * chunk);
        (* an opaque longer than the chunk after a partial chunk *)
        case "long opaque" Xdr.(pair hyper (str ())) (7, blob ((2 * chunk) + 3)) ((2 * chunk) + 16);
        case "mixed"
          Xdr.(list (str ()))
          [ blob 5; blob (3 * chunk); blob chunk; blob (chunk - 1) ]
          (4 + 12 + (4 + (3 * chunk)) + (4 + chunk) + (4 + chunk)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"streamed SHA-256 = digest of the encoding" ~count:60
         QCheck.(pair (int_bound 6) (int_bound 3000))
         (fun (kind, size) ->
           let open Stellar_node.Message in
           match kind with
           | 0 ->
               let ts = gen_tx_set_of (size mod 1201) in
               let bytes = Stellar_herder.Tx_set.encode ts in
               streams_like_encode Stellar_herder.Tx_set.xdr ts
               && String.equal (Stellar_herder.Tx_set.hash ts) (sha256 bytes)
               && Stellar_herder.Tx_set.size_bytes ts = String.length bytes
           | 1 ->
               let b = Stellar_bucket.Bucket.of_items (List.init size (fun _ -> gen_item ())) in
               let items = Stellar_bucket.Bucket.items b in
               streams_like_encode Stellar_bucket.Bucket.xdr b
               && String.equal (Stellar_bucket.Bucket.hash b)
                    (if items = [] then sha256 "empty-bucket"
                     else
                       sha256
                         (String.concat ""
                            (List.map (Xdr.encode Stellar_bucket.Bucket.item_xdr) items)))
           | 2 -> streams_like_encode Header.xdr (gen_header ())
           | 3 -> streams_like_encode xdr (Envelope (gen_envelope ()))
           | 4 -> streams_like_encode xdr (Tx_set_msg (gen_tx_set_of (size mod 1201)))
           | 5 -> streams_like_encode xdr (Tx_msg (gen_signed ()))
           | _ ->
               (* opaques of every length up to three chunks *)
               streams_like_encode
                 Xdr.(list (str ()))
                 (List.init (size mod 7) (fun i -> gen_blob (size * (i + 1) mod 1600)))));
  ]

(* ---------- golden vectors for domain codecs ---------- *)

(* Fixed values encoded byte-for-byte.  If one of these checks fails, the
   wire format changed: every content hash in the system changes with it,
   so this must be a deliberate, documented decision. *)

let golden_asset = Asset.credit ~code:"USD" ~issuer:"issuer-1"

let golden_tx =
  {
    Tx.source = "alice";
    fee = 200;
    seq_num = 42;
    time_bounds = Some { Tx.min_time = 5; max_time = 500 };
    memo = Tx.Memo_text "hello";
    operations =
      [
        {
          Tx.op_source = None;
          body = Tx.Payment { destination = "bob"; asset = golden_asset; amount = 1000 };
        };
      ];
  }

let golden_signed = Tx.make_signed golden_tx [ ("alice", "sig-bytes") ]

let golden_header =
  {
    Header.ledger_seq = 7;
    prev_hash = "prev";
    scp_value_hash = "scpv";
    tx_set_hash = "txs";
    results_hash = "res";
    snapshot_hash = "snap";
    close_time = 1234;
    base_fee = 100;
    base_reserve = 5000000;
    protocol_version = 1;
    fee_pool = 300;
    id_pool = 9;
    skip_list = [ "s0"; "s1" ];
  }

let golden_envelope =
  {
    Scp.Types.statement =
      {
        Scp.Types.node_id = "node-a";
        slot = 7;
        quorum_set = Scp.Quorum_set.make ~threshold:1 [ "node-a" ];
        pledge =
          Scp.Types.Prepare
            {
              ballot = { Scp.Types.counter = 2; value = "val" };
              prepared = Some { Scp.Types.counter = 1; value = "val" };
              prepared_prime = None;
              n_c = 0;
              n_h = 1;
            };
      };
    signature = "sig";
  }

let golden_value =
  {
    Stellar_herder.Value.tx_set_hash = "tsh";
    close_time = 1000;
    upgrades = [ Stellar_herder.Value.Upgrade_base_fee 250 ];
  }

let golden_entry =
  Entry.Trustline_entry
    {
      account = "bob";
      asset = golden_asset;
      tl_balance = 77;
      limit = 1000;
      authorized = true;
    }

let golden_item = { Stellar_bucket.Bucket.key = Entry.Account_key "gone"; entry = None }

let goldens : (string * string * string) list Lazy.t =
  lazy
    [
      ( "asset",
        hex (Xdr.encode Asset.xdr golden_asset),
        "000000010000000355534400000000086973737565722d31" );
      ( "tx",
        hex (Xdr.encode Tx.xdr golden_tx),
        "00000005616c69636500000000000000000000c8000000000000002a00000001000000000000000500000000000001f4000000010000000568656c6c6f00000000000001000000000000000100000003626f6200000000010000000355534400000000086973737565722d3100000000000003e8"
      );
      ( "signed tx",
        hex (Xdr.encode Tx.signed_xdr golden_signed),
        "00000005616c69636500000000000000000000c8000000000000002a00000001000000000000000500000000000001f4000000010000000568656c6c6f00000000000001000000000000000100000003626f6200000000010000000355534400000000086973737565722d3100000000000003e80000000100000005616c696365000000000000097369672d6279746573000000"
      );
      ( "header",
        hex (Xdr.encode Header.xdr golden_header),
        "0000000000000007000000047072657600000004736370760000000374787300000000037265730000000004736e617000000000000004d2000000000000006400000000004c4b400000000000000001000000000000012c00000000000000090000000200000002733000000000000273310000"
      );
      ( "envelope",
        hex (Xdr.encode Scp.Types.envelope_xdr golden_envelope),
        "000000066e6f64652d61000000000000000000070000000100000001000000066e6f64652d610000000000000000000100000000000000020000000376616c000000000100000000000000010000000376616c0000000000000000000000000000000000000000010000000373696700"
      );
      ( "value",
        hex (Xdr.encode Stellar_herder.Value.xdr golden_value),
        "000000037473680000000000000003e8000000010000000000000000000000fa" );
      ( "entry",
        hex (Xdr.encode Entry.entry_xdr golden_entry),
        "0000000100000003626f6200000000010000000355534400000000086973737565722d31000000000000004d00000000000003e800000001"
      );
      ( "bucket item",
        hex (Xdr.encode Stellar_bucket.Bucket.item_xdr golden_item),
        "0000000000000004676f6e6500000000" );
      ( "scp state ask",
        hex (Stellar_node.Message.encode (Stellar_node.Message.Get_scp_state 0x0102_0304)),
        "0000000301020304" );
    ]

let () =
  if Sys.getenv_opt "XDR_PRINT_GOLDEN" <> None then begin
    List.iter (fun (name, actual, _) -> Printf.eprintf "GOLDEN %-12s %s\n" name actual)
      (Lazy.force goldens);
    exit 0
  end

(* Recorded before the transaction hash moved into [Tx.signed]; a change
   here means every signature and tx-set hash changed with it. *)
let golden_tx_hash = "ef58bb8674b90b0f5a5089accbf9804e02005eb67eb1f894c0bf9611fb937929"

let golden_tests =
  [
    Alcotest.test_case "domain golden vectors" `Quick (fun () ->
        List.iter
          (fun (name, actual, expected) -> Alcotest.(check string) name expected actual)
          (Lazy.force goldens));
    Alcotest.test_case "tx hash golden vector" `Quick (fun () ->
        Alcotest.(check string) "Tx.hash" golden_tx_hash (hex (Tx.hash golden_tx));
        Alcotest.(check string) "make_signed" golden_tx_hash (hex golden_signed.Tx.tx_hash));
    Alcotest.test_case "decoded signed tx carries its hash" `Quick (fun () ->
        match Xdr.decode Tx.signed_xdr (Xdr.encode Tx.signed_xdr golden_signed) with
        | Error e -> Alcotest.fail e
        | Ok s ->
            Alcotest.(check string) "tx_hash = Tx.hash tx" (hex (Tx.hash s.Tx.tx))
              (hex s.Tx.tx_hash);
            Alcotest.(check string) "golden" golden_tx_hash (hex s.Tx.tx_hash));
    (* a request comes from outside the node: only a uint32 seq under tag 3 *)
    Alcotest.test_case "scp state ask decodes strictly" `Quick (fun () ->
        let decodes s = Result.is_ok (Stellar_node.Message.decode s) in
        Alcotest.(check bool) "tag 3" true (decodes "\x00\x00\x00\x03\xff\xff\xff\xff");
        Alcotest.(check bool) "tag 4" false (decodes "\x00\x00\x00\x04\x00\x00\x00\x07");
        Alcotest.(check bool) "a 64-bit seq" false
          (decodes "\x00\x00\x00\x03\x00\x00\x00\x01\x00\x00\x00\x00");
        Alcotest.(check bool) "no seq" false (decodes "\x00\x00\x00\x03");
        Alcotest.check_raises "a seq past uint32 does not encode"
          (Xdr.Error "Xdr.Writer.uint32: 4294967296 out of range") (fun () ->
            ignore (Stellar_node.Message.encode (Stellar_node.Message.Get_scp_state 0x1_0000_0000))));
  ]

(* ---------- archive blob round trip ---------- *)

let archive_tests =
  let open Alcotest in
  [
    test_case "archive blob round-trips bit-for-bit" `Quick (fun () ->
        let a = Stellar_archive.Archive.create ~checkpoint_frequency:4 () in
        let known_tx = ref None in
        for seq = 1 to 10 do
          let txs = List.init 2 (fun _ -> gen_signed ()) in
          (match (txs, !known_tx) with s :: _, None -> known_tx := Some s | _ -> ());
          let tx_set = Stellar_herder.Tx_set.make ~prev_header_hash:(Rng.bytes rng 32) txs in
          let header = { (gen_header ()) with Header.ledger_seq = seq } in
          let value =
            { (gen_value ()) with Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash tx_set }
          in
          Stellar_archive.Archive.record_ledger a ~header ~value ~tx_set
            ~buckets:(gen_bucket_list ())
        done;
        let blob = Stellar_archive.Archive.to_blob a in
        match Stellar_archive.Archive.of_blob blob with
        | Error e -> failf "of_blob failed: %s" e
        | Ok b ->
            check string "re-serialization is identical" (hex (sha256 blob))
              (hex (sha256 (Stellar_archive.Archive.to_blob b)));
            check bool "latest seq" true
              (Stellar_archive.Archive.latest_seq b = Some 10);
            check int "checkpoints" 2 (Stellar_archive.Archive.checkpoint_count b);
            check int "archived bytes" (Stellar_archive.Archive.size_bytes a)
              (Stellar_archive.Archive.size_bytes b);
            for seq = 1 to 10 do
              check bool
                (Printf.sprintf "header %d equal" seq)
                true
                (Stellar_archive.Archive.header a seq = Stellar_archive.Archive.header b seq);
              let hashes x =
                Option.map
                  (fun (h, v, ts) ->
                    (Header.hash h, Stellar_herder.Value.hash v, Stellar_herder.Tx_set.hash ts))
                  (Stellar_archive.Archive.ledger x seq)
              in
              check bool
                (Printf.sprintf "ledger %d: header, value and tx set hashes equal" seq)
                true
                (hashes a <> None && hashes a = hashes b)
            done;
            (match !known_tx with
            | None -> fail "no tx recorded"
            | Some s ->
                let h = s.Tx.tx_hash in
                check bool "tx index rebuilt" true
                  (Stellar_archive.Archive.find_tx b h <> None)));
    test_case "of_blob rejects garbage" `Quick (fun () ->
        check bool "junk" true
          (Result.is_error (Stellar_archive.Archive.of_blob "garbage-bytes"));
        check bool "empty" true (Result.is_error (Stellar_archive.Archive.of_blob "")));
  ]

let () =
  Alcotest.run "xdr"
    [
      ("primitives", prim_tests);
      ("roundtrip", roundtrip_tests);
      ("canonical", canonical_tests);
      ("accounting", accounting_tests);
      ("golden", golden_tests);
      ("archive", archive_tests);
    ]
