open Stellar_crypto

(* ---------- SHA-2 NIST / RFC vectors ---------- *)

let sha_tests =
  let open Alcotest in
  [
    test_case "sha256 empty" `Quick (fun () ->
        check string "digest" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Sha256.hex ""));
    test_case "sha256 abc" `Quick (fun () ->
        check string "digest" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (Sha256.hex "abc"));
    test_case "sha256 448-bit NIST vector" `Quick (fun () ->
        check string "digest" "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (Sha256.hex "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    test_case "sha256 million a's" `Slow (fun () ->
        check string "digest" "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Sha256.hex (String.make 1_000_000 'a')));
    test_case "sha256 incremental = one-shot" `Quick (fun () ->
        let msg = String.init 1000 (fun i -> Char.chr (i mod 256)) in
        let ctx = Sha256.init () in
        (* Deliberately odd chunk sizes to cross block boundaries. *)
        let rec feed pos =
          if pos < String.length msg then begin
            let n = min 37 (String.length msg - pos) in
            Sha256.update ctx (String.sub msg pos n);
            feed (pos + n)
          end
        in
        feed 0;
        check string "same" (Hex.encode (Sha256.digest msg)) (Hex.encode (Sha256.final ctx)));
    test_case "sha512 abc" `Quick (fun () ->
        check string "digest"
          "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f"
          (Sha512.hex "abc"));
    test_case "sha512 empty" `Quick (fun () ->
        check string "digest"
          "cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e"
          (Sha512.hex ""));
    test_case "hmac-sha256 RFC 4231 case 1" `Quick (fun () ->
        check string "mac"
          "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
          (Hmac.hex ~key:(String.make 20 '\x0b') "Hi There"));
    test_case "hmac-sha256 RFC 4231 case 2" `Quick (fun () ->
        check string "mac"
          "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
          (Hmac.hex ~key:"Jefe" "what do ya want for nothing?"));
    test_case "digest_list equals concatenation" `Quick (fun () ->
        check string "equal"
          (Hex.encode (Sha256.digest "foobarbaz"))
          (Hex.encode (Sha256.digest_list [ "foo"; "bar"; "baz" ])));
    test_case "sha256 lengths around block edges" `Quick (fun () ->
        (* Expected digests from Python's hashlib, an independent
           implementation, over bytes 0, 1, 2, ... (mod 256). *)
        List.iter
          (fun (n, expected) ->
            check string (Printf.sprintf "%d bytes" n) expected
              (Sha256.hex (String.init n (fun i -> Char.chr (i land 255)))))
          [
            (0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
            (1, "6e340b9cffb37a989ca544e6bb780a2c78901d3fb33738768511a30617afa01d");
            (55, "463eb28e72f82e0a96c0a4cc53690c571281131f672aa229e0d45ae59b598b59");
            (56, "da2ae4d6b36748f2a318f23e7ab1dfdf45acdc9d049bd80e59de82a60895f562");
            (63, "29af2686fd53374a36b0846694cc342177e428d1647515f078784d69cdb9e488");
            (64, "fdeab9acf3710362bd2658cdc9a29e8f9c757fcf9811603a8c447cd1d9151108");
            (65, "4bfd2c8b6f1eec7a2afeb48b934ee4b2694182027e6d0fc075074f2fabb31781");
            (119, "da18797ed7c3a777f0847f429724a2d8cd5138e6ed2895c3fa1a6d39d18f7ec6");
            (120, "f52b23db1fbb6ded89ef42a23ce0c8922c45f25c50b568a93bf1c075420bbb7c");
            (128, "471fb943aa23c511f6f72f8d1652d9c880cfa392ad80503120547703e56a2be5");
            (1000, "a8af099bf2e878609558dbf69d8f88f4a31040a8cf84b549a0cfa912f12ffc3f");
          ]);
    test_case "hmac-sha256 RFC 4231 case 3" `Quick (fun () ->
        check string "mac"
          "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
          (Hmac.hex ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
    test_case "hmac-sha256 RFC 4231 case 4" `Quick (fun () ->
        check string "mac"
          "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
          (Hmac.hex ~key:(String.init 25 (fun i -> Char.chr (i + 1))) (String.make 50 '\xcd')));
    test_case "hmac-sha256 RFC 4231 case 6" `Quick (fun () ->
        check string "mac"
          "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
          (Hmac.hex ~key:(String.make 131 '\xaa')
             "Test Using Larger Than Block-Size Key - Hash Key First"));
    test_case "hmac-sha256 RFC 4231 case 7" `Quick (fun () ->
        check string "mac"
          "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
          (Hmac.hex ~key:(String.make 131 '\xaa')
             "This is a test using a larger than block-size key and a larger than block-size \
              data. The key needs to be hashed before being used by the HMAC algorithm."));
    test_case "midstate needs a block boundary" `Quick (fun () ->
        let ctx = Sha256.init () in
        Sha256.update ctx "abc";
        check_raises "partial block"
          (Invalid_argument "Sha256.midstate: not on a block boundary") (fun () ->
            ignore (Sha256.midstate ctx)));
  ]

(* RFC 2104 written out over one-shot digests: the spec the prepared-key
   path (midstates after the padded key blocks) must agree with. *)
let hmac_spec ~key msg =
  let key = if String.length key > 64 then Sha256.digest key else key in
  let pad c =
    String.init 64 (fun i ->
        Char.chr ((if i < String.length key then Char.code key.[i] else 0) lxor c))
  in
  Sha256.digest_list [ pad 0x5c; Sha256.digest_list [ pad 0x36; msg ] ]

let hmac_prop =
  QCheck.Test.make ~name:"prepared key MAC = HMAC for keys of 0-150 bytes" ~count:20
    QCheck.(pair char (string_of_size (Gen.int_range 0 200)))
    (fun (c, msg) ->
      List.for_all
        (fun key_len ->
          let key = String.init key_len (fun i -> Char.chr ((Char.code c + (i * 7)) land 255)) in
          let expected = hmac_spec ~key msg in
          String.equal (Hmac.mac (Hmac.prepare key) msg) expected
          && String.equal (Hmac.sha256 ~key msg) expected)
        (List.init 151 Fun.id))

(* Each piece of the message sits at a random offset inside a larger
   buffer of junk, so a read outside [off, off + len) changes the digest. *)
let update_sub_prop =
  QCheck.Test.make ~name:"update_sub over random ranges = digest of the concatenation"
    ~count:200
    QCheck.(
      triple (string_of_size (Gen.int_range 0 700)) (small_list small_nat) (small_list small_nat))
    (fun (msg, cuts, junk) ->
      let ctx = Sha256.init () in
      let junk = Array.of_list (if junk = [] then [ 0 ] else junk) in
      let rec feed pos i = function
        | cut :: rest when pos < String.length msg ->
            let len = min (cut * 13) (String.length msg - pos) in
            let before = junk.(i mod Array.length junk) and after = 1 + (i * 5 mod 17) in
            let buf = Bytes.make (before + len + after) (Char.chr (i land 255)) in
            Bytes.blit_string msg pos buf before len;
            Sha256.update_sub ctx buf before len;
            feed (pos + len) (i + 1) rest
        | _ ->
            let n = String.length msg - pos in
            Sha256.update_sub ctx (Bytes.of_string ("junk" ^ String.sub msg pos n)) 4 n
      in
      feed 0 0 cuts;
      String.equal (Sha256.final ctx) (Sha256.digest msg))

(* ---------- Nat bignum properties ---------- *)

let nat_of_int64ish = Nat.of_int

let nat_gen =
  (* Mix of small and multi-limb numbers. *)
  QCheck.Gen.(
    frequency
      [
        (2, map Nat.of_int (int_bound 1000));
        (3, map (fun s -> Nat.of_bytes_be s) (string_size ~gen:char (int_range 1 24)));
        (1, map (fun s -> Nat.of_bytes_be s) (string_size ~gen:char (int_range 25 64)));
      ])

let nat_arb = QCheck.make ~print:Nat.to_string nat_gen

let nat_prop_tests =
  let open QCheck in
  [
    Test.make ~name:"add commutative" ~count:300 (pair nat_arb nat_arb) (fun (x, y) ->
        Nat.equal (Nat.add x y) (Nat.add y x));
    Test.make ~name:"add associative" ~count:300 (triple nat_arb nat_arb nat_arb)
      (fun (x, y, z) -> Nat.equal (Nat.add (Nat.add x y) z) (Nat.add x (Nat.add y z)));
    Test.make ~name:"sub inverts add" ~count:300 (pair nat_arb nat_arb) (fun (x, y) ->
        Nat.equal (Nat.sub (Nat.add x y) y) x);
    Test.make ~name:"mul commutative" ~count:300 (pair nat_arb nat_arb) (fun (x, y) ->
        Nat.equal (Nat.mul x y) (Nat.mul y x));
    Test.make ~name:"mul distributes" ~count:300 (triple nat_arb nat_arb nat_arb)
      (fun (x, y, z) ->
        Nat.equal (Nat.mul x (Nat.add y z)) (Nat.add (Nat.mul x y) (Nat.mul x z)));
    Test.make ~name:"divmod identity" ~count:500 (pair nat_arb nat_arb) (fun (x, y) ->
        assume (not (Nat.is_zero y));
        let q, r = Nat.divmod x y in
        Nat.equal x (Nat.add (Nat.mul q y) r) && Nat.compare r y < 0);
    Test.make ~name:"shift roundtrip" ~count:300 (pair nat_arb (int_bound 100))
      (fun (x, s) -> Nat.equal (Nat.shift_right (Nat.shift_left x s) s) x);
    Test.make ~name:"bytes_be roundtrip" ~count:300 nat_arb (fun x ->
        let len = max 1 ((Nat.bit_length x + 7) / 8) in
        Nat.equal x (Nat.of_bytes_be (Nat.to_bytes_be x ~len)));
    Test.make ~name:"bytes_le roundtrip" ~count:300 nat_arb (fun x ->
        let len = max 1 ((Nat.bit_length x + 7) / 8) in
        Nat.equal x (Nat.of_bytes_le (Nat.to_bytes_le x ~len)));
    Test.make ~name:"hex roundtrip" ~count:300 nat_arb (fun x ->
        Nat.equal x (Nat.of_hex (Nat.to_hex x)));
    Test.make ~name:"isqrt floor" ~count:300 nat_arb (fun x ->
        let r = Nat.isqrt x in
        Nat.compare (Nat.mul r r) x <= 0
        && Nat.compare (Nat.mul (Nat.add r Nat.one) (Nat.add r Nat.one)) x > 0);
    Test.make ~name:"icbrt floor" ~count:300 nat_arb (fun x ->
        let r = Nat.icbrt x in
        let cube n = Nat.mul n (Nat.mul n n) in
        Nat.compare (cube r) x <= 0 && Nat.compare (cube (Nat.add r Nat.one)) x > 0);
    Test.make ~name:"modpow matches naive" ~count:100
      (triple (int_bound 50) (int_bound 10) (int_range 1 50))
      (fun (b, e, m) ->
        let naive =
          let rec go acc n = if n = 0 then acc else go (acc * b mod m) (n - 1) in
          go (1 mod m) e
        in
        Nat.equal
          (Nat.modpow (nat_of_int64ish b) (nat_of_int64ish e) (nat_of_int64ish m))
          (nat_of_int64ish naive));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let nat_unit_tests =
  let open Alcotest in
  [
    test_case "decimal rendering" `Quick (fun () ->
        check string "big" "340282366920938463463374607431768211456"
          (Nat.to_string (Nat.shift_left Nat.one 128));
        check string "zero" "0" (Nat.to_string Nat.zero));
    test_case "sub underflow raises" `Quick (fun () ->
        check_raises "underflow" (Invalid_argument "Nat.sub: negative result") (fun () ->
            ignore (Nat.sub Nat.one Nat.two)));
    test_case "division by zero raises" `Quick (fun () ->
        check_raises "div0" Division_by_zero (fun () -> ignore (Nat.divmod Nat.one Nat.zero)));
    test_case "testbit" `Quick (fun () ->
        let n = Nat.of_int 0b1010 in
        check bool "bit1" true (Nat.testbit n 1);
        check bool "bit0" false (Nat.testbit n 0);
        check bool "bit3" true (Nat.testbit n 3));
  ]

(* ---------- Ed25519 RFC 8032 vectors & properties ---------- *)

let rfc8032_vectors =
  [
    ( "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
      "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
      "",
      "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e065224901555fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b"
    );
    ( "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
      "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
      "72",
      "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00"
    );
    ( "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
      "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
      "af82",
      "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a"
    );
  ]

let ed25519_tests =
  let open Alcotest in
  List.mapi
    (fun i (seed, pk, msg, sg) ->
      test_case (Printf.sprintf "RFC 8032 test %d" (i + 1)) `Quick (fun () ->
          let seed = Hex.decode seed and msg = Hex.decode msg in
          let sk, public = Ed25519.keypair ~seed in
          check string "public key" pk (Hex.encode public);
          check string "signature" sg (Hex.encode (Ed25519.sign sk msg));
          check bool "verifies" true
            (Ed25519.verify ~public ~msg ~signature:(Hex.decode sg))))
    rfc8032_vectors
  @ [
      test_case "reject corrupted signature" `Quick (fun () ->
          let seed = Sha256.digest "seed" in
          let sk, public = Ed25519.keypair ~seed in
          let s = Bytes.of_string (Ed25519.sign sk "msg") in
          Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 1));
          check bool "rejected" false
            (Ed25519.verify ~public ~msg:"msg" ~signature:(Bytes.to_string s)));
      test_case "reject wrong message" `Quick (fun () ->
          let seed = Sha256.digest "seed2" in
          let sk, public = Ed25519.keypair ~seed in
          let s = Ed25519.sign sk "msg" in
          check bool "rejected" false (Ed25519.verify ~public ~msg:"msh" ~signature:s));
      test_case "reject wrong key" `Quick (fun () ->
          let sk, _ = Ed25519.keypair ~seed:(Sha256.digest "k1") in
          let _, pk2 = Ed25519.keypair ~seed:(Sha256.digest "k2") in
          let s = Ed25519.sign sk "msg" in
          check bool "rejected" false (Ed25519.verify ~public:pk2 ~msg:"msg" ~signature:s));
      test_case "reject garbage" `Quick (fun () ->
          let _, public = Ed25519.keypair ~seed:(Sha256.digest "k3") in
          check bool "short" false (Ed25519.verify ~public ~msg:"m" ~signature:"xx");
          check bool "zeros" false
            (Ed25519.verify ~public ~msg:"m" ~signature:(String.make 64 '\000')));
    ]

let ed25519_prop_tests =
  let open QCheck in
  [
    Test.make ~name:"sign/verify roundtrip" ~count:10
      (string_of_size (Gen.int_range 0 200))
      (fun msg ->
        let seed = Sha256.digest msg in
        let sk, public = Ed25519.keypair ~seed in
        Ed25519.verify ~public ~msg ~signature:(Ed25519.sign sk msg));
  ]
  |> List.map QCheck_alcotest.to_alcotest

let sim_sig_tests =
  let open Alcotest in
  [
    test_case "roundtrip" `Quick (fun () ->
        Sim_sig.reset ();
        let sk, public = Sim_sig.keypair ~seed:(Sha256.digest "n1") in
        let s = Sim_sig.sign sk "hello" in
        check int "size matches ed25519" 64 (String.length s);
        check bool "verifies" true (Sim_sig.verify ~public ~msg:"hello" ~signature:s);
        check bool "wrong msg" false (Sim_sig.verify ~public ~msg:"hellO" ~signature:s));
    test_case "unknown key rejected" `Quick (fun () ->
        Sim_sig.reset ();
        let sk, _ = Sim_sig.keypair ~seed:(Sha256.digest "n2") in
        Sim_sig.reset ();
        let s = Sim_sig.sign sk "x" in
        check bool "rejected after reset" false
          (Sim_sig.verify ~public:(Sha256.digest "whatever") ~msg:"x" ~signature:s));
  ]

let hex_tests =
  let open Alcotest in
  [
    test_case "roundtrip" `Quick (fun () ->
        let s = String.init 256 Char.chr in
        check string "same" s (Hex.decode (Hex.encode s)));
    test_case "mixed case decode" `Quick (fun () ->
        check string "decoded" "\xAB\xCD" (Hex.decode "AbCd"));
    test_case "invalid raises" `Quick (fun () ->
        check_raises "odd" (Invalid_argument "Hex.decode: odd length") (fun () ->
            ignore (Hex.decode "abc"));
        check_raises "bad digit" (Invalid_argument "Hex.decode: bad digit") (fun () ->
            ignore (Hex.decode "zz")));
  ]

(* The encoder's first definition, kept as its specification *)
let hex_spec s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let hex_props =
  let open QCheck in
  let bytes = string_of_size (Gen.int_range 0 100) in
  [
    Test.make ~name:"encode = per-byte %02x" ~count:200 bytes (fun s ->
        Hex.encode s = hex_spec s);
    Test.make ~name:"decode (encode s) = s" ~count:200 bytes (fun s ->
        Hex.decode (Hex.encode s) = s);
  ]
  |> List.map QCheck_alcotest.to_alcotest

let () =
  Alcotest.run "crypto"
    [
      ("sha2", sha_tests @ List.map QCheck_alcotest.to_alcotest [ hmac_prop; update_sub_prop ]);
      ("hex", hex_tests @ hex_props);
      ("nat-unit", nat_unit_tests);
      ("nat-props", nat_prop_tests);
      ("ed25519", ed25519_tests);
      ("ed25519-props", ed25519_prop_tests);
      ("sim-sig", sim_sig_tests);
    ]
