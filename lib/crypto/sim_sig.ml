let name = "sim"

type secret = string

let registry : (string, string) Hashtbl.t ref = ref (Hashtbl.create 64)

(* HMAC keys prepared on a public key's first verify.  Not in [keypair]:
   most generated keys (genesis accounts) never verify anything. *)
let prepared : (string, Hmac.key) Hashtbl.t = Hashtbl.create 64

let reset () =
  registry := Hashtbl.create 64;
  Hashtbl.reset prepared

(* A table of b buckets grows past 2b bindings; one big enough for [n] more
   takes them without rehashing once per doubling. *)
let reserve n =
  let t = !registry in
  let want = Hashtbl.length t + n in
  if 2 * (Hashtbl.stats t).Hashtbl.num_buckets < want then begin
    let bigger = Hashtbl.create want in
    Hashtbl.iter (Hashtbl.replace bigger) t;
    registry := bigger
  end

let public_of_seed seed = Sha256.digest_list [ "sim-sig-public:"; seed ]

let keypair ~seed =
  if String.length seed <> 32 then invalid_arg "Sim_sig: seed must be 32 bytes";
  let public = public_of_seed seed in
  Hashtbl.replace !registry public seed;
  (seed, public)

let raw_sign seed msg = Hmac.sha256 ~key:seed msg

(* Pad to 64 bytes so wire sizes match Ed25519. *)
let sign seed msg = raw_sign seed msg ^ String.make 32 '\000'

let prepared_key public =
  match Hashtbl.find_opt prepared public with
  | Some _ as key -> key
  | None ->
      Option.map
        (fun seed ->
          let key = Hmac.prepare seed in
          Hashtbl.replace prepared public key;
          key)
        (Hashtbl.find_opt !registry public)

let verify ~public ~msg ~signature =
  String.length signature = 64
  &&
  match prepared_key public with
  | None -> false
  | Some key -> String.equal (String.sub signature 0 32) (Hmac.mac key msg)
