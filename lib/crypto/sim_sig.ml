let name = "sim"

type secret = string

let registry : (string, string) Hashtbl.t = Hashtbl.create 64

(* HMAC keys prepared on a public key's first verify.  Not in [keypair]:
   most generated keys (genesis accounts) never verify anything. *)
let prepared : (string, Hmac.key) Hashtbl.t = Hashtbl.create 64

let reset () =
  Hashtbl.reset registry;
  Hashtbl.reset prepared

let public_of_seed seed = Sha256.digest_list [ "sim-sig-public:"; seed ]

let keypair ~seed =
  if String.length seed <> 32 then invalid_arg "Sim_sig: seed must be 32 bytes";
  let public = public_of_seed seed in
  Hashtbl.replace registry public seed;
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
        (Hashtbl.find_opt registry public)

let verify ~public ~msg ~signature =
  String.length signature = 64
  &&
  match prepared_key public with
  | None -> false
  | Some key -> String.equal (String.sub signature 0 32) (Hmac.mac key msg)
