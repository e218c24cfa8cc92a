(* Reusable in-memory SCP network for the protocol tests: N validators over
   the discrete-event simulator, with pluggable quorum sets, faults, and
   Byzantine behaviours. *)

open Scp

type node = {
  id : Types.node_id;
  secret : Stellar_crypto.Sim_sig.secret;
  protocol : Protocol.t;
  externalized : (int * Types.value) list ref;
}

type t = {
  engine : Stellar_sim.Engine.t;
  network : Types.envelope Stellar_sim.Network.t;
  nodes : node array;
  ids : Types.node_id array;
}

(* Deterministic combine: the lexicographically greatest candidate. *)
let combine_max ~slot:_ values =
  match List.sort (fun a b -> String.compare b a) values with
  | v :: _ -> Some v
  | [] -> None

(* Signature check for [Driver.verify]: the statement's node signed its
   signing bytes. *)
let sim_verify (env : Types.envelope) =
  Stellar_crypto.Sim_sig.verify ~public:env.statement.node_id
    ~msg:(Types.signing_bytes env.statement) ~signature:env.signature

let make ?(latency = Stellar_sim.Latency.Constant 0.005) ?(seed = 42)
    ?(validate = fun ~slot:_ _ -> Driver.Valid) ~n ~qset_of () =
  Stellar_crypto.Sim_sig.reset ();
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed in
  let network = Stellar_sim.Network.create ~engine ~rng ~n ~latency () in
  let keys =
    Array.init n (fun i ->
        let seed = Stellar_crypto.Sha256.digest (Printf.sprintf "harness-node-%d" i) in
        Stellar_crypto.Sim_sig.keypair ~seed)
  in
  let ids = Array.map snd keys in
  let nodes =
    Array.init n (fun i ->
        let secret, id = keys.(i) in
        let externalized = ref [] in
        let driver =
          Driver.make
            ~emit_envelope:(fun env ->
              for j = 0 to n - 1 do
                if j <> i then
                  Stellar_sim.Network.send network ~src:i ~dst:j
                    ~size:(Types.envelope_size env) env
              done)
            ~sign:(fun msg -> Stellar_crypto.Sim_sig.sign secret msg)
            ~verify:sim_verify
            ~validate_value:validate ~combine_candidates:combine_max
            ~value_externalized:(fun ~slot value ->
              externalized := (slot, value) :: !externalized)
            ~schedule:(fun ~delay f ->
              let timer = Stellar_sim.Engine.schedule engine ~delay f in
              fun () -> Stellar_sim.Engine.cancel timer)
            ()
        in
        let protocol = Protocol.create ~driver ~local_id:id ~qset:(qset_of ids i) in
        { id; secret; protocol; externalized })
  in
  Array.iteri
    (fun i node ->
      Stellar_sim.Network.set_handler network i (fun ~src:_ ~info:_ env ->
          ignore (Protocol.receive_envelope node.protocol env)))
    nodes;
  { engine; network; nodes; ids }

let nominate_all ?(slot = 1) t value_of =
  Array.iteri
    (fun i node ->
      ignore
        (Stellar_sim.Engine.schedule t.engine ~delay:0.0 (fun () ->
             Protocol.nominate node.protocol ~slot ~value:(value_of i) ~prev:"genesis")))
    t.nodes

let run ?(until = 300.0) t = Stellar_sim.Engine.run ~until t.engine

let decisions ?(slot = 1) t =
  Array.map (fun node -> List.assoc_opt slot !(node.externalized)) t.nodes

(* All non-excluded nodes decided, and on the same value. *)
let unanimous ?(slot = 1) ?(except = []) t =
  let vals = ref [] in
  let ok = ref true in
  Array.iteri
    (fun i node ->
      if not (List.mem i except) then
        match List.assoc_opt slot !(node.externalized) with
        | None -> ok := false
        | Some v -> if not (List.mem v !vals) then vals := v :: !vals)
    t.nodes;
  !ok && List.length !vals = 1
