open Stellar_ledger

type ledger_stats = {
  header : Header.t;
  value : Value.t;
  tx_set : Tx_set.t;
  buckets : Stellar_bucket.Bucket_list.t;
  nomination_s : float;
  balloting_s : float;
  apply_s : float;
  total_s : float;
}

type callbacks = {
  broadcast_envelope : Scp.Types.envelope -> unit;
  broadcast_tx_set : Tx_set.t -> unit;
  broadcast_tx : Tx.signed -> unit;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
  now : unit -> float;
  on_ledger_closed : ledger_stats -> unit;
  fell_behind : unit -> unit;
  request_scp_state : int -> unit;
}

type config = {
  seed : string;
  qset : Scp.Quorum_set.t;
  is_validator : bool;
  is_governing : bool;
  desired_upgrades : Value.upgrade list;
  ledger_interval : float;
  max_ops_per_ledger : int;
}

let default_config ~seed ~qset =
  {
    seed;
    qset;
    is_validator = true;
    is_governing = false;
    desired_upgrades = [];
    ledger_interval = 5.0;
    max_ops_per_ledger = 10_000;
  }

(* A known transaction set and the latest slot known to use it: the slot it
   was built or received in, raised by every envelope that references it. *)
type held_tx_set = { set : Tx_set.t; mutable last_slot : int }

(* Per-slot timing for the latency metrics of §7.3. *)
type slot_timing = { mutable t_trigger : float; mutable t_first_ballot : float option }

(* stellar-core's MAX_SLOTS_TO_REMEMBER default; DESIGN.md argues the value. *)
let slots_to_remember = 12

(* One computed close: its inputs, compared by identity (the header holds
   the value and tx set hashes, the rest of the key), the close, and what it
   shows a sink. *)
type close = {
  prev : Header.t option;
  before : State.t;
  buckets_before : Stellar_bucket.Bucket_list.t;
  state : State.t;
  buckets : Stellar_bucket.Bucket_list.t;
  header : Header.t;
  apply_s : float;
  results : (Tx.signed * Apply.tx_outcome) list;  (* in apply order *)
  merges : (int * int) list;  (* Bucket_list.add_batch_merges's *)
}

type memo = {
  ring : close option array;  (* the last [slots_to_remember] closes, oldest overwritten first *)
  mutable next : int;
  verified : (string, Scp.Types.envelope) Hashtbl.t;
      (* signature → the envelope it passed its check on, for the slots from
         [newest - slots_to_remember] on *)
  mutable newest : int;  (* the newest slot in [verified] *)
  mutable hits : int;  (* lookups [verified] answered *)
}

let memo () =
  {
    ring = Array.make slots_to_remember None;
    next = 0;
    verified = Hashtbl.create 256;
    newest = 0;
    hits = 0;
  }

let verified m = (Hashtbl.length m.verified, m.hits)

(* Receivers drop envelopes behind their horizon on receipt, so the memo
   drops them too once a newer slot is verified. *)
let remember m (env : Scp.Types.envelope) =
  let slot = env.statement.slot in
  if slot > m.newest then begin
    m.newest <- slot;
    Hashtbl.filter_map_inplace
      (fun _ (e : Scp.Types.envelope) ->
        if e.statement.slot < slot - slots_to_remember then None else Some e)
      m.verified
  end;
  if slot >= m.newest - slots_to_remember then Hashtbl.replace m.verified env.signature env

(* A check is kept only when it passed, and stands only for the very
   envelope it passed on: a forged statement under a reused signature
   misses and is checked, and a key registered later cannot flip a failure. *)
let verify_envelope ~memo (env : Scp.Types.envelope) =
  match Hashtbl.find_opt memo.verified env.signature with
  | Some e when e == env ->
      memo.hits <- memo.hits + 1;
      true
  | _ ->
      let st = env.statement in
      let ok =
        Stellar_crypto.Sim_sig.verify ~public:st.node_id ~msg:(Scp.Types.signing_bytes st)
          ~signature:env.signature
      in
      if ok then remember memo env;
      ok

type t = {
  config : config;
  cb : callbacks;
  obs : Stellar_obs.Sink.t;
  memo : memo;  (* the closes and checks this node shares with others *)
  scp : Scp.Protocol.t;
  queue : Tx_queue.t;
  tx_sets : (string, held_tx_set) Hashtbl.t;
  pending_envs : (string, Scp.Types.envelope list ref) Hashtbl.t;
      (* envelopes waiting for a tx set, keyed by tx-set hash; both tables
         drop what is older than the slot horizon at each close *)
  timings : (int, slot_timing) Hashtbl.t;
  mutable state : State.t;
  mutable buckets : Stellar_bucket.Bucket_list.t;
  mutable tip : Header.t option;  (* the last closed header; None at genesis *)
  decided : (int, Value.t) Hashtbl.t;  (* externalized slots not yet closed *)
  mutable rejoining : bool;  (* asked for missed slots: re-flood the queue once caught up *)
  mutable asked_at : float;  (* when this node last asked for missed slots *)
  mutable running : bool;
  mutable trigger_cancel : (unit -> unit) option;
  mutable last_trigger : float;
}

let state t = t.state
let last_header t = t.tip
let ledger_seq t = State.ledger_seq t.state
let tx_set t h = Option.map (fun held -> held.set) (Hashtbl.find_opt t.tx_sets h)

(* [slot] uses the tx set: it expires once [slot] leaves the horizon. *)
let use held ~slot = if slot > held.last_slot then held.last_slot <- slot

let table_sizes t =
  (Hashtbl.length t.tx_sets, Hashtbl.fold (fun _ q n -> n + List.length !q) t.pending_envs 0)

let set_quorum_set t q = Scp.Protocol.set_quorum_set t.scp q

let timing t slot =
  match Hashtbl.find_opt t.timings slot with
  | Some x -> x
  | None ->
      let x = { t_trigger = t.cb.now (); t_first_ballot = None } in
      Hashtbl.add t.timings slot x;
      x

let prev_header_hash t = Option.fold ~none:Header.genesis_hash ~some:Header.hash t.tip

(* ---- value validation & combination (§5.3) ---- *)

let validate_value t ~slot raw =
  match Value.decode raw with
  | None -> Scp.Driver.Invalid
  | Some v ->
      if not (List.for_all Value.valid_upgrade v.Value.upgrades) then Scp.Driver.Invalid
      else if slot = State.ledger_seq t.state + 1 then begin
        (* we are in sync with this slot: check fully *)
        let close_ok =
          v.Value.close_time > State.close_time t.state
          && float_of_int v.Value.close_time <= t.cb.now () +. 60.0
        in
        match tx_set t v.Value.tx_set_hash with
        | Some ts when close_ok ->
            if String.equal (Tx_set.prev_header_hash ts) (prev_header_hash t) then
              Scp.Driver.Valid
            else Scp.Driver.Invalid
        | _ -> Scp.Driver.Invalid
      end
      else Scp.Driver.Valid (* not tracking this slot closely *)

let combine_candidates t ~slot:_ raws =
  let values = List.filter_map Value.decode raws in
  match Value.combine_with ~lookup:(tx_set t) values with
  | Some v -> Some (Value.encode v)
  | None -> None

(* ---- the ledger-close transition (Fig. 3) ---- *)

let results_hash results =
  let ctx = Stellar_crypto.Sha256.init () in
  List.iter
    (fun (signed, outcome) ->
      Stellar_crypto.Sha256.update ctx signed.Tx.tx_hash;
      Stellar_crypto.Sha256.update ctx (Format.asprintf "%a" Apply.pp_tx_outcome outcome))
    results;
  Stellar_crypto.Sha256.final ctx

let compute ~prev before buckets_before (v : Value.t) ts =
  let cpu0 = Sys.time () in
  let state, results =
    Apply.apply_tx_set Apply.sim_ctx before ~close_time:v.close_time (Tx_set.txs ts)
  in
  (* fold this ledger's changes, its upgrades included, into the bucket list *)
  let state, dirty = State.take_dirty (Value.apply_upgrades state v.upgrades) in
  let batch =
    List.map (fun key -> { Stellar_bucket.Bucket.key; entry = State.lookup state key }) dirty
  in
  let buckets, merges = Stellar_bucket.Bucket_list.add_batch_merges buckets_before batch in
  let header =
    Header.make ~prev ~scp_value_hash:(Value.hash v) ~tx_set_hash:(Tx_set.hash ts)
      ~results_hash:(results_hash results)
      ~snapshot_hash:(Stellar_bucket.Bucket_list.hash buckets)
      ~state
  in
  let apply_s = Sys.time () -. cpu0 in
  { prev; before; buckets_before; state; buckets; header; apply_s; results; merges }

let apply_ledger ~memo ?(obs = Stellar_obs.Sink.null) ~prev state buckets (v : Value.t) ts =
  let same c =
    c.before == state && c.buckets_before == buckets
    && Option.equal ( == ) c.prev prev
    && String.equal c.header.tx_set_hash (Tx_set.hash ts)
    && String.equal c.header.scp_value_hash (Value.hash v)
  in
  let shared = Array.find_map (function Some c when same c -> Some c | _ -> None) memo.ring in
  (* A node on a lineage of its own (restarted, caught up) that reaches a
     held close's header takes that close, and hits from its next ledger
     on; one that reaches another header keeps its own close. *)
  let rejoin own =
    let seq = own.header.Header.ledger_seq in
    let hash = lazy (Header.hash own.header) in
    Array.find_map
      (function
        | Some c
          when c.header.Header.ledger_seq = seq
               && String.equal (Header.hash c.header) (Lazy.force hash) ->
            Some c
        | _ -> None)
      memo.ring
  in
  let c =
    match shared with
    | Some c -> c
    | None -> (
        let own = compute ~prev state buckets v ts in
        match rejoin own with
        | Some c -> c
        | None ->
            memo.ring.(memo.next) <- Some own;
            memo.next <- (memo.next + 1) mod slots_to_remember;
            own)
  in
  (* every node shows its own close, also one another node computed *)
  Apply.observe obs ~slot:(State.ledger_seq c.state) c.results;
  Stellar_bucket.Bucket_list.observe obs c.buckets c.merges;
  (c.state, c.buckets, c.header, c.apply_s)

(* ---- ledger close ---- *)

(* The oldest slot this node still holds: SCP keeps the last
   [slots_to_remember] closed slots for stragglers, and the tx sets those
   slots use and the envelopes still waiting for a tx set go with them. *)
let horizon t = State.ledger_seq t.state - slots_to_remember

let purge t =
  let below = horizon t in
  Scp.Protocol.purge_slots t.scp ~below;
  Hashtbl.filter_map_inplace
    (fun _ held -> if held.last_slot < below then None else Some held)
    t.tx_sets;
  Hashtbl.filter_map_inplace
    (fun _ q ->
      q := List.filter (fun env -> env.Scp.Types.statement.Scp.Types.slot >= below) !q;
      if !q = [] then None else Some q)
    t.pending_envs

(* ---- envelopes and the tx sets they wait for ---- *)

(* Tx-set hashes referenced by a statement's values. *)
let referenced_tx_sets st =
  let values =
    match st.Scp.Types.pledge with
    | Scp.Types.Nominate n -> n.Scp.Types.votes @ n.Scp.Types.accepted
    | Scp.Types.Prepare p -> [ p.Scp.Types.ballot.Scp.Types.value ]
    | Scp.Types.Confirm c -> [ c.Scp.Types.ballot.Scp.Types.value ]
    | Scp.Types.Externalize e -> [ e.Scp.Types.commit.Scp.Types.value ]
  in
  List.filter_map
    (fun raw -> Option.map (fun v -> v.Value.tx_set_hash) (Value.decode raw))
    values

(* stellar-core's LEDGER_VALIDITY_BRACKET: an envelope for a slot further
   ahead of the last closed ledger is dropped unread, before it can keep a
   tx set alive, wait for one, or open an SCP slot; nothing about it has
   been verified yet.  So is one for a slot behind the horizon, whose SCP
   slot is purged and would otherwise be opened again. *)
let ledger_validity_bracket = 100

let rejoin t =
  t.rejoining <- true;
  t.asked_at <- t.cb.now ();
  t.cb.request_scp_state (State.ledger_seq t.state + 1)

let receive_envelope t env =
  let slot = env.Scp.Types.statement.Scp.Types.slot in
  if horizon t <= slot && slot <= State.ledger_seq t.state + ledger_validity_bracket then begin
    (* A slot past the next one this node can close is voted on or decided
       without it: ask for the slots in between, whether or not SCP takes
       the envelope in (a laggard its quorum needs hears no externalize).
       At most once a ledger interval, so what is heard while an answer is
       on its way, the older slots it brings included, asks nothing more,
       and a lost answer is asked for again. *)
    if
      slot > State.ledger_seq t.state + 1
      && t.cb.now () -. t.asked_at >= t.config.ledger_interval
      && verify_envelope ~memo:t.memo env
    then rejoin t;
    let referenced = referenced_tx_sets env.Scp.Types.statement in
    match List.filter (fun h -> not (Hashtbl.mem t.tx_sets h)) referenced with
    | [] -> (
        (* only an envelope SCP verified and took in keeps its sets alive *)
        match Scp.Protocol.receive_envelope t.scp env with
        | `Processed ->
            List.iter
              (fun h -> Option.iter (use ~slot) (Hashtbl.find_opt t.tx_sets h))
              referenced
        | `Stale | `Invalid -> ())
    | h :: _ ->
        let q =
          match Hashtbl.find_opt t.pending_envs h with
          | Some q -> q
          | None ->
              let q = ref [] in
              Hashtbl.replace t.pending_envs h q;
              q
        in
        q := env :: !q
  end

(* Queued transactions the current state can no longer apply. *)
let drop_stale t =
  let purged = Tx_queue.purge_invalid t.queue ~state:t.state in
  if Stellar_obs.Sink.tracing t.obs then
    List.iter
      (fun signed ->
        Stellar_obs.Sink.emit t.obs
          (Stellar_obs.Event.Tx_dropped { tx = signed.Tx.tx_hash; reason = `Stale }))
      purged;
  Stellar_obs.Sink.set_gauge t.obs "herder.queue.size" (float_of_int (Tx_queue.size t.queue))

let rec close_ledger t slot (v : Value.t) ts =
  let txs = Tx_set.txs ts in
  let state, buckets, header, apply_s =
    apply_ledger ~memo:t.memo ~obs:t.obs ~prev:t.tip t.state t.buckets v ts
  in
  (* Apply_end carries tx/op counts at the (single) simulated instant of
     application; CPU time goes to the ledger.apply_ms histogram, keeping
     the trace deterministic. *)
  if Stellar_obs.Sink.tracing t.obs then
    Stellar_obs.Sink.emit t.obs
      (Stellar_obs.Event.Apply_end { slot; txs = Tx_set.tx_count ts; ops = Tx_set.op_count ts });
  Stellar_obs.Sink.observe t.obs "ledger.apply_ms" (apply_s *. 1000.0);
  Stellar_obs.Sink.incr t.obs "ledger.closed";
  t.state <- state;
  t.buckets <- buckets;
  t.tip <- Some header;
  Tx_queue.remove_applied t.queue txs;
  drop_stale t;
  purge t;
  (* back in step: what this node queued while away never reached the
     peers that closed without it *)
  if t.rejoining && Hashtbl.length t.decided = 0 then begin
    t.rejoining <- false;
    List.iter t.cb.broadcast_tx (Tx_queue.txs t.queue)
  end;
  (* stats *)
  let tm = timing t slot in
  let now = t.cb.now () in
  let first_ballot = Option.value ~default:now tm.t_first_ballot in
  t.cb.on_ledger_closed
    {
      header;
      value = v;
      tx_set = ts;
      buckets;
      nomination_s = Float.max 0.0 (first_ballot -. tm.t_trigger);
      balloting_s = Float.max 0.0 (now -. first_ballot);
      apply_s;
      total_s = now -. tm.t_trigger;
    };
  Hashtbl.remove t.timings slot;
  (* schedule the next ledger to hold the 5-second cadence *)
  if t.running && t.config.is_validator then begin
    let elapsed = now -. t.last_trigger in
    let delay = Float.max 0.0 (t.config.ledger_interval -. elapsed) in
    Option.iter (fun c -> c ()) t.trigger_cancel;
    t.trigger_cancel <- Some (t.cb.schedule ~delay (fun () -> trigger_next_ledger t))
  end

and trigger_next_ledger t =
  if t.running && t.config.is_validator then begin
    let slot = State.ledger_seq t.state + 1 in
    t.last_trigger <- t.cb.now ();
    let tm = timing t slot in
    tm.t_trigger <- t.cb.now ();
    (* build and flood our transaction-set candidate *)
    let txs =
      Tx_queue.candidates t.queue ~state:t.state ~max_ops:t.config.max_ops_per_ledger
    in
    let ts = Tx_set.make ~prev_header_hash:(prev_header_hash t) txs in
    (* held as a received set is: envelopes may already wait for it, since
       an empty set is the same at every node *)
    receive_tx_set t ts;
    t.cb.broadcast_tx_set ts;
    let close_time = max (int_of_float (t.cb.now ())) (State.close_time t.state + 1) in
    let upgrades =
      if t.config.is_governing then Value.merge_upgrades t.config.desired_upgrades else []
    in
    let value = Value.{ tx_set_hash = Tx_set.hash ts; close_time; upgrades } in
    Scp.Protocol.nominate t.scp ~slot ~value:(Value.encode value) ~prev:(prev_header_hash t)
  end

(* Close the next ledger while its slot is decided and its tx set is known:
   a node that falls behind catches up through the same loop. *)
and advance t =
  let slot = State.ledger_seq t.state + 1 in
  match Hashtbl.find_opt t.decided slot with
  | None -> ()
  | Some v -> (
      match tx_set t v.Value.tx_set_hash with
      | None -> () (* decided, but the set has not arrived yet *)
      | Some ts ->
          Hashtbl.remove t.decided slot;
          close_ledger t slot v ts;
          advance t)

and receive_tx_set t ts =
  let h = Tx_set.hash ts in
  if not (Hashtbl.mem t.tx_sets h) then begin
    Hashtbl.replace t.tx_sets h { set = ts; last_slot = State.ledger_seq t.state + 1 };
    (* wake buffered envelopes *)
    (match Hashtbl.find_opt t.pending_envs h with
    | Some q ->
        let envs = List.rev !q in
        Hashtbl.remove t.pending_envs h;
        List.iter (receive_envelope t) envs
    | None -> ());
    advance t
  end

(* ---- construction ---- *)

let make config cb ~genesis ~buckets ~tip ~obs ~memo ~queue =
  let secret, id = Stellar_crypto.Sim_sig.keypair ~seed:config.seed in
  let rec t =
    lazy
      (let driver =
         Scp.Driver.make
           ~emit_envelope:(fun env -> cb.broadcast_envelope env)
           ~sign:(fun msg -> Stellar_crypto.Sim_sig.sign secret msg)
           ~verify:(verify_envelope ~memo)
           ~validate_value:(fun ~slot raw -> validate_value (Lazy.force t) ~slot raw)
           ~combine_candidates:(fun ~slot raws -> combine_candidates (Lazy.force t) ~slot raws)
           ~value_externalized:(fun ~slot raw ->
             let h = Lazy.force t in
             match Value.decode raw with
             | Some _ when slot - State.ledger_seq h.state > slots_to_remember + 1 ->
                 (* the peers that closed [slot] no longer hold our next one *)
                 cb.fell_behind ()
             | Some v when slot > State.ledger_seq h.state ->
                 Hashtbl.replace h.decided slot v;
                 advance h
             | _ -> ())
           ~schedule:(fun ~delay f -> cb.schedule ~delay f)
           ~started_ballot:(fun ~slot ->
             (* the nomination → balloting boundary of the phase breakdown *)
             let h = Lazy.force t in
             (timing h slot).t_first_ballot <- Some (cb.now ()))
           ~obs
           ()
       in
       {
         config;
         cb;
         obs;
         memo;
         scp = Scp.Protocol.create ~driver ~local_id:id ~qset:config.qset;
         queue;
         tx_sets = Hashtbl.create 64;
         pending_envs = Hashtbl.create 16;
         timings = Hashtbl.create 8;
         state = genesis;
         tip;
         buckets =
           (match buckets with
           | Some b -> b
           | None -> Stellar_bucket.Bucket_list.of_state genesis);
         decided = Hashtbl.create 8;
         rejoining = false;
         asked_at = neg_infinity;
         running = false;
         trigger_cancel = None;
         last_trigger = 0.0;
       })
  in
  Lazy.force t

let create config cb ~genesis ?buckets ?tip ?(obs = Stellar_obs.Sink.null) ~memo () =
  make config cb ~genesis ~buckets ~tip ~obs ~memo ~queue:(Tx_queue.create ())

let catch_up t cb (state, buckets, tip) =
  let config = { t.config with qset = Scp.Protocol.quorum_set t.scp } in
  let t' =
    make config cb ~genesis:state ~buckets:(Some buckets) ~tip:(Some tip) ~obs:t.obs
      ~memo:t.memo ~queue:t.queue
  in
  drop_stale t';
  t'

let start t =
  if not t.running then begin
    t.running <- true;
    if t.config.is_validator then
      t.trigger_cancel <- Some (t.cb.schedule ~delay:0.0 (fun () -> trigger_next_ledger t))
  end

let stop t =
  t.running <- false;
  Option.iter (fun c -> c ()) t.trigger_cancel;
  t.trigger_cancel <- None

(* ---- ingress ---- *)

let receive_tx t signed =
  if Tx_queue.add t.queue signed then `New
  else begin
    if Stellar_obs.Sink.tracing t.obs then
      Stellar_obs.Sink.emit t.obs
        (Stellar_obs.Event.Tx_dropped { tx = signed.Tx.tx_hash; reason = `Duplicate });
    `Duplicate
  end

let submit_tx t signed =
  match receive_tx t signed with
  | `New ->
      if Stellar_obs.Sink.tracing t.obs then
        Stellar_obs.Sink.emit t.obs (Stellar_obs.Event.Tx_submit { tx = signed.Tx.tx_hash });
      t.cb.broadcast_tx signed;
      `Queued
  | `Duplicate -> `Duplicate

(* §6: help a peer finish old slots after lost messages — the production
   incident was caused by validators moving on without doing this.  Every
   closed slot it asks for that is still held, so a peer several ledgers
   behind closes them all from one answer. *)
let help_straggler t ~from =
  let first = max from (horizon t) in
  let slots = List.init (max 0 (State.ledger_seq t.state + 1 - first)) (( + ) first) in
  let envs = List.map (fun slot -> Scp.Protocol.latest_envelopes t.scp ~slot) slots in
  (* one slot's EXTERNALIZE envelopes all name its one value *)
  let externalized env =
    match env.Scp.Types.statement.Scp.Types.pledge with
    | Scp.Types.Externalize e ->
        Option.bind (Value.decode e.Scp.Types.commit.Scp.Types.value) (fun v ->
            tx_set t v.Value.tx_set_hash)
    | _ -> None
  in
  (List.concat envs, List.filter_map (List.find_map externalized) envs)

(* Everything this node would currently assert about the in-flight slot and
   the one it just closed — what a (simulated) Byzantine re-flooder blasts
   at the network over and over. *)
let recent_envelopes t =
  let seq = State.ledger_seq t.state in
  Scp.Protocol.latest_envelopes t.scp ~slot:(seq + 1)
  @ Scp.Protocol.latest_envelopes t.scp ~slot:seq
