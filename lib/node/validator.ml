module Obs = Stellar_obs

(* The per-delivery flood counters, resolved once at [create] *)
type flood_metrics = {
  c_unique : Obs.Registry.counter;
  c_dup_dropped : Obs.Registry.counter;
  c_dup_bytes : Obs.Registry.counter;
  c_forwarded : Obs.Registry.counter;
}

type t = {
  network : Message.wire Stellar_sim.Network.t;
  index : int;
  peers : int list;
  config : Stellar_herder.Herder.config;
  genesis : Stellar_ledger.State.t;
  genesis_buckets : Stellar_bucket.Bucket_list.t option;
  archive : Stellar_archive.Archive.t option;
  memo : Stellar_herder.Herder.memo;
  user_on_ledger_closed : Stellar_herder.Herder.ledger_stats -> unit;
  obs : Obs.Sink.t;
  flood_metrics : flood_metrics;
  mutable herder : Stellar_herder.Herder.t;
  mutable generation : int;
      (* bumped on every crash and restart: callbacks and timers close over
         the generation they were created in and go inert when it changes,
         so a stale SCP ballot timer can never fire into a dead herder or
         re-broadcast from beyond the grave *)
  mutable crashed : bool;
  seen : (string, int) Hashtbl.t;  (* flood dedup: key -> expiry slot *)
  answered : (int, float) Hashtbl.t;  (* peer -> when its last request was answered *)
}

let index t = t.index
let herder t = t.herder
let seen_size t = Hashtbl.length t.seen

(* How long a dedup entry stays useful.  Envelopes are only ever re-flooded
   while their slot is live, so they expire right after it closes (+2 slots
   of margin for stragglers still receiving late externalize copies).
   Transactions and tx sets carry no slot, so they get a fixed horizon past
   the ledger at which they were first seen — by then any copy still in
   flight has long been delivered or dropped. *)
let seen_ttl = 8

let expiry_of t = function
  | Message.Envelope env -> env.Scp.Types.statement.Scp.Types.slot + 2
  | Message.Tx_set_msg _ | Message.Tx_msg _ | Message.Get_scp_state _ ->
      Stellar_herder.Herder.ledger_seq t.herder + seen_ttl

(* Dedup entries whose expiry slot is now closed can go: any further copy of
   those messages is late-externalize noise that [expiry_of]'s margin already
   covered.  Without this the table grows with every message ever flooded. *)
let prune_seen t ~upto =
  Hashtbl.filter_map_inplace
    (fun _ expiry -> if expiry <= upto then None else Some expiry)
    t.seen;
  Obs.Sink.set_gauge t.obs "validator.seen.size" (float_of_int (Hashtbl.length t.seen))

(* [force] lets a node re-broadcast its own identical message (a straggler
   re-announcing its last statement, or a rejoining node re-flooding its
   queue, must not be silenced by its own dedup table).  The record [w] was built once at the message's origin: dedup
   key and wire size are its fields, and forwarding passes it on as is. *)
let flood t ?except ?(force = false) (w : Message.wire) =
  if force || not (Hashtbl.mem t.seen w.id) then begin
    let expiry = expiry_of t w.msg in
    Hashtbl.replace t.seen w.id expiry;
    (* One monotone id per flood decision: every fanout copy carries it, so
       each Flood_recv downstream names this exact Flood_send (the causal
       edge the critical-path report walks). *)
    let msg_id = Stellar_sim.Network.alloc_msg_id t.network in
    let fanout = ref 0 in
    List.iter
      (fun peer ->
        if Some peer <> except && peer <> t.index then begin
          incr fanout;
          Stellar_sim.Network.send t.network ~src:t.index ~dst:peer ~size:w.size ~msg_id w
        end)
      t.peers;
    Obs.Registry.add t.flood_metrics.c_forwarded !fanout;
    if Obs.Sink.tracing t.obs then
      Obs.Sink.emit t.obs
        (Obs.Event.Flood_send
           { kind = Message.kind_name w.msg; bytes = w.size; fanout = !fanout; msg_id })
  end

(* Point-to-point (non-flooded) send, for straggler help and its request:
   still tagged and traced as a fanout-1 Flood_send so every delivery in the
   trace resolves to exactly one send. *)
let send_direct t ~dst msg =
  let w = Message.wire msg in
  let msg_id = Stellar_sim.Network.alloc_msg_id t.network in
  if Obs.Sink.tracing t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Flood_send { kind = Message.kind_name msg; bytes = w.size; fanout = 1; msg_id });
  Stellar_sim.Network.send t.network ~src:t.index ~dst ~size:w.size ~msg_id w

(* The answer: our retained envelopes of every slot from [from] that we
   closed and still hold, after the tx sets they externalized — the §6 fix.
   A peer further behind than the herder's horizon catches up from the
   archive (§5.4).  A peer is answered at most once in half a ledger
   interval: an honest asker asks at most once an interval
   ({!Stellar_herder.Herder.rejoin}), and a sooner repeat would resend the
   whole horizon on demand. *)
let help_straggler t ~dst ~from =
  let now = Stellar_sim.Engine.now (Stellar_sim.Network.engine t.network) in
  let last = Option.value ~default:neg_infinity (Hashtbl.find_opt t.answered dst) in
  if now -. last >= t.config.Stellar_herder.Herder.ledger_interval /. 2.0 then
    match Stellar_herder.Herder.help_straggler t.herder ~from with
    | [], _ -> ()
    | envs, tx_sets ->
        Hashtbl.replace t.answered dst now;
        Obs.Sink.incr t.obs "flood.straggler_helped";
        List.iter (fun ts -> send_direct t ~dst (Message.Tx_set_msg ts)) tx_sets;
        List.iter (fun e -> send_direct t ~dst (Message.Envelope e)) envs

let trace_recv t ~src ~(info : Stellar_sim.Network.delivery) (w : Message.wire) =
  if Obs.Sink.tracing t.obs then
    Obs.Sink.emit t.obs
      (Obs.Event.Flood_recv
         {
           kind = Message.kind_name w.msg;
           bytes = w.size;
           src;
           send_id = info.Stellar_sim.Network.msg_id;
           link_s = info.Stellar_sim.Network.link_s;
           wait_s = info.Stellar_sim.Network.wait_s;
           proc_s = info.Stellar_sim.Network.proc_s;
         })

let handle t ~src ~info (w : Message.wire) =
  if t.crashed then ()
  else
    match w.msg with
    | Message.Get_scp_state from ->
        (* answered ahead of the dedup, and neither recorded nor flooded:
           two nodes asking for one seq send the same bytes *)
        trace_recv t ~src ~info w;
        help_straggler t ~dst:src ~from
    | msg when not (Hashtbl.mem t.seen w.id) ->
        Obs.Registry.incr t.flood_metrics.c_unique;
        trace_recv t ~src ~info w;
        (* process locally, then forward to our peers (flood with dedup) *)
        (match msg with
        | Message.Envelope env -> Stellar_herder.Herder.receive_envelope t.herder env
        | Message.Tx_set_msg ts -> Stellar_herder.Herder.receive_tx_set t.herder ts
        | Message.Tx_msg signed -> ignore (Stellar_herder.Herder.receive_tx t.herder signed)
        | Message.Get_scp_state _ -> () (* answered above *));
        flood t ~except:src w
    | msg ->
        Obs.Registry.incr t.flood_metrics.c_dup_dropped;
        Obs.Registry.add t.flood_metrics.c_dup_bytes w.size;
        if Obs.Sink.tracing t.obs then
          Obs.Sink.emit t.obs
            (Obs.Event.Dedup_drop { kind = Message.kind_name msg; src; bytes = w.size })

(* §5.4: the archive's catch-up, when the archive holds a ledger past
   [past]: the checkpoint seq it replayed from and what it rebuilt. *)
let bootstrap t ~past =
  match t.archive with
  | Some a when Stellar_archive.Archive.latest_seq a > Some past ->
      Result.to_option (Stellar_archive.Archive.catchup ~memo:t.memo a)
  | _ -> None

(* Herder callbacks for generation [gen].  Every one of them re-checks the
   validator's current generation before acting: after a crash or restart
   bumps it, timers and broadcasts created under the old herder fall
   silent instead of acting on dead state. *)
let rec callbacks_for ~engine ~gen get_t =
  Stellar_herder.Herder.
    {
      broadcast_envelope =
        (fun env ->
          let v = get_t () in
          if v.generation = gen then begin
            Obs.Sink.incr v.obs "flood.own_envelopes";
            flood v ~force:true (Message.wire (Message.Envelope env))
          end);
      broadcast_tx_set =
        (fun ts ->
          let v = get_t () in
          if v.generation = gen then flood v (Message.wire (Message.Tx_set_msg ts)));
      broadcast_tx =
        (fun signed ->
          let v = get_t () in
          if v.generation = gen then flood v ~force:true (Message.wire (Message.Tx_msg signed)));
      schedule =
        (fun ~delay f ->
          let timer =
            Stellar_sim.Engine.schedule engine ~delay (fun () ->
                if (get_t ()).generation = gen then f ())
          in
          fun () -> Stellar_sim.Engine.cancel timer);
      now = (fun () -> Stellar_sim.Engine.now engine);
      on_ledger_closed =
        (fun stats ->
          let v = get_t () in
          if v.generation = gen then begin
            let upto = stats.Stellar_herder.Herder.header.Stellar_ledger.Header.ledger_seq in
            prune_seen v ~upto;
            v.user_on_ledger_closed stats
          end);
      fell_behind =
        (fun () ->
          (* once the delivery in progress is done: the herder that calls
             this is the one the catch-up replaces *)
          let v = get_t () in
          if v.generation = gen then
            ignore
              (Stellar_sim.Engine.schedule engine ~delay:0.0 (fun () ->
                   if v.generation = gen then catch_up_from_archive v)));
      request_scp_state =
        (fun from ->
          let v = get_t () in
          if v.generation = gen then
            List.iter (fun peer -> send_direct v ~dst:peer (Message.Get_scp_state from)) v.peers);
    }

(* Swap in a herder rebuilt on a caught-up ledger ([make] builds it on the
   callbacks of a new generation), start it and ask the peers for the slots
   closed since.  The old herder is abandoned: the generation bump silences
   its timers and broadcasts, and the dedup table goes too, so the new one
   hears again what the old one took in. *)
and install t ~from_seq make =
  t.generation <- t.generation + 1;
  Hashtbl.reset t.seen;
  let engine = Stellar_sim.Network.engine t.network in
  t.herder <- make (callbacks_for ~engine ~gen:t.generation (fun () -> t));
  let to_seq =
    Option.fold ~none:0
      ~some:(fun h -> h.Stellar_ledger.Header.ledger_seq)
      (Stellar_herder.Herder.last_header t.herder)
  in
  let replayed = max 0 (to_seq - from_seq) in
  if Obs.Sink.tracing t.obs then
    Obs.Sink.emit t.obs (Obs.Event.Catchup_done { from_seq; to_seq; replayed });
  Stellar_herder.Herder.start t.herder;
  Stellar_herder.Herder.rejoin t.herder

(* A running node the network has left behind rebuilds from the archive
   once it holds a ledger past this node's last close. *)
and catch_up_from_archive t =
  match bootstrap t ~past:(Stellar_herder.Herder.ledger_seq t.herder) with
  | Some (from_seq, caught) ->
      Obs.Sink.incr t.obs "archive.live_catchups";
      install t ~from_seq (fun cb -> Stellar_herder.Herder.catch_up t.herder cb caught)
  | None -> ()

let create ~network ~index ~peers ~config ~genesis ?buckets ?tip ?archive
    ?(memo = Stellar_herder.Herder.memo ()) ?(on_ledger_closed = fun _ -> ())
    ?(obs = Obs.Sink.null) () =
  let engine = Stellar_sim.Network.engine network in
  let rec t =
    lazy
      (let cb = callbacks_for ~engine ~gen:0 (fun () -> Lazy.force t) in
       {
         network;
         index;
         peers;
         config;
         genesis;
         genesis_buckets = buckets;
         archive;
         memo;
         user_on_ledger_closed = on_ledger_closed;
         obs;
         flood_metrics =
           {
             c_unique = Obs.Sink.counter obs "flood.unique";
             c_dup_dropped = Obs.Sink.counter obs "flood.dup_dropped";
             c_dup_bytes = Obs.Sink.counter obs "flood.dup_bytes";
             c_forwarded = Obs.Sink.counter obs "flood.forwarded";
           };
         herder = Stellar_herder.Herder.create config cb ~genesis ?buckets ?tip ~obs ~memo ();
         generation = 0;
         crashed = false;
         seen = Hashtbl.create 1024;
         answered = Hashtbl.create 8;
       })
  in
  let t = Lazy.force t in
  Stellar_sim.Network.set_handler network index (fun ~src ~info msg -> handle t ~src ~info msg);
  t

let start t = Stellar_herder.Herder.start t.herder
let stop t = Stellar_herder.Herder.stop t.herder

let submit_tx t signed =
  if not t.crashed then
    match Stellar_herder.Herder.submit_tx t.herder signed with `Queued | `Duplicate -> ()

(* ---- fault injection ---- *)

let crash t =
  if not t.crashed then begin
    Stellar_herder.Herder.stop t.herder;
    t.crashed <- true;
    t.generation <- t.generation + 1;
    Stellar_sim.Network.set_down t.network t.index true;
    Obs.Sink.incr t.obs "fault.crashes";
    Obs.Sink.emit t.obs Obs.Event.Node_crash
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    Stellar_sim.Network.set_down t.network t.index false;
    Obs.Sink.incr t.obs "fault.restarts";
    Obs.Sink.emit t.obs Obs.Event.Node_restart;
    (* §5.4 bootstrap: rebuild state from the archive's latest checkpoint and
       replay forward to its tip; whatever closed after the archive tip is
       recovered live from the peers' answers to [install]'s request. *)
    let from_seq, state, buckets, tip =
      match bootstrap t ~past:(Stellar_ledger.State.ledger_seq t.genesis) with
      | Some (from_seq, (state, buckets, tip)) -> (from_seq, state, Some buckets, Some tip)
      | None -> (0, t.genesis, t.genesis_buckets, None)
    in
    (* the process died: its queue and dedup table did not survive *)
    install t ~from_seq (fun cb ->
        Stellar_herder.Herder.create t.config cb ~genesis:state ?buckets ?tip ~obs:t.obs
          ~memo:t.memo ())
  end

(* Byzantine-style pressure: re-broadcast our latest envelopes [copies]
   times, bypassing our own dedup table.  Correct peers drop every copy
   after the first — the interesting measurement is the wasted bytes. *)
let reflood t ~copies =
  if not t.crashed then begin
    Obs.Sink.incr t.obs "fault.refloods";
    let wires =
      List.map
        (fun e -> Message.wire (Message.Envelope e))
        (Stellar_herder.Herder.recent_envelopes t.herder)
    in
    for _ = 1 to copies do
      List.iter (flood t ~force:true) wires
    done
  end
