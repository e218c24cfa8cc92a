module Obs = Stellar_obs

type delivery = {
  msg_id : int;
  sent_at : float;
  link_s : float;
  wait_s : float;
  proc_s : float;
}

(* Per-node accounting lives in a Stellar_obs registry ("overlay.*" names)
   so network traffic and protocol metrics share one namespace.  Counter
   handles are cached so the send path touches a record field, not a hash
   table. *)
type node_obs = {
  sink : Obs.Sink.t;
  c_msgs_sent : Obs.Registry.counter;
  c_msgs_received : Obs.Registry.counter;
  c_bytes_sent : Obs.Registry.counter;
  c_bytes_received : Obs.Registry.counter;
}

type 'msg t = {
  engine : Engine.t;
  rng : Rng.t;
  latency : Latency.t;
  processing : int -> float;
  busy_until : float array;  (* receiver CPU queue *)
  handlers : (src:int -> info:delivery -> 'msg -> unit) option array;
  down : bool array;
  node_obs : node_obs array;
  mutable partition : int -> int;
  mutable loss_rate : float;
  mutable next_msg_id : int;
}

let node_obs_of_sink sink =
  {
    sink;
    c_msgs_sent = Obs.Sink.counter sink "overlay.msgs.sent";
    c_msgs_received = Obs.Sink.counter sink "overlay.msgs.received";
    c_bytes_sent = Obs.Sink.counter sink "overlay.bytes.sent";
    c_bytes_received = Obs.Sink.counter sink "overlay.bytes.received";
  }

let create ~engine ~rng ~n ~latency ?(processing = fun _ -> 0.0) ?obs () =
  let sink_of i =
    match obs with
    | Some f -> f i
    | None ->
        (* metrics-only sink over a private registry: byte/message accounting
           is part of the network's API and stays on even when tracing is
           off. *)
        Obs.Sink.make ~node:i ~now:(fun () -> Engine.now engine) (Obs.Registry.create ())
  in
  {
    engine;
    rng;
    latency;
    processing;
    busy_until = Array.make n 0.0;
    handlers = Array.make n None;
    down = Array.make n false;
    node_obs = Array.init n (fun i -> node_obs_of_sink (sink_of i));
    partition = (fun _ -> 0);
    loss_rate = 0.0;
    next_msg_id = 0;
  }

let engine t = t.engine
let set_handler t i f = t.handlers.(i) <- Some f
let set_down t i b =
  (* Coming back up clears any CPU-queue backlog accrued before the crash:
     the machine rebooted, its receive queue did not survive. *)
  if t.down.(i) && not b then t.busy_until.(i) <- Engine.now t.engine;
  t.down.(i) <- b
let is_down t i = t.down.(i)
let set_partition t f = t.partition <- f
let set_loss_rate t r = t.loss_rate <- r

let alloc_msg_id t =
  t.next_msg_id <- t.next_msg_id + 1;
  t.next_msg_id

let registry t i = Obs.Sink.metrics t.node_obs.(i).sink

(* A message's two engine events, each one closure: [arrive] when the link
   transit ends, then [deliver] once the receiver's CPU has processed it.
   Down-ness and handlers are re-checked at delivery time: a node may crash
   while messages are in flight. *)
let deliver t ~src ~dst ~bytes info msg =
  if not t.down.(dst) then
    match t.handlers.(dst) with
    | None -> ()
    | Some h ->
        let r = t.node_obs.(dst) in
        Obs.Registry.incr r.c_msgs_received;
        Obs.Registry.add r.c_bytes_received bytes;
        h ~src ~info msg

(* The receiver's CPU queue is FIFO in ARRIVAL order: the busy-time
   accounting runs when the message arrives (engine events fire in time
   order), so an in-flight straggler never blocks messages that land before
   it.  A down node has no CPU to queue on: arrivals while down are dropped
   without advancing [busy_until], so a restarted node does not resume with
   phantom backlog. *)
let arrive t ~src ~dst ~bytes ~msg_id ~sent_at ~link msg =
  if not t.down.(dst) then begin
    let now = Engine.now t.engine in
    let start = Float.max now t.busy_until.(dst) in
    let proc = t.processing bytes in
    let finish = start +. proc in
    t.busy_until.(dst) <- finish;
    let info = { msg_id; sent_at; link_s = link; wait_s = start -. now; proc_s = proc } in
    if finish > now then
      ignore
        (Engine.schedule t.engine ~delay:(finish -. now) (fun () ->
             deliver t ~src ~dst ~bytes info msg))
    else deliver t ~src ~dst ~bytes info msg
  end

let send t ~src ~dst ~size:bytes ?(msg_id = -1) msg =
  if not t.down.(src) then begin
    let s = t.node_obs.(src) in
    Obs.Registry.incr s.c_msgs_sent;
    Obs.Registry.add s.c_bytes_sent bytes;
    let dropped =
      t.partition src <> t.partition dst
      || (t.loss_rate > 0.0 && Rng.float t.rng 1.0 < t.loss_rate)
    in
    if not dropped then begin
      let sent_at = Engine.now t.engine in
      let link = if src = dst then 0.0 else Latency.sample t.latency t.rng in
      ignore
        (Engine.schedule t.engine ~delay:link (fun () ->
             arrive t ~src ~dst ~bytes ~msg_id ~sent_at ~link msg))
    end
  end
