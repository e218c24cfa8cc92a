type timer = { mutable cancelled : bool; fire : unit -> unit }

type event = { time : float; seq : int; timer : timer }

(* The sink's per-event metrics, resolved once in [set_obs] *)
type metrics = {
  c_fired : Stellar_obs.Registry.counter;
  c_cancelled : Stellar_obs.Registry.counter;
  g_pending : Stellar_obs.Registry.gauge;
}

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Heap.t;
  mutable metrics : metrics;
}

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let metrics_of obs =
  let module S = Stellar_obs.Sink in
  {
    c_fired = S.counter obs "sim.events.fired";
    c_cancelled = S.counter obs "sim.events.cancelled";
    g_pending = S.gauge obs "sim.queue.pending";
  }

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    queue = Heap.create ~cmp:compare_event;
    metrics = metrics_of Stellar_obs.Sink.null;
  }

let set_obs t obs = t.metrics <- metrics_of obs

let now t = t.clock

let schedule t ~delay fire =
  let timer = { cancelled = false; fire } in
  Heap.push t.queue { time = t.clock +. Float.max 0.0 delay; seq = t.next_seq; timer };
  t.next_seq <- t.next_seq + 1;
  timer

let cancel timer = timer.cancelled <- true

let step t =
  match Heap.pop t.queue with
  | None -> false
  | Some ev ->
      t.clock <- Float.max t.clock ev.time;
      let m = t.metrics in
      (if ev.timer.cancelled then Stellar_obs.Registry.incr m.c_cancelled
       else begin
         Stellar_obs.Registry.incr m.c_fired;
         ev.timer.fire ()
       end);
      Stellar_obs.Registry.set m.g_pending (float_of_int (Heap.size t.queue));
      true

let run ?until t =
  let continue = ref true in
  while !continue do
    match Heap.peek t.queue with
    | None -> continue := false
    | Some ev -> (
        match until with
        | Some limit when ev.time > limit ->
            t.clock <- limit;
            continue := false
        | _ -> ignore (step t))
  done

let pending t = Heap.size t.queue
