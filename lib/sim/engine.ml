type timer = { mutable cancelled : bool; fire : unit -> unit }

type event = { time : float; seq : int; timer : timer }

type t = {
  mutable clock : float;
  mutable next_seq : int;
  queue : event Heap.t;
  mutable obs : Stellar_obs.Sink.t;
}

let compare_event a b =
  let c = Float.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    clock = 0.0;
    next_seq = 0;
    queue = Heap.create ~cmp:compare_event;
    obs = Stellar_obs.Sink.null;
  }

let set_obs t obs = t.obs <- obs

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
      (if ev.timer.cancelled then Stellar_obs.Sink.incr t.obs "sim.events.cancelled"
       else begin
         Stellar_obs.Sink.incr t.obs "sim.events.fired";
         ev.timer.fire ()
       end);
      if Stellar_obs.Sink.enabled t.obs then
        Stellar_obs.Sink.set_gauge t.obs "sim.queue.pending"
          (float_of_int (Heap.size t.queue));
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
