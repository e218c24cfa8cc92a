type timer = { mutable cancelled : bool; fire : unit -> unit }

(* The sink's per-event metrics, resolved once in [set_obs] *)
type metrics = {
  c_fired : Stellar_obs.Registry.counter;
  c_cancelled : Stellar_obs.Registry.counter;
  g_pending : Stellar_obs.Registry.gauge;
}

(* The pending events are a binary min-heap ordered by (time, seq), kept in
   three parallel arrays so an event costs no record of its own and the
   sift loops compare unboxed floats.  Slots at [size] and beyond are free;
   a free [timers] slot holds [vacant], so a fired callback is not kept
   alive by the queue. *)
type t = {
  mutable clock : float;
  mutable next_seq : int;
  mutable times : Float.Array.t;
  mutable seqs : int array;
  mutable timers : timer array;
  mutable size : int;
  mutable metrics : metrics;
}

let vacant = { cancelled = true; fire = ignore }
let initial_capacity = 64

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
    times = Float.Array.make initial_capacity 0.0;
    seqs = Array.make initial_capacity 0;
    timers = Array.make initial_capacity vacant;
    size = 0;
    metrics = metrics_of Stellar_obs.Sink.null;
  }

let set_obs t obs = t.metrics <- metrics_of obs

let now t = t.clock

(* Does the event (time, seq) fire before the one in slot [j]?  Seqs are
   unique, so this is a strict total order. *)
let[@inline] before t time seq j =
  let c = Float.compare time (Float.Array.unsafe_get t.times j) in
  c < 0 || (c = 0 && seq < Array.unsafe_get t.seqs j)

let[@inline] move t ~src ~dst =
  Float.Array.unsafe_set t.times dst (Float.Array.unsafe_get t.times src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.timers dst (Array.unsafe_get t.timers src)

let[@inline] place t i time seq timer =
  Float.Array.unsafe_set t.times i time;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.timers i timer

let grow t =
  let cap = 2 * Array.length t.seqs in
  let times = Float.Array.make cap 0.0 in
  Float.Array.blit t.times 0 times 0 t.size;
  let seqs = Array.make cap 0 in
  Array.blit t.seqs 0 seqs 0 t.size;
  let timers = Array.make cap vacant in
  Array.blit t.timers 0 timers 0 t.size;
  t.times <- times;
  t.seqs <- seqs;
  t.timers <- timers

let schedule t ~delay fire =
  let timer = { cancelled = false; fire } in
  let time = t.clock +. Float.max 0.0 delay in
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  if t.size = Array.length t.seqs then grow t;
  (* move the hole at the new leaf up past every later parent *)
  let i = ref t.size in
  t.size <- t.size + 1;
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    if before t time seq parent then begin
      move t ~src:parent ~dst:!i;
      i := parent
    end
    else rising := false
  done;
  place t !i time seq timer;
  timer

let cancel timer = timer.cancelled <- true

(* Remove the root: the last event fills the hole left at the root, moved
   down past every earlier child. *)
let remove_root t =
  let last = t.size - 1 in
  t.size <- last;
  let time = Float.Array.unsafe_get t.times last in
  let seq = Array.unsafe_get t.seqs last in
  let timer = Array.unsafe_get t.timers last in
  Array.unsafe_set t.timers last vacant;
  if last > 0 then begin
    let i = ref 0 in
    let sinking = ref true in
    while !sinking do
      let l = (2 * !i) + 1 in
      if l >= last then sinking := false
      else begin
        let r = l + 1 in
        let child =
          if r < last && before t (Float.Array.unsafe_get t.times r) (Array.unsafe_get t.seqs r) l
          then r
          else l
        in
        if before t time seq child then sinking := false
        else begin
          move t ~src:child ~dst:!i;
          i := child
        end
      end
    done;
    place t !i time seq timer
  end

let run ?until t =
  let limit = match until with Some limit -> limit | None -> Float.infinity in
  let continue = ref true in
  while !continue && t.size > 0 do
    let time = Float.Array.unsafe_get t.times 0 in
    if time > limit then begin
      t.clock <- limit;
      continue := false
    end
    else begin
      let timer = Array.unsafe_get t.timers 0 in
      remove_root t;
      t.clock <- Float.max t.clock time;
      let m = t.metrics in
      (if timer.cancelled then Stellar_obs.Registry.incr m.c_cancelled
       else begin
         Stellar_obs.Registry.incr m.c_fired;
         timer.fire ()
       end);
      Stellar_obs.Registry.set m.g_pending (float_of_int t.size)
    end
  done

let pending t = t.size
