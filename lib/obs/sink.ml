type t = {
  enabled : bool;
  node : int;
  now : unit -> float;
  metrics : Registry.t;
  trace : Trace.t option;
}

let null =
  { enabled = false; node = -1; now = (fun () -> 0.0); metrics = Registry.create (); trace = None }

let make ?trace ~node ~now metrics = { enabled = true; node; now; metrics; trace }

let enabled t = t.enabled
let tracing t = Option.is_some t.trace
let metrics t = t.metrics

let emit t ev =
  match t.trace with Some tr -> Trace.record tr ~time:(t.now ()) ~node:t.node ev | None -> ()

let counter t name =
  if t.enabled then Registry.counter t.metrics name else Registry.detached_counter ()

let gauge t name = if t.enabled then Registry.gauge t.metrics name else Registry.detached_gauge ()

let incr t name = if t.enabled then Registry.incr (Registry.counter t.metrics name)
let add t name k = if t.enabled then Registry.add (Registry.counter t.metrics name) k
let set_gauge t name v = if t.enabled then Registry.set (Registry.gauge t.metrics name) v
let observe t name v = if t.enabled then Registry.observe (Registry.histogram t.metrics name) v
