type t = {
  trace : Trace.t;
  node_registries : Registry.t array;
  sim_registry : Registry.t;
  sinks : Sink.t array;
  sim_sink : Sink.t;
}

let create ~tracing ~n ~now =
  let trace = Trace.create () in
  let sink_trace = if tracing then Some trace else None in
  let node_registries = Array.init n (fun _ -> Registry.create ()) in
  let sim_registry = Registry.create () in
  {
    trace;
    node_registries;
    sim_registry;
    sinks =
      Array.init n (fun node ->
          Sink.make ?trace:sink_trace ~node ~now node_registries.(node));
    (* the sim sink shares the trace so run-level events (partition begin/
       heal, loss windows) can be recorded with node id -1 *)
    sim_sink = Sink.make ?trace:sink_trace ~node:(-1) ~now sim_registry;
  }

let trace t = t.trace
let n_nodes t = Array.length t.sinks
let sink t i = t.sinks.(i)
let sim_sink t = t.sim_sink
let registry t i = t.node_registries.(i)
let sim_registry t = t.sim_registry

let aggregate t =
  Registry.merge (t.sim_registry :: Array.to_list t.node_registries)
