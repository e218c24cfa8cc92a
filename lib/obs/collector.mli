(** One run's telemetry: one registry per node, a separate registry for the
    simulation engine itself, and a shared trace.  Hand [sink t i] to node
    [i]'s validator/network slot and {!sim_sink} to the engine. *)

type t

val create : tracing:bool -> n:int -> now:(unit -> float) -> t
(** [now] is the simulated clock (e.g. [fun () -> Engine.now engine]).
    The sinks always record metrics; with [tracing] they also record events
    into the shared trace, which otherwise stays empty. *)

val trace : t -> Trace.t
val n_nodes : t -> int

val sink : t -> int -> Sink.t

val sim_sink : t -> Sink.t
(** Sink for run-level instrumentation (the engine's counters, and
    fault-injection events that belong to no single node); it shares the
    run's trace and stamps events with node id -1. *)

val registry : t -> int -> Registry.t
val sim_registry : t -> Registry.t

val aggregate : t -> Registry.t
(** All node registries plus the sim registry merged into one. *)
