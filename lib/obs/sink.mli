(** The instrumentation hook handed to every subsystem.

    A sink binds a node id and a (simulated-)time source to a metric
    {!Registry.t} and an optional shared {!Trace.t}.  A live sink always
    records metrics; the trace is the only optional part.  The {!null} sink
    is disabled: every operation is a single boolean test and no allocation,
    for standalone and unit-test use.

    Call sites update counters, gauges and histograms unconditionally, and
    guard only event emission with {!tracing} so the payload is never built
    when no trace is attached.  Hot paths resolve their metrics once with
    {!counter} / {!gauge} and update the handles; the by-name updates cost a
    table lookup each and are for cold paths. *)

type t

val null : t
(** Disabled sink: all operations are no-ops. *)

val make : ?trace:Trace.t -> node:int -> now:(unit -> float) -> Registry.t -> t
(** A live sink.  Without [trace], metrics are recorded but no events. *)

val enabled : t -> bool
(** [false] only for {!null}. *)

val tracing : t -> bool
(** A trace is attached: {!emit} records events. *)

val metrics : t -> Registry.t

val emit : t -> Event.t -> unit
(** Stamp with node and current time, append to the trace (if any). *)

val counter : t -> string -> Registry.counter
val gauge : t -> string -> Registry.gauge
(** The named metric's handle in this sink's registry, registering it now.
    On {!null}, a handle in no registry. *)

val incr : t -> string -> unit
val add : t -> string -> int -> unit
val set_gauge : t -> string -> float -> unit
val observe : t -> string -> float -> unit
