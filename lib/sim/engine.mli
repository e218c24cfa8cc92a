(** Discrete-event simulation engine with a virtual clock.

    The engine replaces the real network/OS testbed of the paper's
    evaluation: all protocol timers and message deliveries are events on a
    virtual timeline measured in seconds, so a "68-hour" production run
    (Fig. 8) executes in seconds of CPU and is perfectly reproducible. *)

type t

type timer
(** Handle for a scheduled event; may be cancelled. *)

val create : unit -> t

val set_obs : t -> Stellar_obs.Sink.t -> unit
(** Attach an observability sink (set after creation because sinks usually
    need this engine's clock).  A live sink counts [sim.events.fired] /
    [sim.events.cancelled] and tracks the [sim.queue.pending] gauge. *)

val now : t -> float
(** Current virtual time in seconds. *)

val schedule : t -> delay:float -> (unit -> unit) -> timer
(** Schedule a callback [delay] seconds from now (clamped to [>= 0]).
    Events at equal times fire in scheduling order. *)

val cancel : timer -> unit
(** Cancelling a fired or already-cancelled timer is a no-op. *)

val run : ?until:float -> t -> unit
(** Process events in timestamp order until the queue drains or virtual time
    would exceed [until]. *)

val pending : t -> int
(** Number of scheduled (possibly cancelled) events. *)
