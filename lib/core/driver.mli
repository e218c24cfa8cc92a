(** The application interface to SCP.

    SCP agrees on opaque values; everything application-specific —
    validation, combining candidate values, signing, timers, and what to do
    with an externalized value — is supplied by the driver (in Stellar, the
    herder). *)

type validation = Invalid | Valid

type hooks = {
  on_nomination_round : slot:int -> round:int -> unit;
  on_ballot_bump : slot:int -> counter:int -> unit;
  on_timeout : slot:int -> kind:[ `Nomination | `Ballot ] -> unit;
  on_phase_change : slot:int -> phase:string -> unit;
}

val no_hooks : hooks

type t = {
  emit_envelope : Types.envelope -> unit;
      (** Broadcast a signed envelope to peers. *)
  sign : string -> string;
  verify : Types.node_id -> msg:string -> signature:string -> bool;
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
      (** Deterministically combine confirmed-nominated values into a single
          composite (§5.3). *)
  value_externalized : slot:int -> Types.value -> unit;
  nomination_timeout : round:int -> float;
  ballot_timeout : counter:int -> float;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
      (** [schedule ~delay f] starts a timer and returns its cancel
          function. *)
  hooks : hooks;
  obs : Stellar_obs.Sink.t;
      (** Observability sink; {!Stellar_obs.Sink.null} disables all
          instrumentation at the cost of one branch per site. *)
}

val make :
  emit_envelope:(Types.envelope -> unit) ->
  sign:(string -> string) ->
  verify:(Types.node_id -> msg:string -> signature:string -> bool) ->
  validate_value:(slot:int -> Types.value -> validation) ->
  combine_candidates:(slot:int -> Types.value list -> Types.value option) ->
  value_externalized:(slot:int -> Types.value -> unit) ->
  schedule:(delay:float -> (unit -> unit) -> unit -> unit) ->
  ?nomination_timeout:(round:int -> float) ->
  ?ballot_timeout:(counter:int -> float) ->
  ?hooks:hooks ->
  ?obs:Stellar_obs.Sink.t ->
  unit ->
  t
(** With a live [obs] sink, the driver interposes on [hooks] to bump the
    [scp.*] counters (nomination rounds, ballot bumps, confirm/externalize
    phase changes, timeouts) and, when tracing, emit the matching events
    before calling the caller's hook. *)

val default_nomination_timeout : round:int -> float
(** stellar-core's schedule: [1 + round] seconds. *)

val default_ballot_timeout : counter:int -> float
(** stellar-core's schedule: [1 + counter] seconds. *)
