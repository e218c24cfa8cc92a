(** The application interface to SCP.

    SCP agrees on opaque values; everything application-specific —
    validation, combining candidate values, signing, timers, and what to do
    with an externalized value — is supplied by the driver (in Stellar, the
    herder). *)

type validation = Invalid | Valid

type metrics = {
  nominate_start : Stellar_obs.Registry.counter;
  nomination_round : Stellar_obs.Registry.counter;
  ballot_bump : Stellar_obs.Registry.counter;
  phase_confirm : Stellar_obs.Registry.counter;
  phase_externalize : Stellar_obs.Registry.counter;
  recv_nominate : Stellar_obs.Registry.counter;
  recv_prepare : Stellar_obs.Registry.counter;
  recv_confirm : Stellar_obs.Registry.counter;
  recv_externalize : Stellar_obs.Registry.counter;
}
(** The [scp.*] counters SCP bumps where its transitions happen, resolved
    once per driver.  The timeout counters ([scp.timeout.*]) are a cold
    path and stay by-name. *)

type t = {
  emit_envelope : Types.envelope -> unit;
      (** Broadcast a signed envelope to peers. *)
  sign : string -> string;
  verify : Types.envelope -> bool;
      (** Whether the envelope's signature is its node's over the
          statement's {!Types.signing_bytes}. *)
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
      (** Deterministically combine confirmed-nominated values into a single
          composite (§5.3). *)
  value_externalized : slot:int -> Types.value -> unit;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
      (** [schedule ~delay f] starts a timer and returns its cancel
          function. *)
  started_ballot : slot:int -> unit;
      (** Called once per slot, when its first ballot starts
          (stellar-core's [startedBallotProtocol]). *)
  obs : Stellar_obs.Sink.t;
      (** Observability sink; {!Stellar_obs.Sink.null} disables all
          instrumentation at the cost of one branch per site. *)
  metrics : metrics;
}

val make :
  emit_envelope:(Types.envelope -> unit) ->
  sign:(string -> string) ->
  verify:(Types.envelope -> bool) ->
  validate_value:(slot:int -> Types.value -> validation) ->
  combine_candidates:(slot:int -> Types.value list -> Types.value option) ->
  value_externalized:(slot:int -> Types.value -> unit) ->
  schedule:(delay:float -> (unit -> unit) -> unit -> unit) ->
  ?started_ballot:(slot:int -> unit) ->
  ?obs:Stellar_obs.Sink.t ->
  unit ->
  t
(** [started_ballot] defaults to doing nothing and [obs] to
    {!Stellar_obs.Sink.null}. *)

val timeout : int -> float
(** stellar-core's timer schedule: [1 + n] seconds for nomination round [n]
    and for ballot counter [n]. *)
