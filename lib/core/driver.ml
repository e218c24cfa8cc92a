type validation = Invalid | Valid

type hooks = {
  on_nomination_round : slot:int -> round:int -> unit;
  on_ballot_bump : slot:int -> counter:int -> unit;
  on_timeout : slot:int -> kind:[ `Nomination | `Ballot ] -> unit;
  on_phase_change : slot:int -> phase:string -> unit;
}

let no_hooks =
  {
    on_nomination_round = (fun ~slot:_ ~round:_ -> ());
    on_ballot_bump = (fun ~slot:_ ~counter:_ -> ());
    on_timeout = (fun ~slot:_ ~kind:_ -> ());
    on_phase_change = (fun ~slot:_ ~phase:_ -> ());
  }

type t = {
  emit_envelope : Types.envelope -> unit;
  sign : string -> string;
  verify : Types.node_id -> msg:string -> signature:string -> bool;
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
  value_externalized : slot:int -> Types.value -> unit;
  nomination_timeout : round:int -> float;
  ballot_timeout : counter:int -> float;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
  hooks : hooks;
  obs : Stellar_obs.Sink.t;
}

let default_nomination_timeout ~round = float_of_int (1 + round)
let default_ballot_timeout ~counter = float_of_int (1 + counter)

(* Protocol internals already report through [hooks]; with a live sink we
   interpose once here so nomination/ballot code needs no obs plumbing. *)
let observe_hooks obs hooks =
  let module S = Stellar_obs.Sink in
  let module E = Stellar_obs.Event in
  if not (S.enabled obs) then hooks
  else
    {
      on_nomination_round =
        (fun ~slot ~round ->
          S.incr obs "scp.nomination.round";
          if S.tracing obs then S.emit obs (E.Nomination_round { slot; round });
          hooks.on_nomination_round ~slot ~round);
      on_ballot_bump =
        (fun ~slot ~counter ->
          S.incr obs "scp.ballot.bump";
          if S.tracing obs then S.emit obs (E.Ballot_bump { slot; counter });
          hooks.on_ballot_bump ~slot ~counter);
      on_timeout =
        (fun ~slot ~kind ->
          S.incr obs
            (match kind with
            | `Nomination -> "scp.timeout.nomination"
            | `Ballot -> "scp.timeout.ballot");
          if S.tracing obs then S.emit obs (E.Timeout_fired { slot; kind });
          hooks.on_timeout ~slot ~kind);
      on_phase_change =
        (fun ~slot ~phase ->
          (match phase with
          | "confirm" ->
              S.incr obs "scp.phase.confirm";
              if S.tracing obs then S.emit obs (E.Confirm_prepare { slot })
          | "externalize" ->
              S.incr obs "scp.phase.externalize";
              if S.tracing obs then S.emit obs (E.Externalize { slot })
          | _ -> ());
          hooks.on_phase_change ~slot ~phase);
    }

let make ~emit_envelope ~sign ~verify ~validate_value ~combine_candidates
    ~value_externalized ~schedule ?(nomination_timeout = default_nomination_timeout)
    ?(ballot_timeout = default_ballot_timeout) ?(hooks = no_hooks)
    ?(obs = Stellar_obs.Sink.null) () =
  {
    emit_envelope;
    sign;
    verify;
    validate_value;
    combine_candidates;
    value_externalized;
    nomination_timeout;
    ballot_timeout;
    schedule;
    hooks = observe_hooks obs hooks;
    obs;
  }
