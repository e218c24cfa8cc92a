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

type t = {
  emit_envelope : Types.envelope -> unit;
  sign : string -> string;
  verify : Types.envelope -> bool;
  validate_value : slot:int -> Types.value -> validation;
  combine_candidates : slot:int -> Types.value list -> Types.value option;
  value_externalized : slot:int -> Types.value -> unit;
  schedule : delay:float -> (unit -> unit) -> unit -> unit;
  started_ballot : slot:int -> unit;
  obs : Stellar_obs.Sink.t;
  metrics : metrics;
}

let make ~emit_envelope ~sign ~verify ~validate_value ~combine_candidates
    ~value_externalized ~schedule ?(started_ballot = fun ~slot:_ -> ())
    ?(obs = Stellar_obs.Sink.null) () =
  let c = Stellar_obs.Sink.counter obs in
  {
    emit_envelope;
    sign;
    verify;
    validate_value;
    combine_candidates;
    value_externalized;
    schedule;
    started_ballot;
    obs;
    metrics =
      {
        nominate_start = c "scp.nominate.start";
        nomination_round = c "scp.nomination.round";
        ballot_bump = c "scp.ballot.bump";
        phase_confirm = c "scp.phase.confirm";
        phase_externalize = c "scp.phase.externalize";
        recv_nominate = c "scp.nominate.recv";
        recv_prepare = c "scp.ballot.prepare";
        recv_confirm = c "scp.ballot.confirm";
        recv_externalize = c "scp.ballot.externalize";
      };
  }

let timeout n = float_of_int (1 + n)
