(* Received-statement counters by pledge type, resolved when the slot is
   made rather than looked up per envelope *)
type recv_metrics = {
  c_nominate : Stellar_obs.Registry.counter;
  c_prepare : Stellar_obs.Registry.counter;
  c_confirm : Stellar_obs.Registry.counter;
  c_externalize : Stellar_obs.Registry.counter;
}

type t = {
  index : int;
  local_id : Types.node_id;
  driver : Driver.t;
  nomination : Nomination.t;
  ballot : Ballot.t;
  recv_metrics : recv_metrics;
}

let create ~index ~local_id ~get_qset ~driver =
  let ballot = Ballot.create ~slot:index ~local_id ~get_qset ~driver in
  let nomination =
    Nomination.create ~slot:index ~local_id ~get_qset ~driver
      ~on_candidates:(fun composite ->
        Ballot.on_nomination_composite ballot composite;
        ignore (Ballot.bump ballot ~value:composite ~force:false))
  in
  let obs = driver.Driver.obs in
  let recv_metrics =
    {
      c_nominate = Stellar_obs.Sink.counter obs "scp.nominate.recv";
      c_prepare = Stellar_obs.Sink.counter obs "scp.ballot.prepare";
      c_confirm = Stellar_obs.Sink.counter obs "scp.ballot.confirm";
      c_externalize = Stellar_obs.Sink.counter obs "scp.ballot.externalize";
    }
  in
  { index; local_id; driver; nomination; ballot; recv_metrics }

let index t = t.index

(* Nomination stops once balloting reaches the commit phase (the composite
   can no longer influence this slot). *)
let sync_nomination t =
  if Ballot.phase t.ballot <> Ballot.Prepare_phase then Nomination.stop t.nomination

let nominate t ~value ~prev =
  if Ballot.phase t.ballot = Ballot.Prepare_phase then begin
    let obs = t.driver.Driver.obs in
    Stellar_obs.Sink.incr obs "scp.nominate.start";
    if Stellar_obs.Sink.tracing obs then
      Stellar_obs.Sink.emit obs (Stellar_obs.Event.Nominate_start { slot = t.index });
    Nomination.nominate t.nomination ~value ~prev;
    sync_nomination t
  end

let recv_counter m = function
  | Types.Nominate _ -> m.c_nominate
  | Types.Prepare _ -> m.c_prepare
  | Types.Confirm _ -> m.c_confirm
  | Types.Externalize _ -> m.c_externalize

let process_envelope t env =
  let st = env.Types.statement in
  if st.Types.slot <> t.index then `Invalid
  else if String.equal st.Types.node_id t.local_id then `Stale
  else if not (Quorum_set.is_sane st.Types.quorum_set) then `Invalid
  else if
    not
      (t.driver.Driver.verify st.Types.node_id ~msg:(Types.signing_bytes st)
         ~signature:env.Types.signature)
  then `Invalid
  else begin
    Stellar_obs.Registry.incr (recv_counter t.recv_metrics st.Types.pledge);
    let result =
      match st.Types.pledge with
      | Types.Nominate _ -> Nomination.process_envelope t.nomination env
      | _ -> Ballot.process_envelope t.ballot env
    in
    sync_nomination t;
    result
  end

let phase t = Ballot.phase t.ballot
let externalized_value t = Ballot.externalized_value t.ballot

let ballot_counter t =
  match Ballot.current_ballot t.ballot with Some b -> b.Types.counter | None -> 0

let nomination_round t = Nomination.round t.nomination
let heard_from_quorum t = Ballot.heard_from_quorum t.ballot

let latest_statements t =
  Nomination.latest_statements t.nomination @ Ballot.latest_statements t.ballot

let latest_envelopes t =
  (* ballot envelopes first: an EXTERNALIZE is what completes a straggler *)
  Ballot.latest_envelopes t.ballot @ Nomination.latest_envelopes t.nomination

let reevaluate t =
  Nomination.reevaluate t.nomination;
  Ballot.reevaluate t.ballot;
  sync_nomination t
