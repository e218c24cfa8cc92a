type t = {
  index : int;
  local_id : Types.node_id;
  driver : Driver.t;
  nodes : Federation.index;
  nomination : Nomination.t;
  ballot : Ballot.t;
}

let create ~index ~local_id ~get_qset ~driver =
  let nodes = Federation.create_index () in
  let ballot = Ballot.create ~slot:index ~local_id ~get_qset ~driver ~index:nodes in
  let nomination =
    Nomination.create ~slot:index ~local_id ~get_qset ~driver ~index:nodes
      ~on_candidates:(fun composite ->
        Ballot.on_nomination_composite ballot composite;
        ignore (Ballot.bump ballot ~value:composite ~force:false))
  in
  { index; local_id; driver; nodes; nomination; ballot }

(* Nomination stops once balloting reaches the commit phase (the composite
   can no longer influence this slot). *)
let sync_nomination t =
  if Ballot.phase t.ballot <> Ballot.Prepare_phase then Nomination.stop t.nomination

let nominate t ~value ~prev =
  if Ballot.phase t.ballot = Ballot.Prepare_phase then begin
    let d = t.driver in
    Stellar_obs.Registry.incr d.Driver.metrics.Driver.nominate_start;
    if Stellar_obs.Sink.tracing d.Driver.obs then
      Stellar_obs.Sink.emit d.Driver.obs (Stellar_obs.Event.Nominate_start { slot = t.index });
    Nomination.nominate t.nomination ~value ~prev;
    sync_nomination t
  end

let recv_counter (m : Driver.metrics) = function
  | Types.Nominate _ -> m.recv_nominate
  | Types.Prepare _ -> m.recv_prepare
  | Types.Confirm _ -> m.recv_confirm
  | Types.Externalize _ -> m.recv_externalize

(* Only a signed statement's set enters the slot's index, which checks each
   distinct set's sanity once. *)
let process_envelope t env =
  let st = env.Types.statement in
  if st.Types.slot <> t.index then `Invalid
  else if String.equal st.Types.node_id t.local_id then `Stale
  else if not (t.driver.Driver.verify env) then `Invalid
  else if not (Federation.sane (Federation.compile t.nodes st.Types.quorum_set)) then `Invalid
  else begin
    Stellar_obs.Registry.incr (recv_counter t.driver.Driver.metrics st.Types.pledge);
    let result =
      match st.Types.pledge with
      | Types.Nominate _ -> Nomination.process_envelope t.nomination env
      | _ -> Ballot.process_envelope t.ballot env
    in
    sync_nomination t;
    result
  end

let known_nodes t = Federation.size t.nodes

let latest_envelopes t =
  (* ballot envelopes first: an EXTERNALIZE is what completes a straggler *)
  Ballot.latest_envelopes t.ballot @ Nomination.latest_envelopes t.nomination

let reevaluate t =
  Nomination.reevaluate t.nomination;
  Ballot.reevaluate t.ballot;
  sync_nomination t
