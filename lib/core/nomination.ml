module VS = Set.Make (String)
module SS = Set.Make (String)
module NM = Federation.Node_map

type t = {
  slot : int;
  local_id : Types.node_id;
  get_qset : unit -> Quorum_set.t;
  driver : Driver.t;
  index : Federation.index;
  on_candidates : Types.value -> unit;
  mutable round : int;
  mutable votes : VS.t;
  mutable accepted : VS.t;
  mutable candidates : VS.t;
  mutable latest : Federation.statements;
  mutable latest_envs : Types.envelope NM.t;
  mutable leaders : SS.t;
  mutable started : bool;
  mutable stopped : bool;
  mutable previous_value : Types.value;
  mutable nomination_value : Types.value;
  mutable timer_cancel : (unit -> unit) option;
  mutable last_emitted : Types.statement option;
}

let create ~slot ~local_id ~get_qset ~driver ~index ~on_candidates =
  {
    slot;
    local_id;
    get_qset;
    driver;
    index;
    on_candidates;
    round = 0;
    votes = VS.empty;
    accepted = VS.empty;
    candidates = VS.empty;
    latest = NM.empty;
    latest_envs = NM.empty;
    leaders = SS.empty;
    started = false;
    stopped = false;
    previous_value = "";
    nomination_value = "";
    timer_cancel = None;
    last_emitted = None;
  }

let leaders t = SS.elements t.leaders
let candidates t = VS.elements t.candidates
let latest_statements t = NM.fold (fun _ v acc -> v.Federation.statement :: acc) t.latest []
let latest_envelopes t = NM.fold (fun _ env acc -> env :: acc) t.latest_envs []

let stop t =
  t.stopped <- true;
  Option.iter (fun cancel -> cancel ()) t.timer_cancel;
  t.timer_cancel <- None

(* ---- statement predicates ---- *)

let nom_of st = match st.Types.pledge with Types.Nominate n -> Some n | _ -> None

let votes_value v st =
  match nom_of st with
  | Some n -> List.exists (String.equal v) n.votes
  | None -> false

let accepts_value v st =
  match nom_of st with
  | Some n -> List.exists (String.equal v) n.accepted
  | None -> false

(* A value a leader is proposing, to echo: the leader's accepted values are
   preferred over plain votes; among those, pick by hash so all followers
   pick the same one deterministically. *)
let new_value_from_leader t leader_st =
  match nom_of leader_st with
  | None -> None
  | Some n ->
      let pool = if n.accepted <> [] then n.accepted else n.votes in
      let valid v =
        (not (VS.mem v t.votes))
        && t.driver.Driver.validate_value ~slot:t.slot v = Driver.Valid
      in
      let scored =
        List.filter_map
          (fun v ->
            if valid v then
              Some (Leader.hash_fraction ~slot:t.slot ~prev:t.previous_value ~tag:3 ~round:t.round v, v)
            else None)
          pool
      in
      match List.sort compare scored with [] -> None | (_, v) :: _ -> Some v

(* ---- emitting our own statement ---- *)

let current_statement t =
  Types.
    {
      node_id = t.local_id;
      slot = t.slot;
      quorum_set = t.get_qset ();
      pledge = Nominate { votes = VS.elements t.votes; accepted = VS.elements t.accepted };
    }

let record_self t =
  let st = current_statement t in
  t.latest <- NM.add t.local_id (Federation.voter t.index st) t.latest

let emit_if_changed ?(force = false) t =
  let st = current_statement t in
  let changed =
    match t.last_emitted with
    | None -> not (VS.is_empty t.votes) || not (VS.is_empty t.accepted)
    | Some prev -> force || not (Types.same_statement prev st)
  in
  if changed && t.started && not t.stopped then begin
    t.last_emitted <- Some st;
    let signature = t.driver.Driver.sign (Types.signing_bytes st) in
    let env = { Types.statement = st; signature } in
    t.latest_envs <- NM.add t.local_id env t.latest_envs;
    t.driver.Driver.emit_envelope env
  end

(* ---- the federated-voting fixpoint ---- *)

let all_seen_values t =
  NM.fold
    (fun _ v acc ->
      match nom_of v.Federation.statement with
      | None -> acc
      | Some n ->
          let acc = List.fold_left (fun a v -> VS.add v a) acc n.votes in
          List.fold_left (fun a v -> VS.add v a) acc n.accepted)
    t.latest VS.empty

let advance t =
  if t.started then begin
    record_self t;
    let progress = ref true in
    let new_candidates = ref false in
    while !progress do
      progress := false;
      let seen = all_seen_values t in
      VS.iter
        (fun v ->
          if not (VS.mem v t.accepted) then
            if
              Federation.federated_accept t.index ~local_qset:(t.get_qset ()) t.latest
                ~voted:(votes_value v) ~accepted:(accepts_value v)
              && t.driver.Driver.validate_value ~slot:t.slot v = Driver.Valid
            then begin
              t.votes <- VS.add v t.votes;
              t.accepted <- VS.add v t.accepted;
              record_self t;
              progress := true
            end)
        seen;
      VS.iter
        (fun v ->
          if not (VS.mem v t.candidates) then
            if Federation.federated_ratify t.index ~local_qset:(t.get_qset ()) t.latest (accepts_value v)
            then begin
              t.candidates <- VS.add v t.candidates;
              new_candidates := true;
              progress := true
            end)
        t.accepted
    done;
    emit_if_changed t;
    if !new_candidates then begin
      match t.driver.Driver.combine_candidates ~slot:t.slot (VS.elements t.candidates) with
      | Some composite -> t.on_candidates composite
      | None -> ()
    end
  end

(* ---- rounds ---- *)

let rec trigger_round t ~timedout =
  if (not t.stopped) && ((not timedout) || t.started) then begin
    t.started <- true;
    t.round <- t.round + 1;
    let obs = t.driver.Driver.obs in
    Stellar_obs.Registry.incr t.driver.Driver.metrics.Driver.nomination_round;
    if Stellar_obs.Sink.tracing obs then
      Stellar_obs.Sink.emit obs
        (Stellar_obs.Event.Nomination_round { slot = t.slot; round = t.round });
    if timedout then begin
      Stellar_obs.Sink.incr obs "scp.timeout.nomination";
      if Stellar_obs.Sink.tracing obs then
        Stellar_obs.Sink.emit obs
          (Stellar_obs.Event.Timeout_fired { slot = t.slot; kind = `Nomination })
    end;
    let leader =
      Leader.round_leader ~qset:(t.get_qset ()) ~self:t.local_id ~slot:t.slot
        ~prev:t.previous_value ~round:t.round
    in
    t.leaders <- SS.add leader t.leaders;
    (* Introduce or echo votes, but only while nothing is confirmed
       nominated: confirming a candidate ends new voting (§3.2.2). *)
    if VS.is_empty t.candidates then
      SS.iter
        (fun l ->
          if String.equal l t.local_id then begin
            if
              (not (VS.mem t.nomination_value t.votes))
              && t.driver.Driver.validate_value ~slot:t.slot t.nomination_value
                 = Driver.Valid
            then t.votes <- VS.add t.nomination_value t.votes
          end
          else
            match NM.find_opt l t.latest with
            | Some leader -> (
                match new_value_from_leader t leader.Federation.statement with
                | Some v -> t.votes <- VS.add v t.votes
                | None -> ())
            | None -> ())
        t.leaders;
    record_self t;
    advance t;
    emit_if_changed ~force:timedout t;
    (* Re-arm the round timer with the growing timeout. *)
    Option.iter (fun cancel -> cancel ()) t.timer_cancel;
    let delay = Driver.timeout t.round in
    t.timer_cancel <-
      Some (t.driver.Driver.schedule ~delay (fun () -> trigger_round t ~timedout:true))
  end

let nominate t ~value ~prev =
  t.nomination_value <- value;
  t.previous_value <- prev;
  trigger_round t ~timedout:false

(* ---- incoming statements ---- *)

let sorted_unique l =
  let s = List.sort String.compare l in
  let rec uniq = function
    | a :: b :: _ when String.equal a b -> false
    | _ :: rest -> uniq rest
    | [] -> true
  in
  uniq s && s = l

let is_newer ~(old : Federation.voter) ~old_n ~(recv : Federation.voter) ~new_n =
  let subset a b = List.for_all (fun v -> List.exists (String.equal v) b) a in
  let open Types in
  subset old_n.votes new_n.votes
  && subset old_n.accepted new_n.accepted
  && (List.length new_n.votes > List.length old_n.votes
     || List.length new_n.accepted > List.length old_n.accepted
     (* a reconfigured quorum set alone also counts: peers must learn the
        sender's new slices for quorum discovery (§3.1.1) *)
     || old.qset != recv.qset)

let process_envelope t (env : Types.envelope) =
  let st = env.Types.statement in
  match nom_of st with
  | None -> `Invalid
  | Some n ->
      if not (sorted_unique n.votes && sorted_unique n.accepted) then `Invalid
      else if n.votes = [] && n.accepted = [] then `Invalid
      else begin
        let recv = Federation.voter t.index st in
        let fresh =
          match NM.find_opt st.Types.node_id t.latest with
          | None -> true
          | Some old -> (
              match nom_of old.statement with
              | Some old_n -> is_newer ~old ~old_n ~recv ~new_n:n
              | None -> true)
        in
        if not fresh then `Stale
        else begin
          t.latest <- NM.add st.Types.node_id recv t.latest;
          t.latest_envs <- NM.add st.Types.node_id env t.latest_envs;
          if t.started && not t.stopped then begin
            (* Echo a leader's proposal as soon as it arrives. *)
            (if VS.is_empty t.candidates && SS.mem st.Types.node_id t.leaders then
               match new_value_from_leader t st with
               | Some v ->
                   t.votes <- VS.add v t.votes;
                   record_self t
               | None -> ());
            advance t
          end;
          `Processed
        end
      end

let reevaluate t = if t.started && not t.stopped then advance t
