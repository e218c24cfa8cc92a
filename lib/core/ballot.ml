open Types

module NM = Federation.Node_map

type phase = Prepare_phase | Confirm_phase | Externalize_phase

type t = {
  slot : int;
  local_id : node_id;
  get_qset : unit -> Quorum_set.t;
  driver : Driver.t;
  index : Federation.index;
  mutable phase : phase;
  mutable b : ballot option;
  mutable p : ballot option;
  mutable p_prime : ballot option;
  mutable h : ballot option;
  mutable c : ballot option;
  mutable latest : Federation.statements;
  mutable latest_envs : envelope NM.t;
  mutable value_override : value option;
  mutable nomination_composite : value option;
  mutable timer_cancel : (unit -> unit) option;
  mutable timer_counter : int;  (* counter the running timer was armed for *)
  mutable last_emitted : statement option;
  mutable externalized : value option;
  mutable message_level : int;
}

let create ~slot ~local_id ~get_qset ~driver ~index =
  {
    slot;
    local_id;
    get_qset;
    driver;
    index;
    phase = Prepare_phase;
    b = None;
    p = None;
    p_prime = None;
    h = None;
    c = None;
    latest = NM.empty;
    latest_envs = NM.empty;
    value_override = None;
    nomination_composite = None;
    timer_cancel = None;
    timer_counter = -1;
    last_emitted = None;
    externalized = None;
    message_level = 0;
  }

let phase t = t.phase
let current_ballot t = t.b
let prepared t = t.p
let externalized_value t = t.externalized
let latest_envelopes t = NM.fold (fun _ env acc -> env :: acc) t.latest_envs []
let on_nomination_composite t v = t.nomination_composite <- Some v

(* ---- statement predicates (what a peer's statement votes/accepts) ---- *)

(* Does [st] accept "prepared(bal)"? *)
let accepts_prepared bal st =
  match st.pledge with
  | Prepare p ->
      (match p.prepared with Some pp -> Ballot.less_and_compatible bal pp | None -> false)
      || (match p.prepared_prime with Some pp -> Ballot.less_and_compatible bal pp | None -> false)
  | Confirm c ->
      Ballot.compatible bal c.ballot && bal.counter <= c.n_prepared
  | Externalize e -> Ballot.compatible bal e.commit
  | Nominate _ -> false

(* Does [st] vote "prepare(bal)"?  A PREPARE for a higher compatible ballot
   subsumes votes for all lower ones; CONFIRM/EXTERNALIZE vote prepare at
   effectively infinite counters for their value. *)
let votes_prepared bal st =
  match st.pledge with
  | Prepare p -> Ballot.less_and_compatible bal p.ballot
  | Confirm c -> Ballot.compatible bal c.ballot
  | Externalize e -> Ballot.compatible bal e.commit
  | Nominate _ -> false

(* Does [st] vote commit(n, v) for every n in [lo, hi]? *)
let votes_commit ~value ~lo ~hi st =
  match st.pledge with
  | Prepare p ->
      String.equal p.ballot.value value && p.n_c <> 0 && p.n_c <= lo && hi <= p.n_h
  | Confirm c -> String.equal c.ballot.value value && c.n_commit <= lo
  | Externalize _ -> false
  | Nominate _ -> false

(* Does [st] accept commit(n, v) for every n in [lo, hi]? *)
let accepts_commit ~value ~lo ~hi st =
  match st.pledge with
  | Prepare _ -> false
  | Confirm c -> String.equal c.ballot.value value && c.n_commit <= lo && hi <= c.n_h
  | Externalize e -> String.equal e.commit.value value && e.commit.counter <= lo
  | Nominate _ -> false

(* ---- helpers over received statements ---- *)

let prepare_candidates t =
  let add acc bal = if List.exists (Ballot.equal bal) acc then acc else bal :: acc in
  let of_stmt acc st =
    match st.pledge with
    | Prepare p ->
        let acc = add acc p.ballot in
        let acc = match p.prepared with Some b -> add acc b | None -> acc in
        (match p.prepared_prime with Some b -> add acc b | None -> acc)
    | Confirm c ->
        let acc = add acc { counter = c.n_prepared; value = c.ballot.value } in
        add acc { counter = Ballot.max_counter; value = c.ballot.value }
    | Externalize e -> add acc { counter = Ballot.max_counter; value = e.commit.value }
    | Nominate _ -> acc
  in
  let cands = NM.fold (fun _ v acc -> of_stmt acc v.Federation.statement) t.latest [] in
  List.sort (fun a b -> Ballot.compare b a) cands (* descending *)

let commit_boundaries t value =
  let add acc n = if n > 0 && not (List.mem n acc) then n :: acc else acc in
  let of_stmt acc st =
    match st.pledge with
    | Prepare p ->
        if String.equal p.ballot.value value && p.n_c <> 0 then add (add acc p.n_c) p.n_h
        else acc
    | Confirm c ->
        if String.equal c.ballot.value value then add (add acc c.n_commit) c.n_h else acc
    | Externalize e ->
        if String.equal e.commit.value value then add acc e.commit.counter else acc
    | Nominate _ -> acc
  in
  let bs = NM.fold (fun _ v acc -> of_stmt acc v.Federation.statement) t.latest [] in
  List.sort (fun a b -> Int.compare b a) bs (* descending *)

(* Largest interval [lo, hi], anchored at successive boundaries from above,
   on which [pred ~lo ~hi] holds (stellar-core's findExtendedInterval). *)
let find_extended_interval boundaries pred =
  let rec go interval = function
    | [] -> interval
    | b :: rest ->
        let cand = match interval with None -> (b, b) | Some (_, hi) -> (b, hi) in
        let lo, hi = cand in
        if pred ~lo ~hi then go (Some cand) rest
        else if interval <> None then interval
        else go None rest
  in
  go None boundaries

(* ---- emitting ---- *)

let current_statement t =
  let pledge =
    match t.phase with
    | Prepare_phase ->
        let b = Option.get t.b in
        Prepare
          {
            ballot = b;
            prepared = t.p;
            prepared_prime = t.p_prime;
            n_c = (match t.c with Some c -> c.counter | None -> 0);
            n_h = (match t.h with Some h -> h.counter | None -> 0);
          }
    | Confirm_phase ->
        let b = Option.get t.b in
        Confirm
          {
            ballot = b;
            n_prepared = (match t.p with Some p -> p.counter | None -> 0);
            n_commit = (match t.c with Some c -> c.counter | None -> 0);
            n_h = (match t.h with Some h -> h.counter | None -> 0);
          }
    | Externalize_phase ->
        Externalize
          {
            commit = Option.get t.c;
            n_h = (match t.h with Some h -> h.counter | None -> 0);
          }
  in
  { node_id = t.local_id; slot = t.slot; quorum_set = t.get_qset (); pledge }

let sign_and_emit t =
  if t.b <> None then begin
    let st = current_statement t in
    let changed =
      match t.last_emitted with Some prev -> not (same_statement prev st) | None -> true
    in
    if changed then begin
      t.last_emitted <- Some st;
      t.latest <- NM.add t.local_id (Federation.voter t.index st) t.latest;
      let signature = t.driver.Driver.sign (signing_bytes st) in
      let env = { statement = st; signature } in
      t.latest_envs <- NM.add t.local_id env t.latest_envs;
      t.driver.Driver.emit_envelope env
    end
  end

(* ---- timers & quorum sync (§3.2.4) ---- *)

let stop_timer t =
  Option.iter (fun cancel -> cancel ()) t.timer_cancel;
  t.timer_cancel <- None;
  t.timer_counter <- -1

(* ---- state transitions ---- *)

let bump_to_ballot t bal =
  assert (t.phase <> Externalize_phase);
  let first = t.b = None in
  let got_bumped = match t.b with None -> true | Some b -> b.counter <> bal.counter in
  t.b <- Some bal;
  if got_bumped then begin
    stop_timer t;
    let obs = t.driver.Driver.obs in
    Stellar_obs.Registry.incr t.driver.Driver.metrics.Driver.ballot_bump;
    if Stellar_obs.Sink.tracing obs then
      Stellar_obs.Sink.emit obs
        (Stellar_obs.Event.Ballot_bump { slot = t.slot; counter = bal.counter });
    if first then t.driver.Driver.started_ballot ~slot:t.slot
  end

let update_current_if_needed t h =
  match t.b with
  | Some b when Ballot.compare b h >= 0 -> false
  | _ ->
      bump_to_ballot t h;
      true

(* Update p / p' with a newly accepted-prepared ballot. *)
let set_prepared t bal =
  let did = ref false in
  (match t.p with
  | None ->
      t.p <- Some bal;
      did := true
  | Some p0 ->
      let cmp = Ballot.compare p0 bal in
      if cmp < 0 then begin
        if not (Ballot.compatible p0 bal) then t.p_prime <- Some p0;
        t.p <- Some bal;
        did := true
      end
      else if cmp > 0 && not (Ballot.compatible p0 bal) then begin
        match t.p_prime with
        | Some pp when Ballot.compare bal pp <= 0 -> ()
        | _ ->
            t.p_prime <- Some bal;
            did := true
      end);
  !did

(* ---- the four "attempt" steps of advanceSlot ---- *)

let attempt_accept_prepared t =
  if t.phase = Externalize_phase then false
  else begin
    let cands = prepare_candidates t in
    let try_candidate bal =
      (* Skip candidates that cannot improve p / p'. *)
      let improves =
        match (t.p, t.p_prime) with
        | Some p0, _ when Ballot.compare bal p0 > 0 -> true
        | Some p0, pp ->
            (not (Ballot.compatible bal p0))
            && (match pp with Some pp0 -> Ballot.compare bal pp0 > 0 | None -> true)
        | None, _ -> true
      in
      (* In CONFIRM phase only ballots compatible with the commit value
         matter. *)
      let relevant =
        match t.phase with
        | Confirm_phase -> (
            match t.c with Some c -> Ballot.compatible bal c | None -> true)
        | _ -> true
      in
      if improves && relevant then
        Federation.federated_accept t.index ~local_qset:(t.get_qset ()) t.latest
          ~voted:(votes_prepared bal) ~accepted:(accepts_prepared bal)
      else false
    in
    match List.find_opt try_candidate cands with
    | None -> false
    | Some bal ->
        let did = set_prepared t bal in
        (* Accepting an incompatible higher prepared ballot aborts any
           pending commit votes below it. *)
        let did2 =
          match (t.c, t.h) with
          | Some _, Some h0 ->
              let aborts =
                (match t.p with Some p0 -> Ballot.less_and_incompatible h0 p0 | None -> false)
                || match t.p_prime with
                   | Some pp -> Ballot.less_and_incompatible h0 pp
                   | None -> false
              in
              if aborts then begin
                t.c <- None;
                true
              end
              else false
          | _ -> false
        in
        if did || did2 then sign_and_emit t;
        did || did2
  end

let attempt_confirm_prepared t =
  if t.phase <> Prepare_phase || t.p = None then false
  else begin
    let cands = prepare_candidates t in
    let ratified bal =
      Federation.federated_ratify t.index ~local_qset:(t.get_qset ()) t.latest (accepts_prepared bal)
    in
    let new_h =
      List.find_opt
        (fun bal ->
          (match t.h with Some h0 -> Ballot.compare bal h0 > 0 | None -> true)
          && ratified bal)
        cands
    in
    match new_h with
    | None -> false
    | Some new_h ->
        (* Find the lowest compatible ratified candidate to vote commit on,
           unless an incompatible prepared ballot forbids it. *)
        let new_c =
          if
            t.c = None
            && (match t.p with
               | Some p0 -> not (Ballot.less_and_incompatible new_h p0)
               | None -> true)
            && (match t.p_prime with
               | Some pp -> not (Ballot.less_and_incompatible new_h pp)
               | None -> true)
          then begin
            let compatible_below =
              List.filter
                (fun bal ->
                  Ballot.less_and_compatible bal new_h
                  && (match t.b with Some b -> Ballot.compare bal b >= 0 | None -> true))
                cands
              |> List.sort Ballot.compare (* ascending *)
            in
            List.find_opt ratified compatible_below
          end
          else None
        in
        t.value_override <- Some new_h.value;
        t.h <- Some new_h;
        (match new_c with Some _ -> t.c <- new_c | None -> ());
        let _ = update_current_if_needed t new_h in
        sign_and_emit t;
        true
  end

let attempt_accept_commit t =
  if t.phase = Externalize_phase then false
  else begin
    (* Try every value present in commit-able statements. *)
    let values =
      NM.fold
        (fun _ (vt : Federation.voter) acc ->
          let v =
            match vt.statement.pledge with
            | Prepare p when p.n_c <> 0 -> Some p.ballot.value
            | Confirm c -> Some c.ballot.value
            | Externalize e -> Some e.commit.value
            | _ -> None
          in
          match v with
          | Some v when not (List.mem v acc) -> v :: acc
          | _ -> acc)
        t.latest []
    in
    let try_value value =
      (* In later phases only the committed value may advance. *)
      let ok =
        match t.phase with
        | Confirm_phase -> (
            match t.c with Some c -> String.equal c.value value | None -> true)
        | _ -> true
      in
      if not ok then None
      else begin
        let boundaries = commit_boundaries t value in
        let pred ~lo ~hi =
          Federation.federated_accept t.index ~local_qset:(t.get_qset ()) t.latest
            ~voted:(votes_commit ~value ~lo ~hi)
            ~accepted:(accepts_commit ~value ~lo ~hi)
        in
        match find_extended_interval boundaries pred with
        | Some (lo, hi) -> Some (value, lo, hi)
        | None -> None
      end
    in
    match List.find_map try_value values with
    | None -> false
    | Some (value, lo, hi) ->
        let improves =
          match (t.phase, t.c, t.h) with
          | Prepare_phase, _, _ -> true
          | Confirm_phase, Some c0, Some h0 -> c0.counter <> lo || h0.counter <> hi
          | _ -> true
        in
        if not improves then false
        else begin
          let c = { counter = lo; value } and h = { counter = hi; value } in
          t.c <- Some c;
          t.h <- Some h;
          t.value_override <- Some value;
          if t.phase = Prepare_phase then begin
            t.phase <- Confirm_phase;
            let obs = t.driver.Driver.obs in
            Stellar_obs.Registry.incr t.driver.Driver.metrics.Driver.phase_confirm;
            if Stellar_obs.Sink.tracing obs then
              Stellar_obs.Sink.emit obs (Stellar_obs.Event.Confirm_prepare { slot = t.slot });
            t.p_prime <- None
          end;
          let _ = set_prepared t h in
          (match t.b with
          | Some b when Ballot.less_and_compatible h b -> ()
          | _ -> bump_to_ballot t { counter = max hi (match t.b with Some b -> b.counter | None -> 0); value });
          sign_and_emit t;
          true
        end
  end

let attempt_confirm_commit t =
  if t.phase <> Confirm_phase then false
  else
    match (t.c, t.h) with
    | Some c0, Some _ ->
        let value = c0.value in
        let boundaries = commit_boundaries t value in
        let pred ~lo ~hi =
          Federation.federated_ratify t.index ~local_qset:(t.get_qset ()) t.latest
            (accepts_commit ~value ~lo ~hi)
        in
        (match find_extended_interval boundaries pred with
        | None -> false
        | Some (lo, hi) ->
            t.c <- Some { counter = lo; value };
            t.h <- Some { counter = hi; value };
            t.phase <- Externalize_phase;
            let obs = t.driver.Driver.obs in
            Stellar_obs.Registry.incr t.driver.Driver.metrics.Driver.phase_externalize;
            if Stellar_obs.Sink.tracing obs then
              Stellar_obs.Sink.emit obs (Stellar_obs.Event.Externalize { slot = t.slot });
            stop_timer t;
            sign_and_emit t;
            t.externalized <- Some value;
            t.driver.Driver.value_externalized ~slot:t.slot value;
            true)
    | _ -> false

(* ---- driving ---- *)

(* The ballot timer runs only while a quorum is at or above our counter
   (§3.2.4); when it fires we abandon the ballot for the next counter. *)
let rec check_heard_from_quorum t =
  match t.b with
  | None -> ()
  | Some b ->
      let at_or_above st =
        match statement_ballot_counter st with
        | Some n -> n >= b.counter
        | None -> false
      in
      if Federation.is_quorum t.index ~local_qset:(t.get_qset ()) t.latest at_or_above then begin
        if t.phase <> Externalize_phase && t.timer_counter <> b.counter then begin
          stop_timer t;
          t.timer_counter <- b.counter;
          t.timer_cancel <-
            Some
              (t.driver.Driver.schedule ~delay:(Driver.timeout b.counter) (fun () ->
                   let obs = t.driver.Driver.obs in
                   Stellar_obs.Sink.incr obs "scp.timeout.ballot";
                   if Stellar_obs.Sink.tracing obs then
                     Stellar_obs.Sink.emit obs
                       (Stellar_obs.Event.Timeout_fired { slot = t.slot; kind = `Ballot });
                   abandon t 0))
        end
      end
      else stop_timer t

(* Jump forward when a v-blocking set is strictly ahead (§3.2.4). *)
and attempt_bump t =
  if t.phase = Externalize_phase then false
  else
    match t.b with
    | None -> false
    | Some b ->
        let counters =
          NM.fold
            (fun _ v acc ->
              match statement_ballot_counter v.Federation.statement with
              | Some n when n > b.counter && not (List.mem n acc) -> n :: acc
              | _ -> acc)
            t.latest []
          |> List.sort Int.compare
        in
        let ahead_of n st =
          match statement_ballot_counter st with Some m -> m > n | None -> false
        in
        if
          counters <> []
          && Federation.is_v_blocking_set t.index ~local_qset:(t.get_qset ()) t.latest (ahead_of b.counter)
        then begin
          (* Lowest counter such that the set strictly ahead of it is no
             longer v-blocking. *)
          let target =
            List.find
              (fun n ->
                not (Federation.is_v_blocking_set t.index ~local_qset:(t.get_qset ()) t.latest (ahead_of n)))
              counters
          in
          abandon t target;
          true
        end
        else false

and advance_slot t =
  t.message_level <- t.message_level + 1;
  if t.message_level < 50 then begin
    let did = ref false in
    did := attempt_accept_prepared t || !did;
    did := attempt_confirm_prepared t || !did;
    did := attempt_accept_commit t || !did;
    did := attempt_confirm_commit t || !did;
    if t.message_level = 1 then begin
      let bumped = ref (attempt_bump t) in
      while !bumped do
        bumped := attempt_bump t
      done;
      check_heard_from_quorum t
    end
  end;
  t.message_level <- t.message_level - 1

and bump_state t ~value ~counter =
  if t.phase = Prepare_phase || t.phase = Confirm_phase then begin
    let value = match t.value_override with Some v -> v | None -> value in
    let new_b =
      match t.h with
      | Some h -> { counter; value = h.value }
      | None -> { counter; value }
    in
    bump_to_ballot t new_b;
    sign_and_emit t;
    advance_slot t;
    check_heard_from_quorum t
  end

and abandon t n =
  match t.b with
  | None -> ()
  | Some b ->
      let counter = if n = 0 then b.counter + 1 else n in
      let value =
        match t.value_override with
        | Some v -> v
        | None -> (
            match t.nomination_composite with Some v -> v | None -> b.value)
      in
      bump_state t ~value ~counter

let bump t ~value ~force =
  if t.phase <> Prepare_phase && t.phase <> Confirm_phase then false
  else if (not force) && t.b <> None then false
  else begin
    let counter = match t.b with Some b -> max 1 b.counter | None -> 1 in
    bump_state t ~value ~counter;
    true
  end

(* ---- incoming statements ---- *)

let statement_sane st =
  match st.pledge with
  | Nominate _ -> false
  | Prepare p ->
      let ok_pp =
        match (p.prepared, p.prepared_prime) with
        | _, None -> true
        | None, Some _ -> false
        | Some pr, Some pp ->
            Ballot.compare pp pr < 0 && not (Ballot.compatible pp pr)
      in
      ok_pp
      && p.ballot.counter >= 1
      && (p.n_h = 0 || (match p.prepared with Some pr -> p.n_h <= pr.counter | None -> false))
      && (p.n_c = 0 || (p.n_h <> 0 && p.n_c <= p.n_h && p.n_h <= p.ballot.counter))
  | Confirm c ->
      c.ballot.counter >= 1
      && c.n_h <= c.ballot.counter
      && c.n_commit <= c.n_h
      && c.n_commit >= 1
      && c.n_prepared >= c.n_h
  | Externalize e -> e.commit.counter >= 1 && e.n_h >= e.commit.counter

(* Is [b] a strictly newer ballot-protocol statement than [a]? *)
let newer_statement a b =
  let rank st =
    match st.pledge with
    | Prepare _ -> 0
    | Confirm _ -> 1
    | Externalize _ -> 2
    | Nominate _ -> -1
  in
  let ra = rank a and rb = rank b in
  if ra <> rb then rb > ra
  else
    match (a.pledge, b.pledge) with
    | Prepare pa, Prepare pb ->
        let cmp_opt x y =
          match (x, y) with
          | None, None -> 0
          | None, Some _ -> -1
          | Some _, None -> 1
          | Some bx, Some by -> Ballot.compare bx by
        in
        let c = Ballot.compare pa.ballot pb.ballot in
        if c <> 0 then c < 0
        else
          let c = cmp_opt pa.prepared pb.prepared in
          if c <> 0 then c < 0
          else
            let c = cmp_opt pa.prepared_prime pb.prepared_prime in
            if c <> 0 then c < 0 else pa.n_h < pb.n_h || (pa.n_h = pb.n_h && pa.n_c < pb.n_c)
    | Confirm ca, Confirm cb ->
        let c = Ballot.compare ca.ballot cb.ballot in
        if c <> 0 then c < 0
        else if ca.n_prepared <> cb.n_prepared then ca.n_prepared < cb.n_prepared
        else ca.n_h < cb.n_h || (ca.n_h = cb.n_h && ca.n_commit < cb.n_commit)
    | Externalize _, Externalize _ -> false
    | _ -> false

let process_envelope t (env : envelope) =
  let st = env.statement in
  if not (statement_sane st) then `Invalid
  else begin
    let v = Federation.voter t.index st in
    let fresh =
      match NM.find_opt st.node_id t.latest with
      | None -> true
      | Some old ->
          newer_statement old.statement st
          (* same pledge but reconfigured slices: record the new quorum set
             (compiled sets are equal values exactly when their hashes are) *)
          || (old.statement.pledge = st.pledge && old.qset != v.qset)
    in
    if not fresh then `Stale
    else begin
      t.latest <- NM.add st.node_id v t.latest;
      t.latest_envs <- NM.add st.node_id env t.latest_envs;
      if t.externalized = None then advance_slot t
      else begin
        (* Already externalized: nothing to advance, but keep recording so
           stragglers' quorum checks see us. *)
        ()
      end;
      `Processed
    end
  end

let reevaluate t =
  if t.externalized = None then begin
    (* re-announce our current ballot state so peers learn the new quorum
       set (the statement embeds it, so sign_and_emit sees a change) *)
    sign_and_emit t;
    advance_slot t;
    check_heard_from_quorum t
  end
