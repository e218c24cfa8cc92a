module S = Set.Make (String)

type result =
  | Intersecting
  | Disjoint of Network_config.node_id list * Network_config.node_id list
  | No_quorum

(* Quorum predicates "modulo" a byzantine set: byzantine nodes complete
   anyone's slice for free but never count as quorum members themselves. *)
let slice_ok config byz set n =
  match Network_config.qset config n with
  | Some q -> Scp.Quorum_set.is_quorum_slice q (fun v -> S.mem v set || S.mem v byz)
  | None -> false

let greatest_quorum config byz set =
  let rec shrink set =
    let set' = S.filter (slice_ok config byz set) set in
    if S.cardinal set' = S.cardinal set then set else shrink set'
  in
  shrink set

let is_quorum config byz set = (not (S.is_empty set)) && S.equal (greatest_quorum config byz set) set

(* Two disjoint quorums exist iff some quorum's complement still contains a
   quorum.  The search fixes one node [v0] per outer round and enumerates
   only quorums containing [v0] (pairs avoiding [v0] entirely are found in a
   later round on the reduced universe, as in stellar-core's checker), with
   two prunes: a branch dies when its committed nodes can no longer be
   completed into a quorum, or when the complement of the committed nodes
   can no longer contain the partner quorum.  [explored] counts the
   branch-and-bound nodes visited. *)
let check_counted ?(byzantine = []) config =
  let explored = ref 0 in
  let byz = S.of_list byzantine in
  let all = S.diff (S.of_list (Network_config.nodes config)) byz in
  if S.is_empty (greatest_quorum config byz all) then (No_quorum, 0)
  else begin
    let exception Found of S.t * S.t in
    let rec outer universe =
      let top = greatest_quorum config byz universe in
      if S.is_empty top then ()
      else begin
        let v0 = S.min_elt top in
        let rec bb in_set out_set =
          incr explored;
          let avail = S.diff top out_set in
          let gq = greatest_quorum config byz avail in
          if not (S.subset in_set gq) then ()
          else begin
            (* the partner quorum must avoid every committed node *)
            let partner = greatest_quorum config byz (S.diff top in_set) in
            if S.is_empty partner then ()
            else if is_quorum config byz in_set then raise (Found (in_set, partner))
            else begin
              let candidates = S.diff gq in_set in
              if not (S.is_empty candidates) then begin
                (* branch on a node referenced by the committed set's quorum
                   sets; they must eventually be satisfied from within *)
                let referenced =
                  S.fold
                    (fun n acc ->
                      match Network_config.qset config n with
                      | Some q ->
                          List.fold_left
                            (fun acc v -> if S.mem v candidates then S.add v acc else acc)
                            acc
                            (Scp.Quorum_set.all_validators q)
                      | None -> acc)
                    in_set S.empty
                in
                let pick =
                  match S.min_elt_opt referenced with
                  | Some v -> v
                  | None -> S.min_elt candidates
                in
                bb (S.add pick in_set) out_set;
                bb in_set (S.add pick out_set)
              end
            end
          end
        in
        bb (S.singleton v0) S.empty;
        outer (S.remove v0 universe)
      end
    in
    let result =
      try
        outer all;
        Intersecting
      with Found (a, b) -> Disjoint (S.elements a, S.elements b)
    in
    (result, !explored)
  end

let check ?byzantine config = fst (check_counted ?byzantine config)
