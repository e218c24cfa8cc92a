module Node_map = Map.Make (String)

type statements = Types.statement Node_map.t

(* Greatest fixpoint: start from all nodes whose statement satisfies [pred]
   and drop nodes whose quorum set has no slice within the remaining set
   until a whole pass drops nothing.  A node's verdict depends only on its
   quorum set, so each pass checks every physically distinct set once and
   drops all nodes carrying a failed set together; the greatest fixpoint
   does not depend on removal order, so the result is exact.  Membership is
   read straight from [statements] and [pred]: a node is in the set iff its
   statement satisfies [pred] and its quorum set has not failed. *)
let is_quorum ~local_qset statements pred =
  let failed = ref [] in
  let in_set v =
    match Node_map.find_opt v statements with
    | Some st -> pred st && not (List.memq st.Types.quorum_set !failed)
    | None -> false
  in
  let rec shrink () =
    let passed = ref [] and dropped = ref false in
    Node_map.iter
      (fun _ st ->
        let q = st.Types.quorum_set in
        if pred st && not (List.memq q !passed || List.memq q !failed) then
          if Quorum_set.is_quorum_slice q in_set then passed := q :: !passed
          else begin
            failed := q :: !failed;
            dropped := true
          end)
      statements;
    if !dropped then shrink ()
  in
  shrink ();
  Quorum_set.is_quorum_slice local_qset in_set

let is_v_blocking_set ~local_qset statements pred =
  let in_set v =
    match Node_map.find_opt v statements with Some st -> pred st | None -> false
  in
  Quorum_set.is_v_blocking local_qset in_set

let federated_accept ~local_qset statements ~voted ~accepted =
  is_v_blocking_set ~local_qset statements accepted
  || is_quorum ~local_qset statements (fun st -> voted st || accepted st)

let federated_ratify ~local_qset statements pred =
  is_quorum ~local_qset statements pred
