type node_id = Scp.Quorum_set.node_id

module M = Map.Make (String)
module S = Set.Make (String)

type t = Scp.Quorum_set.t M.t

let of_assoc l = M.of_seq (List.to_seq l)
let nodes t = List.map fst (M.bindings t)
let size t = M.cardinal t
let qset t n = M.find_opt n t

let transitive_closure t start =
  let rec go visited = function
    | [] -> visited
    | n :: rest ->
        if S.mem n visited then go visited rest
        else
          let visited = S.add n visited in
          let next =
            match M.find_opt n t with
            | Some q -> Scp.Quorum_set.all_validators q
            | None -> []
          in
          go visited (next @ rest)
  in
  S.elements (go S.empty [ start ])

let greatest_quorum t set =
  let rec shrink set =
    let in_set = S.of_list set in
    let keep n =
      match M.find_opt n t with
      | Some q -> Scp.Quorum_set.is_quorum_slice q (fun v -> S.mem v in_set)
      | None -> false
    in
    let set' = List.filter keep set in
    if List.length set' = List.length set then set else shrink set'
  in
  shrink set
