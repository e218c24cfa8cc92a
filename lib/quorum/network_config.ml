type node_id = Scp.Quorum_set.node_id

module M = Map.Make (String)

type t = Scp.Quorum_set.t M.t

let of_assoc l = M.of_seq (List.to_seq l)
let nodes t = List.map fst (M.bindings t)
let size t = M.cardinal t
let qset t n = M.find_opt n t
