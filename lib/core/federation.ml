module Node_map = Map.Make (String)

(* A quorum set over node numbers: the same tree as [Quorum_set.t], with
   each validator replaced by its number in the slot's index. *)
type shape = { threshold : int; members : int array; inner : shape array }

type qset = { shape : shape; sane : bool }

type index = {
  ids : (Types.node_id, int) Hashtbl.t;
  sets : (string, qset) Hashtbl.t;  (* keyed by [Quorum_set.hash] *)
}

let create_index () = { ids = Hashtbl.create 16; sets = Hashtbl.create 4 }
let size t = Hashtbl.length t.ids

let node t id =
  match Hashtbl.find_opt t.ids id with
  | Some i -> i
  | None ->
      let i = Hashtbl.length t.ids in
      Hashtbl.add t.ids id i;
      i

let rec shape t (q : Quorum_set.t) =
  {
    threshold = q.threshold;
    members = Array.of_list (List.map (node t) q.validators);
    inner = Array.of_list (List.map (shape t) q.inner);
  }

let compile t q =
  let h = Quorum_set.hash q in
  match Hashtbl.find_opt t.sets h with
  | Some c -> c
  | None ->
      let c = { shape = shape t q; sane = Quorum_set.is_sane q } in
      Hashtbl.add t.sets h c;
      c

let sane c = c.sane

type voter = { statement : Types.statement; node : int; qset : qset }

let voter t (st : Types.statement) =
  { statement = st; node = node t st.node_id; qset = compile t st.quorum_set }

type statements = voter Node_map.t

(* [Quorum_set.is_quorum_slice] / [is_v_blocking] over a membership array.
   Entry [i] counts the validators first, then the inner sets; each walk
   stops as soon as its answer is known. *)
let rec is_slice mem s = slice_hits mem s s.threshold 0

and slice_hits mem s need i =
  let nm = Array.length s.members in
  need <= 0
  || need <= nm + Array.length s.inner - i
     &&
     if i < nm then slice_hits mem s (if mem.(s.members.(i)) then need - 1 else need) (i + 1)
     else slice_hits mem s (if is_slice mem s.inner.(i - nm) then need - 1 else need) (i + 1)

(* A set blocks [s] iff fewer than [threshold] entries remain unblocked. *)
let rec is_blocking mem s = not (unblocked_hits mem s s.threshold 0)

and unblocked_hits mem s need i =
  let nm = Array.length s.members in
  need <= 0
  || need <= nm + Array.length s.inner - i
     &&
     if i < nm then unblocked_hits mem s (if mem.(s.members.(i)) then need else need - 1) (i + 1)
     else unblocked_hits mem s (if is_blocking mem s.inner.(i - nm) then need else need - 1) (i + 1)

(* Membership of the nodes whose statement satisfies [pred], evaluated once
   per node.  Compiling the local set first keeps every number it uses in
   range. *)
let members t ~local_qset statements pred =
  let local = compile t local_qset in
  let mem = Array.make (Hashtbl.length t.ids) false in
  Node_map.iter (fun _ v -> if pred v.statement then mem.(v.node) <- true) statements;
  (local, mem)

(* Greatest fixpoint: shrink [mem] by dropping the nodes whose quorum set has
   no slice within it, until a whole pass drops nothing.  A node's verdict
   depends only on its quorum set, so each pass checks every distinct set
   once and drops all nodes carrying a failed set together; the greatest
   fixpoint does not depend on removal order, so the result is exact. *)
let shrink statements mem =
  let rec pass () =
    let passed = ref [] and dropped = ref false in
    Node_map.iter
      (fun _ v ->
        let q = v.qset in
        if mem.(v.node) && not (List.memq q !passed) then
          if is_slice mem q.shape then passed := q :: !passed
          else begin
            Node_map.iter (fun _ w -> if w.qset == q then mem.(w.node) <- false) statements;
            dropped := true
          end)
      statements;
    if !dropped then pass ()
  in
  pass ()

let is_quorum t ~local_qset statements pred =
  let local, mem = members t ~local_qset statements pred in
  shrink statements mem;
  is_slice mem local.shape

let is_v_blocking_set t ~local_qset statements pred =
  let local, mem = members t ~local_qset statements pred in
  is_blocking mem local.shape

let federated_accept t ~local_qset statements ~voted ~accepted =
  let local, mem = members t ~local_qset statements accepted in
  is_blocking mem local.shape
  || begin
       Node_map.iter
         (fun _ v -> if (not mem.(v.node)) && voted v.statement then mem.(v.node) <- true)
         statements;
       shrink statements mem;
       is_slice mem local.shape
     end

let federated_ratify = is_quorum
