type node_id = string

type t = { threshold : int; validators : node_id list; inner : t list }

let member_count_shallow t = List.length t.validators + List.length t.inner

let make ~threshold ?(inner = []) validators =
  let t = { threshold; validators; inner } in
  if threshold < 1 || threshold > member_count_shallow t then
    invalid_arg "Quorum_set.make: threshold out of range";
  t

let singleton v = make ~threshold:1 [ v ]

let majority validators =
  make ~threshold:((List.length validators / 2) + 1) validators

(* stellar-core computes percentage thresholds as 1 + (n*pct - 1)/100. *)
let percent_threshold pct n = 1 + (((n * pct) - 1) / 100)

let rec all_validators_acc t acc =
  let acc = List.fold_left (fun acc v -> v :: acc) acc t.validators in
  List.fold_left (fun acc q -> all_validators_acc q acc) acc t.inner

let all_validators t = List.sort_uniq String.compare (all_validators_acc t [])

let rec is_sane_depth depth t =
  depth <= 4
  && t.threshold >= 1
  && t.threshold <= member_count_shallow t
  && member_count_shallow t >= 1
  && List.for_all (is_sane_depth (depth + 1)) t.inner

let is_sane t =
  let vals = all_validators_acc t [] in
  List.length (List.sort_uniq String.compare vals) = List.length vals
  && is_sane_depth 0 t

(* Both checks count qualifying entries (validators, then inner sets) down
   from the threshold and stop once [need] reaches 0.  They sit under every
   federated vote, so they walk the lists without allocating. *)
let rec is_quorum_slice t in_set = slice_hits in_set t.threshold t.validators t.inner

and slice_hits in_set need vs qs =
  need <= 0
  ||
  match (vs, qs) with
  | v :: vs, _ -> slice_hits in_set (if in_set v then need - 1 else need) vs qs
  | [], q :: qs -> slice_hits in_set (if is_quorum_slice q in_set then need - 1 else need) [] qs
  | [], [] -> false

(* A set blocks [t] iff fewer than [threshold] entries remain unblocked:
   then no slice can avoid the set. *)
let rec is_v_blocking t in_set = not (unblocked_hits in_set t.threshold t.validators t.inner)

and unblocked_hits in_set need vs qs =
  need <= 0
  ||
  match (vs, qs) with
  | v :: vs, _ -> unblocked_hits in_set (if in_set v then need else need - 1) vs qs
  | [], q :: qs -> unblocked_hits in_set (if is_v_blocking q in_set then need else need - 1) [] qs
  | [], [] -> false

let rec weight t node =
  let n = member_count_shallow t in
  let direct = float_of_int t.threshold /. float_of_int n in
  if List.exists (String.equal node) t.validators then direct
  else
    (* take the maximum over inner sets containing the node *)
    List.fold_left
      (fun acc q ->
        let w = weight q node in
        if w > 0.0 then Float.max acc (direct *. w) else acc)
      0.0 t.inner

module Xdr = Stellar_xdr.Xdr

(* Nesting is bounded (stellar-core allows depth 2; we accept a bit more)
   so a malicious envelope cannot force unbounded recursion. *)
let max_depth = 8

let rec write_xdr w depth t =
  if depth > max_depth then raise (Xdr.Error "Quorum_set: nesting too deep");
  Xdr.Writer.uint32 w t.threshold;
  (Xdr.list (Xdr.str ())).Xdr.write w t.validators;
  Xdr.Writer.uint32 w (List.length t.inner);
  List.iter (write_xdr w (depth + 1)) t.inner

let rec read_xdr r depth =
  if depth > max_depth then raise (Xdr.Error "Quorum_set: nesting too deep");
  let threshold = Xdr.Reader.uint32 r in
  let validators = (Xdr.list (Xdr.str ())).Xdr.read r in
  let n_inner = Xdr.Reader.uint32 r in
  if n_inner * 4 > Xdr.Reader.remaining r then
    raise (Xdr.Error "Quorum_set: inner count exceeds buffer");
  let inner = List.init n_inner (fun _ -> read_xdr r (depth + 1)) in
  let t = { threshold; validators; inner } in
  if threshold < 1 || threshold > member_count_shallow t then
    raise (Xdr.Error "Quorum_set: threshold out of range");
  t

let xdr = { Xdr.write = (fun w t -> write_xdr w 0 t); read = (fun r -> read_xdr r 0) }

let encode t = Xdr.encode xdr t
let decode s = Xdr.decode xdr s

(* Every statement a node signs or verifies carries its sender's quorum
   set, and a simulation shares one set value among many nodes.  Sets are
   immutable, so a set's hash never changes: remember the last few hashed
   sets by physical identity ([==]) in a fixed ring, replaced oldest first. *)
let memo_slots = 32
let memo = Array.make memo_slots None
let memo_next = ref 0

let hash t =
  let rec find i =
    if i = memo_slots then None
    else match memo.(i) with Some (q, h) when q == t -> Some h | _ -> find (i + 1)
  in
  match find 0 with
  | Some h -> h
  | None ->
      let h = Stellar_crypto.Sha256.digest (encode t) in
      memo.(!memo_next) <- Some (t, h);
      memo_next := (!memo_next + 1) mod memo_slots;
      h
