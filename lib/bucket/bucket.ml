open Stellar_ledger

type item = { key : Entry.key; entry : Entry.entry option }

type t = { items : item array; hash : string }

module Xdr = Stellar_xdr.Xdr

let item_xdr =
  Xdr.conv
    (fun it -> (it.key, it.entry))
    (fun (key, entry) -> { key; entry })
    Xdr.(pair Entry.key_xdr (option Entry.entry_xdr))

(* The items' encodings run through one streaming writer into the hash,
   so no item's bytes, let alone the run's, are ever held whole. *)
let compute_hash items =
  if Array.length items = 0 then Stellar_crypto.Sha256.digest "empty-bucket"
  else begin
    let ctx = Stellar_crypto.Sha256.init () in
    let w = Xdr.Writer.to_sink (Stellar_crypto.Sha256.update_sub ctx) in
    Array.iter (item_xdr.Xdr.write w) items;
    Xdr.Writer.flush w;
    Stellar_crypto.Sha256.final ctx
  end

let empty = { items = [||]; hash = compute_hash [||] }
let is_empty t = Array.length t.items = 0
let size t = Array.length t.items

let strictly_sorted arr =
  let rec from i =
    i >= Array.length arr || (Entry.compare_key arr.(i - 1).key arr.(i).key < 0 && from (i + 1))
  in
  from 1

(* Sorted by key; of equal keys only the one latest in [list] is kept.  A
   list already in strict key order (a ledger's dirty keys) is taken as it
   is. *)
let sort_dedup list =
  let arr = Array.of_list list in
  if strictly_sorted arr then arr
  else begin
    Array.stable_sort (fun a b -> Entry.compare_key a.key b.key) arr;
    let n = Array.length arr in
    (* Compact in place: [arr.(i)] survives if the next item has another key. *)
    let k = ref 0 in
    for i = 0 to n - 1 do
      if i = n - 1 || Entry.compare_key arr.(i).key arr.(i + 1).key <> 0 then begin
        arr.(!k) <- arr.(i);
        incr k
      end
    done;
    if !k = n then arr else Array.sub arr 0 !k
  end

let of_items list =
  let arr = sort_dedup list in
  { items = arr; hash = compute_hash arr }

let of_sorted arr =
  if not (strictly_sorted arr) then invalid_arg "Bucket.of_sorted: keys not strictly increasing";
  { items = arr; hash = compute_hash arr }

let items t = Array.to_list t.items
let hash t = t.hash

let find t key =
  let lo = ref 0 and hi = ref (Array.length t.items - 1) in
  let found = ref None in
  while !found = None && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let c = Entry.compare_key t.items.(mid).key key in
    if c = 0 then found := Some t.items.(mid)
    else if c < 0 then lo := mid + 1
    else hi := mid - 1
  done;
  !found

(* Merge-join of two sorted runs; on equal keys [newer] shadows [older].
   The merged run is not hashed: [merge_runs] hashes it into a bucket, and
   [live_view] needs only its items. *)
let merge_items newer older ~keep_tombstones =
  let n = Array.length newer and m = Array.length older in
  if n + m = 0 then [||]
  else begin
    let out = Array.make (n + m) (if n > 0 then newer.(0) else older.(0)) in
    let k = ref 0 in
    let push it =
      if it.entry <> None || keep_tombstones then begin
        out.(!k) <- it;
        incr k
      end
    in
    let i = ref 0 and j = ref 0 in
    while !i < n || !j < m do
      if !i >= n then begin
        push older.(!j);
        incr j
      end
      else if !j >= m then begin
        push newer.(!i);
        incr i
      end
      else begin
        let c = Entry.compare_key newer.(!i).key older.(!j).key in
        if c < 0 then begin
          push newer.(!i);
          incr i
        end
        else if c > 0 then begin
          push older.(!j);
          incr j
        end
        else begin
          push newer.(!i);
          incr i;
          incr j
        end
      end
    done;
    if !k = n + m then out else Array.sub out 0 !k
  end

let merge_runs newer older ~keep_tombstones =
  let arr = merge_items newer older ~keep_tombstones in
  { items = arr; hash = compute_hash arr }

(* While tombstones are kept, merging with an empty run changes nothing. *)
let merge ~newer ~older ~keep_tombstones =
  if keep_tombstones && is_empty older then newer
  else if keep_tombstones && is_empty newer then older
  else merge_runs newer.items older.items ~keep_tombstones

let merge_batch list ~older = merge_runs (sort_dedup list) older.items ~keep_tombstones:true

(* Every merge keeps its tombstones, so a deletion shadows each older
   version of its key, however deep; only the merged run drops them. *)
let live_view buckets =
  let merged =
    List.fold_left
      (fun acc b ->
        if is_empty b then acc
        else if Array.length acc = 0 then b.items
        else merge_items acc b.items ~keep_tombstones:true)
      [||] buckets
  in
  Array.fold_right (fun it acc -> match it.entry with Some e -> e :: acc | None -> acc) merged []

(* Items are written in their canonical sorted order, so decoding rebuilds
   the identical array (and hash) without re-sorting.  Any other order, or
   a repeated key, is no bucket's encoding: it would break [merge_runs]'s
   sorted-run precondition, so it is rejected. *)
let xdr =
  Xdr.conv
    (fun t -> Array.to_list t.items)
    (fun items ->
      let arr = Array.of_list items in
      if not (strictly_sorted arr) then raise (Xdr.Error "Bucket: keys not strictly increasing");
      { items = arr; hash = compute_hash arr })
    (Xdr.list item_xdr)
