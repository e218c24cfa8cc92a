type level = { bucket : Bucket.t; fill : int  (* batches absorbed since last spill *) }

(* A finished merge, keyed by its exact inputs: level 0's older bucket and
   the batch merged into it, or a spill's two buckets and whether it keeps
   tombstones.  [cpu_s] is what computing it took. *)
type merge_key =
  | Batch of string * Bucket.item list  (* hash of the older bucket, batch *)
  | Spill of string * string * bool  (* hash newer, hash older, keep_tombstones *)

type finished = { key : merge_key; result : Bucket.t; cpu_s : float }

(* The last [memo_capacity] merges, overwritten oldest first.  One memo
   serves every list grown from the same [create], [of_state] or decoded
   list, so validators that close the same ledger in one process merge and
   hash it once. *)
type memo = { ring : finished option array; mutable next : int }

let memo_capacity = 64

type t = {
  levels : level array;
  spill_factor : int;
  memo : memo;
  merge_s : float;  (* merge seconds charged to the add_batch that made this list *)
}

let fresh levels spill_factor =
  { levels; spill_factor; memo = { ring = Array.make memo_capacity None; next = 0 }; merge_s = 0.0 }

let create ?(levels = 10) ?(spill_factor = 4) () =
  if levels < 1 || spill_factor < 2 then invalid_arg "Bucket_list.create";
  fresh (Array.make levels { bucket = Bucket.empty; fill = 0 }) spill_factor

let level_bucket t i = t.levels.(i).bucket
let merge_s t = t.merge_s

let same_key a b =
  match (a, b) with
  | Batch (h1, b1), Batch (h2, b2) -> String.equal h1 h2 && b1 = b2
  | Spill (n1, o1, k1), Spill (n2, o2, k2) -> String.equal n1 n2 && String.equal o1 o2 && k1 = k2
  | _ -> false

(* The merge [key] names, from the memo or computed by [f] and recorded;
   either way [charge] receives its seconds. *)
let memoized memo key ~charge f =
  match Array.find_opt (function Some m -> same_key m.key key | None -> false) memo.ring with
  | Some (Some m) ->
      charge m.cpu_s;
      m.result
  | _ ->
      let cpu0 = Sys.time () in
      let result = f () in
      let cpu_s = Sys.time () -. cpu0 in
      memo.ring.(memo.next) <- Some { key; result; cpu_s };
      memo.next <- (memo.next + 1) mod memo_capacity;
      charge cpu_s;
      result

let add_batch ?(obs = Stellar_obs.Sink.null) t batch =
  let tracing = Stellar_obs.Sink.tracing obs in
  let levels = Array.copy t.levels in
  let nlevels = Array.length levels in
  let merge_s = ref 0.0 in
  let charge s = merge_s := !merge_s +. s in
  (* Merge the new batch into level 0. *)
  let older = levels.(0).bucket in
  levels.(0) <-
    {
      bucket =
        memoized t.memo (Batch (Bucket.hash older, batch)) ~charge (fun () ->
            Bucket.merge_batch batch ~older);
      fill = levels.(0).fill + 1;
    };
  Stellar_obs.Sink.incr obs "bucket.merge";
  if tracing then
    Stellar_obs.Sink.emit obs
      (Stellar_obs.Event.Bucket_merge { level = 0; entries = Bucket.size levels.(0).bucket });
  (* Cascade spills: a full level pushes its whole bucket down. *)
  let rec spill i =
    if i < nlevels - 1 && levels.(i).fill >= t.spill_factor then begin
      let keep_tombstones = i + 1 < nlevels - 1 in
      let newer = levels.(i).bucket and older = levels.(i + 1).bucket in
      levels.(i + 1) <-
        {
          bucket =
            memoized t.memo
              (Spill (Bucket.hash newer, Bucket.hash older, keep_tombstones))
              ~charge
              (fun () -> Bucket.merge ~newer ~older ~keep_tombstones);
          fill = levels.(i + 1).fill + 1;
        };
      levels.(i) <- { bucket = Bucket.empty; fill = 0 };
      Stellar_obs.Sink.incr obs "bucket.spill";
      if tracing then
        Stellar_obs.Sink.emit obs
          (Stellar_obs.Event.Bucket_merge
             { level = i + 1; entries = Bucket.size levels.(i + 1).bucket });
      spill (i + 1)
    end
  in
  spill 0;
  Stellar_obs.Sink.set_gauge obs "bucket.entries"
    (float_of_int (Array.fold_left (fun acc l -> acc + Bucket.size l.bucket) 0 levels));
  { t with levels; merge_s = !merge_s }

let hash t =
  let ctx = Stellar_crypto.Sha256.init () in
  Array.iter (fun l -> Stellar_crypto.Sha256.update ctx (Bucket.hash l.bucket)) t.levels;
  Stellar_crypto.Sha256.final ctx

let level_sizes t = Array.to_list (Array.map (fun l -> Bucket.size l.bucket) t.levels)

let find t key =
  let rec go i =
    if i >= Array.length t.levels then None
    else
      match Bucket.find t.levels.(i).bucket key with
      | Some item -> Some item
      | None -> go (i + 1)
  in
  go 0

let live_entries t =
  (* Merge all levels newest-first, then keep live entries. *)
  let merged =
    Array.fold_left
      (fun acc l -> Bucket.merge ~newer:acc ~older:l.bucket ~keep_tombstones:false)
      Bucket.empty t.levels
  in
  Bucket.live_entries merged

let diff_levels a b =
  let count t = Array.length t.levels in
  let bucket_hash t i =
    if i < count t then Bucket.hash (level_bucket t i) else Bucket.hash Bucket.empty
  in
  List.filter
    (fun i -> not (String.equal (bucket_hash a i) (bucket_hash b i)))
    (List.init (max (count a) (count b)) Fun.id)

module Xdr = Stellar_xdr.Xdr

let level_xdr =
  Xdr.conv
    (fun l -> (l.bucket, l.fill))
    (fun (bucket, fill) -> { bucket; fill })
    Xdr.(pair Bucket.xdr uint32)

let xdr =
  Xdr.conv
    (fun t -> (t.spill_factor, Array.to_list t.levels))
    (fun (spill_factor, levels) ->
      if spill_factor < 2 || levels = [] then raise (Xdr.Error "Bucket_list: bad shape");
      fresh (Array.of_list levels) spill_factor)
    Xdr.(pair uint32 (list ~max:64 level_xdr))

let of_state state =
  let t = create () in
  let items =
    List.map
      (fun e -> { Bucket.key = Stellar_ledger.Entry.key_of_entry e; entry = Some e })
      (Stellar_ledger.State.all_entries state)
  in
  let levels = Array.copy t.levels in
  let bottom = Array.length levels - 1 in
  levels.(bottom) <- { bucket = Bucket.of_items items; fill = 0 };
  { t with levels }
