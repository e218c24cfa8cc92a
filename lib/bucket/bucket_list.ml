type level = { bucket : Bucket.t; fill : int  (* batches absorbed since last spill *) }

type t = { levels : level array; spill_factor : int }

let create ?(levels = 10) ?(spill_factor = 4) () =
  if levels < 1 || spill_factor < 2 then invalid_arg "Bucket_list.create";
  { levels = Array.make levels { bucket = Bucket.empty; fill = 0 }; spill_factor }

let add_batch_merges t batch =
  let levels = Array.copy t.levels in
  let nlevels = Array.length levels in
  let merged i bucket =
    levels.(i) <- { bucket; fill = levels.(i).fill + 1 };
    (i, Bucket.size bucket)
  in
  (* Merge the new batch into level 0. *)
  let first = merged 0 (Bucket.merge_batch batch ~older:levels.(0).bucket) in
  (* Cascade spills: a full level pushes its whole bucket down. *)
  let rec spill i =
    if i < nlevels - 1 && levels.(i).fill >= t.spill_factor then begin
      let keep_tombstones = i + 1 < nlevels - 1 in
      let newer = levels.(i).bucket and older = levels.(i + 1).bucket in
      levels.(i) <- { bucket = Bucket.empty; fill = 0 };
      let m = merged (i + 1) (Bucket.merge ~newer ~older ~keep_tombstones) in
      m :: spill (i + 1)
    end
    else []
  in
  let spills = spill 0 in
  ({ t with levels }, first :: spills)

let add_batch t batch = fst (add_batch_merges t batch)

let observe obs t merges =
  List.iteri
    (fun i (level, entries) ->
      Stellar_obs.Sink.incr obs (if i = 0 then "bucket.merge" else "bucket.spill");
      if Stellar_obs.Sink.tracing obs then
        Stellar_obs.Sink.emit obs (Stellar_obs.Event.Bucket_merge { level; entries }))
    merges;
  Stellar_obs.Sink.set_gauge obs "bucket.entries"
    (float_of_int (Array.fold_left (fun acc l -> acc + Bucket.size l.bucket) 0 t.levels))

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

let live_entries t = Bucket.live_view (Array.to_list (Array.map (fun l -> l.bucket) t.levels))

let diff_levels a b =
  let count t = Array.length t.levels in
  let bucket_hash t i =
    if i < count t then Bucket.hash t.levels.(i).bucket else Bucket.hash Bucket.empty
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
      { levels = Array.of_list levels; spill_factor })
    Xdr.(pair uint32 (list ~max:64 level_xdr))

(* The state visits its entries in strict key order: the bottom bucket's
   run is filled from its maps directly, never listed or sorted. *)
let of_state state =
  let items =
    Array.make (Stellar_ledger.State.entry_count state)
      { Bucket.key = Stellar_ledger.Entry.Offer_key 0; entry = None }
  in
  let i = ref 0 in
  Stellar_ledger.State.iter_entries
    (fun e ->
      items.(!i) <- { Bucket.key = Stellar_ledger.Entry.key_of_entry e; entry = Some e };
      incr i)
    state;
  let t = create () in
  let levels = Array.copy t.levels in
  let bottom = Array.length levels - 1 in
  levels.(bottom) <- { bucket = Bucket.of_sorted items; fill = 0 };
  { t with levels }
