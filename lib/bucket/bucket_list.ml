type level = { bucket : Bucket.t; fill : int  (* batches absorbed since last spill *) }

type t = { levels : level array; spill_factor : int }

let create ?(levels = 10) ?(spill_factor = 4) () =
  if levels < 1 || spill_factor < 2 then invalid_arg "Bucket_list.create";
  { levels = Array.make levels { bucket = Bucket.empty; fill = 0 }; spill_factor }

let level_count t = Array.length t.levels
let level_bucket t i = t.levels.(i).bucket

let add_batch ?(obs = Stellar_obs.Sink.null) t batch =
  let tracing = Stellar_obs.Sink.tracing obs in
  let levels = Array.copy t.levels in
  let nlevels = Array.length levels in
  (* Merge the new batch into level 0. *)
  levels.(0) <-
    { bucket = Bucket.merge_batch batch ~older:levels.(0).bucket; fill = levels.(0).fill + 1 };
  Stellar_obs.Sink.incr obs "bucket.merge";
  if tracing then
    Stellar_obs.Sink.emit obs
      (Stellar_obs.Event.Bucket_merge { level = 0; entries = Bucket.size levels.(0).bucket });
  (* Cascade spills: a full level pushes its whole bucket down. *)
  let rec spill i =
    if i < nlevels - 1 && levels.(i).fill >= t.spill_factor then begin
      let bottom = i + 1 = nlevels - 1 in
      levels.(i + 1) <-
        {
          bucket =
            Bucket.merge ~newer:levels.(i).bucket ~older:levels.(i + 1).bucket
              ~keep_tombstones:(not bottom);
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
  let t = { t with levels } in
  Stellar_obs.Sink.set_gauge obs "bucket.entries"
    (float_of_int (Array.fold_left (fun acc l -> acc + Bucket.size l.bucket) 0 levels));
  t

let hash t =
  let ctx = Stellar_crypto.Sha256.init () in
  Array.iter (fun l -> Stellar_crypto.Sha256.update ctx (Bucket.hash l.bucket)) t.levels;
  Stellar_crypto.Sha256.final ctx

let level_sizes t = Array.to_list (Array.map (fun l -> Bucket.size l.bucket) t.levels)
let total_entries t = Array.fold_left (fun acc l -> acc + Bucket.size l.bucket) 0 t.levels

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
  let n = max (level_count a) (level_count b) in
  let bucket_hash t i =
    if i < level_count t then Bucket.hash (level_bucket t i) else Bucket.hash Bucket.empty
  in
  List.filter
    (fun i -> not (String.equal (bucket_hash a i) (bucket_hash b i)))
    (List.init n Fun.id)

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
