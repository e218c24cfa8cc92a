open Stellar_ledger

type route = {
  send_asset : Asset.t;
  send_amount : int;
  path : Asset.t list;
  hops : int;
}

(* Cost of buying [amount] of [get] with [give] at current books, without
   mutating state; [None] if the book is too thin. *)
let estimate_cost state ~give ~get ~amount =
  if Asset.equal give get then Some amount
  else
    match Exchange.cross state ~give_asset:give ~get_asset:get ~want_get:amount () with
    | Ok outcome when outcome.Exchange.got >= amount -> Some outcome.Exchange.paid
    | Ok _ | Error _ -> None

(* Assets with a resting book selling [get]: the possible previous hops. *)
let feeders state ~get =
  State.all_entries state
  |> List.filter_map (fun e ->
         match e with
         | Entry.Offer_entry o when Asset.equal o.Entry.selling get -> Some o.Entry.buying
         | _ -> None)
  |> List.sort_uniq Asset.compare

let find state ~source_assets ~dest_asset ~dest_amount ?(max_hops = 5) () =
  (* Backward breadth-first search from the destination asset; each frontier
     entry knows how much of [asset] must be acquired and the chain of
     intermediate assets already planned after it. *)
  let results = ref [] in
  let record asset need inner hops =
    if List.exists (Asset.equal asset) source_assets then
      results := { send_asset = asset; send_amount = need; path = inner; hops } :: !results
  in
  let rec explore frontier hops =
    if hops < max_hops then begin
      let next =
        List.concat_map
          (fun (asset, need, inner, seen) ->
            List.filter_map
              (fun prev ->
                if List.exists (Asset.equal prev) seen then None
                else
                  match estimate_cost state ~give:prev ~get:asset ~amount:need with
                  | Some cost ->
                      let inner' = if Asset.equal asset dest_asset then inner else asset :: inner in
                      record prev cost inner' (hops + 1);
                      Some (prev, cost, inner', prev :: seen)
                  | None -> None)
              (feeders state ~get:asset))
          frontier
      in
      if next <> [] then explore next (hops + 1)
    end
  in
  (* direct delivery (same asset, no conversion) *)
  record dest_asset dest_amount [] 0;
  explore [ (dest_asset, dest_amount, [], [ dest_asset ]) ] 0;
  List.sort
    (fun a b ->
      let c = Int.compare a.send_amount b.send_amount in
      if c <> 0 then c else Int.compare a.hops b.hops)
    !results
