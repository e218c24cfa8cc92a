module SS = Set.Make (String)
module IS = Set.Make (Int)

type msg =
  | Request of string
  | Preprepare of { view : int; seq : int; value : string }
  | Prepare of { view : int; seq : int; digest : string; node : int }
  | Commit of { view : int; seq : int; digest : string; node : int }
  | View_change of { new_view : int; node : int }

let msg_size = function
  | Request v -> 64 + String.length v
  | Preprepare p -> 96 + String.length p.value
  | Prepare _ | Commit _ -> 112
  | View_change _ -> 80

type replica = {
  index : int;
  mutable view : int;
  mutable last_seq : int;  (* as primary *)
  log : (int * int, string) Hashtbl.t;  (* (view, seq) -> value *)
  prepares : (int * int * string, IS.t) Hashtbl.t;
  commits : (int * int * string, IS.t) Hashtbl.t;
  mutable decided : (int * string) list;  (* newest first *)
  decided_seqs : (int, unit) Hashtbl.t;
  mutable pending : SS.t;  (* client values not yet decided *)
  pending_values : (string, string) Hashtbl.t;  (* digest -> value *)
  view_changes : (int, IS.t) Hashtbl.t;
  mutable timer : (unit -> unit) option;
}

type cluster = {
  engine : Stellar_sim.Engine.t;
  net : msg Stellar_sim.Network.t;
  replicas : replica array;
  f : int;
  view_timeout : float;
  on_decide : seq:int -> string -> unit;
}

let digest v = Stellar_crypto.Sha256.digest v
let primary_of c view = view mod Array.length c.replicas

(* highest view any live replica has adopted *)
let view c =
  Array.fold_left
    (fun acc (r : replica) ->
      if Stellar_sim.Network.is_down c.net r.index then acc else max acc r.view)
    0 c.replicas

let primary c = primary_of c (view c)

let message_count c =
  Array.fold_left
    (fun acc (r : replica) ->
      acc
      + Stellar_obs.Registry.counter_value
          (Stellar_sim.Network.registry c.net r.index)
          "overlay.msgs.sent")
    0 c.replicas

let decided c i = List.rev c.replicas.(i).decided

let broadcast c src m =
  for j = 0 to Array.length c.replicas - 1 do
    if j <> src then Stellar_sim.Network.send c.net ~src ~dst:j ~size:(msg_size m) m
  done

let cancel_timer r =
  Option.iter (fun f -> f ()) r.timer;
  r.timer <- None

(* polymorphic in the key type, so it must live outside the rec group *)
let add_vote tbl key node =
  let set = Option.value ~default:IS.empty (Hashtbl.find_opt tbl key) in
  let set = IS.add node set in
  Hashtbl.replace tbl key set;
  IS.cardinal set

let rec arm_timer c r =
  cancel_timer r;
  let t = Stellar_sim.Engine.schedule c.engine ~delay:c.view_timeout (fun () -> on_timeout c r) in
  r.timer <- Some (fun () -> Stellar_sim.Engine.cancel t)

and on_timeout c r =
  (* progress stalled with pending requests: ask for a view change *)
  if not (SS.is_empty r.pending) then begin
    let new_view = r.view + 1 in
    let m = View_change { new_view; node = r.index } in
    broadcast c r.index m;
    handle c r.index m ~src:r.index;
    arm_timer c r
  end

and propose_pending c r =
  (* the (new) primary proposes every undecided client value *)
  if primary_of c r.view = r.index then
    SS.iter
      (fun d ->
        match Hashtbl.find_opt r.pending_values d with
        | Some value ->
            r.last_seq <- r.last_seq + 1;
            let m = Preprepare { view = r.view; seq = r.last_seq; value } in
            broadcast c r.index m;
            handle c r.index m ~src:r.index
        | None -> ())
      r.pending

and handle c i m ~src =
  let r = c.replicas.(i) in
  ignore src;
  match m with
  | Request value ->
      let d = digest value in
      if not (Hashtbl.mem r.pending_values d) then begin
        Hashtbl.replace r.pending_values d value;
        r.pending <- SS.add d r.pending;
        if r.timer = None then arm_timer c r
      end;
      if primary_of c r.view = i then propose_pending c r
  | Preprepare { view; seq; value } ->
      if view = r.view && not (Hashtbl.mem r.log (view, seq)) then begin
        Hashtbl.replace r.log (view, seq) value;
        let d = digest value in
        (* remember the value in case we become primary later *)
        if not (Hashtbl.mem r.pending_values d) then begin
          Hashtbl.replace r.pending_values d value;
          r.pending <- SS.add d r.pending
        end;
        let pm = Prepare { view; seq; digest = d; node = i } in
        broadcast c i pm;
        handle c i pm ~src:i
      end
  | Prepare { view; seq; digest = d; node } ->
      if view = r.view then begin
        let count = add_vote r.prepares (view, seq, d) node in
        (* 2f prepares + the pre-prepare = prepared certificate *)
        if count = 2 * c.f && Hashtbl.mem r.log (view, seq) then begin
          let cm = Commit { view; seq; digest = d; node = i } in
          broadcast c i cm;
          handle c i cm ~src:i
        end
      end
  | Commit { view; seq; digest = d; node } ->
      let count = add_vote r.commits (view, seq, d) node in
      if count = (2 * c.f) + 1 && not (Hashtbl.mem r.decided_seqs seq) then begin
        match Hashtbl.find_opt r.log (view, seq) with
        | Some value when String.equal (digest value) d ->
            Hashtbl.replace r.decided_seqs seq ();
            r.decided <- (seq, value) :: r.decided;
            r.pending <- SS.remove d r.pending;
            if SS.is_empty r.pending then cancel_timer r else arm_timer c r;
            c.on_decide ~seq value
        | _ -> ()
      end
  | View_change { new_view; node } ->
      if new_view > r.view then begin
        let count = add_vote r.view_changes new_view node in
        if count >= (2 * c.f) + 1 then begin
          r.view <- new_view;
          propose_pending c r
        end
      end

let create ~engine ~rng ~n ~latency ?(view_timeout = 3.0) ~on_decide () =
  if n < 4 then invalid_arg "Pbft.create: need n >= 4";
  let net = Stellar_sim.Network.create ~engine ~rng ~n ~latency () in
  let replicas =
    Array.init n (fun index ->
        {
          index;
          view = 0;
          last_seq = 0;
          log = Hashtbl.create 64;
          prepares = Hashtbl.create 64;
          commits = Hashtbl.create 64;
          decided = [];
          decided_seqs = Hashtbl.create 64;
          pending = SS.empty;
          pending_values = Hashtbl.create 64;
          view_changes = Hashtbl.create 8;
          timer = None;
        })
  in
  let c = { engine; net; replicas; f = (n - 1) / 3; view_timeout; on_decide } in
  Array.iteri
    (fun i _ -> Stellar_sim.Network.set_handler net i (fun ~src ~info:_ m -> handle c i m ~src))
    replicas;
  c

let propose c value =
  (* a client sends the request to every replica; the primary proposes,
     backups start their timers *)
  Array.iteri
    (fun i _ ->
      if not (Stellar_sim.Network.is_down c.net i) then handle c i (Request value) ~src:i)
    c.replicas

let crash c i = Stellar_sim.Network.set_down c.net i true
