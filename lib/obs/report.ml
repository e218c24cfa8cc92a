type phases = {
  slot : int;
  nomination_s : float;
  ballot_s : float;
  apply_s : float;
  total_s : float;
}

(* Deterministic model of tx-set application cost, used for the phase
   breakdown so that trace-derived reports are reproducible bit-for-bit
   (real CPU time is not).  Calibrated to the measured in-memory apply
   times: ~0.2 ms fixed + ~20 us per operation.  Real CPU time still flows
   into the "ledger.apply_ms" histogram via the herder. *)
let apply_cost ~ops = 0.0002 +. (2.0e-5 *. float_of_int ops)

(* ---- slot milestones: the one per-slot index every report reads ---- *)

(* When one node first reached each milestone of one slot. *)
type milestones = {
  m_node : int;
  mutable nominated : float option;  (* Nominate_start *)
  mutable balloted : float option;  (* Ballot_bump *)
  mutable externalized : (float * int) option;  (* Externalize: time, seq *)
  mutable applied : (float * int * int) option;  (* Apply_end: time, seq, ops *)
}

(* One walk: slot -> the milestones of each node that reached one, only
   [node]'s when given. *)
let milestones ?node trace =
  let by_slot : (int, milestones list) Hashtbl.t = Hashtbl.create 64 in
  let get m_node slot =
    let l = Option.value ~default:[] (Hashtbl.find_opt by_slot slot) in
    match List.find_opt (fun m -> m.m_node = m_node) l with
    | Some m -> m
    | None ->
        let m = { m_node; nominated = None; balloted = None; externalized = None; applied = None } in
        Hashtbl.replace by_slot slot (m :: l);
        m
  in
  let wanted n = match node with None -> true | Some node -> n = node in
  Trace.iter trace (fun s ->
      let t = s.Trace.time and n = s.Trace.node in
      match s.Trace.event with
      | Event.Nominate_start { slot } when wanted n ->
          let m = get n slot in
          if m.nominated = None then m.nominated <- Some t
      | Event.Ballot_bump { slot; _ } when wanted n ->
          let m = get n slot in
          if m.balloted = None then m.balloted <- Some t
      | Event.Externalize { slot } when wanted n ->
          let m = get n slot in
          if m.externalized = None then m.externalized <- Some (t, s.Trace.seq)
      | Event.Apply_end { slot; ops; _ } when wanted n ->
          let m = get n slot in
          if m.applied = None then m.applied <- Some (t, s.Trace.seq, ops)
      | _ -> ());
  by_slot

(* [node]'s milestones, by slot. *)
let node_milestones node trace =
  Hashtbl.fold
    (fun slot l acc -> List.fold_left (fun acc m -> (slot, m) :: acc) acc l)
    (milestones ~node trace) []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let slot_phases ?(node = 0) trace =
  List.filter_map
    (fun (slot, m) ->
      match (m.nominated, m.externalized) with
      | Some t0, Some (t2, _) ->
          let t1 = Option.value ~default:t2 m.balloted in
          let apply_s = apply_cost ~ops:(match m.applied with Some (_, _, ops) -> ops | None -> 0) in
          Some
            {
              slot;
              nomination_s = Float.max 0.0 (t1 -. t0);
              ballot_s = Float.max 0.0 (t2 -. t1);
              apply_s;
              total_s = Float.max 0.0 (t2 -. t0) +. apply_s;
            }
      | _ -> None)
    (node_milestones node trace)

(* Nearest-rank on index [q * (n-1)] of a sorted, non-empty array. *)
let rank sorted q =
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (q *. float_of_int (n - 1)))))

let sorted_array values =
  let arr = Array.of_list values in
  Array.sort Float.compare arr;
  arr

type quantiles = { n : int; mean : float; p50 : float; p75 : float; p99 : float; max : float }

let quantiles values =
  match values with
  | [] -> { n = 0; mean = 0.0; p50 = 0.0; p75 = 0.0; p99 = 0.0; max = 0.0 }
  | _ ->
      let sorted = sorted_array values in
      let n = Array.length sorted in
      (* summed in input order: the BENCH_*.json means depend on it *)
      let sum = List.fold_left ( +. ) 0.0 values in
      {
        n;
        mean = sum /. float_of_int n;
        p50 = rank sorted 0.50;
        p75 = rank sorted 0.75;
        p99 = rank sorted 0.99;
        max = sorted.(n - 1);
      }

type breakdown = {
  n_slots : int;
  nomination : quantiles;
  ballot : quantiles;
  apply : quantiles;
  total : quantiles;
}

let breakdown ?node trace =
  let ph = slot_phases ?node trace in
  let f sel = quantiles (List.map sel ph) in
  {
    n_slots = List.length ph;
    nomination = f (fun p -> p.nomination_s);
    ballot = f (fun p -> p.ballot_s);
    apply = f (fun p -> p.apply_s);
    total = f (fun p -> p.total_s);
  }

(* ---- flood amplification (per node) ---- *)

type flood = {
  sent_copies : int;
  received : int;
  dup_dropped : int;
  dup_bytes : int;
  amplification : float;
}

let flood_stats c =
  List.init (Collector.n_nodes c) (fun node ->
      let count = Registry.counter_value (Collector.registry c node) in
      let sent_copies = count "flood.forwarded" and received = count "flood.unique" in
      let dup_dropped = count "flood.dup_dropped" and dup_bytes = count "flood.dup_bytes" in
      let amplification =
        float_of_int (received + dup_dropped) /. float_of_int (max 1 received)
      in
      (node, { sent_copies; received; dup_dropped; dup_bytes; amplification }))
  |> List.filter (fun (_, f) -> f.sent_copies + f.received + f.dup_dropped > 0)

(* ---- causal DAG: critical path to externalization ---- *)

type hop = {
  msg_id : int;
  hop_src : int;
  hop_dst : int;
  hop_kind : string;
  sent_at : float;
  recv_at : float;
  hop_network_s : float;
  hop_cpu_s : float;
}

type critical_path = {
  cp_slot : int;
  cp_node : int;
  t_start : float;
  t_externalize : float;
  hops : hop list;
  network_s : float;
  timer_s : float;
  cpu_s : float;
  cp_total_s : float;
}

(* Per-delivery view of a Flood_recv, indexed for the backward walk. *)
type recv_ix = { r_seq : int; r_time : float; r_send : int; r_link : float; r_kind : string }

type send_ix = { s_seq : int; s_time : float; s_node : int }

let causal_index trace =
  let sends : (int, send_ix) Hashtbl.t = Hashtbl.create 1024 in
  let recvs_by_node : (int, recv_ix list ref) Hashtbl.t = Hashtbl.create 64 in
  Trace.iter trace (fun s ->
      match s.Trace.event with
      | Event.Flood_send { msg_id; _ } ->
          if not (Hashtbl.mem sends msg_id) then
            Hashtbl.add sends msg_id
              { s_seq = s.Trace.seq; s_time = s.Trace.time; s_node = s.Trace.node }
      | Event.Flood_recv { send_id; link_s; kind; _ } ->
          let l =
            match Hashtbl.find_opt recvs_by_node s.Trace.node with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add recvs_by_node s.Trace.node l;
                l
          in
          l :=
            { r_seq = s.Trace.seq; r_time = s.Trace.time; r_send = send_id; r_link = link_s; r_kind = kind }
            :: !l
      | _ -> ());
  (* recvs arrive in ascending seq; keep them as arrays for binary search *)
  let recv_arrays : (int, recv_ix array) Hashtbl.t = Hashtbl.create 64 in
  Hashtbl.iter
    (fun node l -> Hashtbl.add recv_arrays node (Array.of_list (List.rev !l)))
    recvs_by_node;
  (sends, recv_arrays)

(* Latest Flood_recv at [node] with seq < [before] (binary search on the
   seq-ascending per-node array). *)
let latest_recv_before recv_arrays node ~before =
  match Hashtbl.find_opt recv_arrays node with
  | None -> None
  | Some arr ->
      let n = Array.length arr in
      if n = 0 || arr.(0).r_seq >= before then None
      else begin
        (* invariant: arr.(lo).r_seq < before <= arr.(hi).r_seq *)
        let lo = ref 0 and hi = ref n in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if arr.(mid).r_seq < before then lo := mid else hi := mid
        done;
        Some arr.(!lo)
      end

(* Walk the message chain backwards from the externalize event: the latest
   delivery before an event at a node is (by the synchronous handler
   discipline) the message whose processing produced it; its send_id names
   the exact Flood_send on the upstream node, where the walk continues.
   Every interval of [t_start, t_externalize] is attributed to exactly one
   of {network, timer, cpu}, and all segment endpoints are shared, so the
   three sums telescope to (t_externalize - t_start) up to float rounding —
   the ±1 µs accounting identity the tests pin. *)
let walk_critical_path (sends, recv_arrays) ~node ~slot ~t0 ~ext_time ~ext_seq =
  let network = ref 0.0 and timer = ref 0.0 and cpu = ref 0.0 in
  let hops = ref [] in
  let clip x = Float.max t0 x in
  let rec walk cur_node cur_time cur_seq budget =
    if cur_time > t0 && budget > 0 then
      match latest_recv_before recv_arrays cur_node ~before:cur_seq with
      | None ->
          (* origin of the chain: local activity back to nomination start *)
          timer := !timer +. (cur_time -. t0)
      | Some r ->
          (* local gap at cur_node between the delivery and the event it
             eventually produced: the node was waiting on protocol timers *)
          timer := !timer +. (cur_time -. clip r.r_time);
          if r.r_time > t0 then begin
            match Hashtbl.find_opt sends r.r_send with
            | None ->
                (* untagged send (e.g. a harness message): attribute the
                   remainder to timer so the identity still holds *)
                timer := !timer +. (r.r_time -. t0)
            | Some s ->
                (* hop: [s_time, s_time+link] on the wire, the rest is the
                   receiver's modeled CPU (queue wait + processing) *)
                let mid = clip (Float.min r.r_time (s.s_time +. r.r_link)) in
                let sstart = clip s.s_time in
                cpu := !cpu +. (r.r_time -. mid);
                network := !network +. (mid -. sstart);
                hops :=
                  {
                    msg_id = r.r_send;
                    hop_src = s.s_node;
                    hop_dst = cur_node;
                    hop_kind = r.r_kind;
                    sent_at = s.s_time;
                    recv_at = r.r_time;
                    hop_network_s = mid -. sstart;
                    hop_cpu_s = r.r_time -. mid;
                  }
                  :: !hops;
                walk s.s_node s.s_time s.s_seq (budget - 1)
          end
  in
  walk node ext_time ext_seq 1_000_000;
  {
    cp_slot = slot;
    cp_node = node;
    t_start = t0;
    t_externalize = ext_time;
    hops = !hops;
    network_s = !network;
    timer_s = !timer;
    cpu_s = !cpu;
    cp_total_s = ext_time -. t0;
  }

let critical_paths ?(node = 0) trace =
  let ix = causal_index trace in
  List.filter_map
    (fun (slot, m) ->
      match (m.nominated, m.externalized) with
      | Some t0, Some (ext_time, ext_seq) when ext_time >= t0 ->
          Some (walk_critical_path ix ~node ~slot ~t0 ~ext_time ~ext_seq)
      | _ -> None)
    (node_milestones node trace)

(* ---- transaction lifecycle (per tx hash) ---- *)

type tx_life = {
  tx : string;
  submitted : float option;
  externalized : (int * float) option;
  dropped : bool;
}

(* Keyed by the events' raw tx hash; each tx is hex-encoded once, when its
   record is made. *)
let tx_lives trace =
  let acc : (string, int * tx_life ref) Hashtbl.t = Hashtbl.create 1024 in
  let get tx seq =
    match Hashtbl.find_opt acc tx with
    | Some (_, l) -> l
    | None ->
        let l =
          ref { tx = Event.hex tx; submitted = None; externalized = None; dropped = false }
        in
        Hashtbl.add acc tx (seq, l);
        l
  in
  Trace.iter trace (fun s ->
      let t = s.Trace.time and seq = s.Trace.seq in
      match s.Trace.event with
      | Event.Tx_submit { tx } ->
          let l = get tx seq in
          if !l.submitted = None then l := { !l with submitted = Some t }
      | Event.Tx_applied { tx; slot; _ } ->
          let l = get tx seq in
          if !l.externalized = None then l := { !l with externalized = Some (slot, t) }
      | Event.Tx_dropped { tx; _ } ->
          let l = get tx seq in
          l := { !l with dropped = true }
      | _ -> ());
  Hashtbl.fold (fun _ (seq, l) acc -> (seq, !l) :: acc) acc []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

(* ---- end-to-end payment latency (§7.3's headline figure) ---- *)

type e2e = {
  n_submitted : int;
  n_externalized : int;
  n_applied : int;
  n_dropped : int;
  submit_to_externalize : quantiles;
  submit_to_apply : quantiles;
}

let e2e_latency trace =
  (* a slot's first close, by any node, gives the apply model its op count *)
  let ms = milestones trace in
  let first_close_ops slot =
    match
      List.filter_map (fun m -> m.applied) (Option.value ~default:[] (Hashtbl.find_opt ms slot))
      |> List.sort (fun (_, a, _) (_, b, _) -> Int.compare a b)
    with
    | (_, _, ops) :: _ -> ops
    | [] -> 0
  in
  let lives = tx_lives trace in
  let submitted = List.filter (fun l -> l.submitted <> None) lives in
  let ext_lat = ref [] and apply_lat = ref [] in
  let n_externalized = ref 0 and n_dropped = ref 0 in
  List.iter
    (fun l ->
      if l.dropped then incr n_dropped;
      match (l.submitted, l.externalized) with
      | Some t_sub, Some (slot, t_ext) ->
          incr n_externalized;
          ext_lat := (t_ext -. t_sub) :: !ext_lat;
          let ops = first_close_ops slot in
          apply_lat := (t_ext -. t_sub +. apply_cost ~ops) :: !apply_lat
      | _ -> ())
    submitted;
  {
    n_submitted = List.length submitted;
    n_externalized = !n_externalized;
    n_applied = !n_externalized;
    n_dropped = !n_dropped;
    submit_to_externalize = quantiles (List.rev !ext_lat);
    submit_to_apply = quantiles (List.rev !apply_lat);
  }

(* ---- fault recovery (crash → restart → catchup → back in sync) ---- *)

type recovery = {
  rec_node : int;
  t_crash : float;
  t_restart : float;
  catchup_from : int;  (** checkpoint seq the restart bootstrapped from *)
  catchup_to : int;  (** archive tip reached by replay *)
  replayed : int;
  t_resync : float option;
  recover_s : float option;
}

type heal_report = {
  t_split : float;
  t_heal : float;
  lagged : (int * float option) list;
  heal_recover_s : float option;
}

(* A node is "back in sync" at the first slot it closes no later than
   [interval/2] after the fastest *other* node: old slots closed from
   straggler help close long after the network did and fail this test, while the first
   live slot closes with the crowd (normal spread is milliseconds).  A close
   is a node's first [Apply_end] of the slot; catch-up replays through no
   traced close, so a replayed ledger is not one. *)
let first_in_sync by_slot ~interval ~node ~after =
  let candidates =
    Hashtbl.fold
      (fun _slot l acc ->
        let closes =
          List.filter_map (fun m -> Option.map (fun (t, _, _) -> (m.m_node, t)) m.applied) l
        in
        match List.assoc_opt node closes with
        | Some t_n when t_n >= after -> (
            match
              List.filter_map (fun (m, t) -> if m <> node then Some t else None) closes
            with
            | [] -> acc
            | others ->
                let t_min = List.fold_left Float.min (List.hd others) others in
                if t_n -. t_min <= interval /. 2.0 then t_n :: acc else acc)
        | _ -> acc)
      by_slot []
  in
  match candidates with [] -> None | t :: rest -> Some (List.fold_left Float.min t rest)

let recoveries ?(interval = 5.0) trace =
  let by_slot = milestones trace in
  (* per-node fault timelines, in trace order *)
  let crashes : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let restarts : (int, float list ref) Hashtbl.t = Hashtbl.create 8 in
  let catchups : (int, (float * int * int * int) list ref) Hashtbl.t = Hashtbl.create 8 in
  let push tbl node v =
    match Hashtbl.find_opt tbl node with
    | Some l -> l := v :: !l
    | None -> Hashtbl.add tbl node (ref [ v ])
  in
  Trace.iter trace (fun s ->
      match s.Trace.event with
      | Event.Node_crash -> push crashes s.Trace.node s.Trace.time
      | Event.Node_restart -> push restarts s.Trace.node s.Trace.time
      | Event.Catchup_done { from_seq; to_seq; replayed } ->
          push catchups s.Trace.node (s.Trace.time, from_seq, to_seq, replayed)
      | _ -> ());
  let nodes =
    Hashtbl.fold (fun n _ acc -> n :: acc) crashes [] |> List.sort_uniq Int.compare
  in
  List.concat_map
    (fun node ->
      let get tbl = match Hashtbl.find_opt tbl node with Some l -> List.rev !l | None -> [] in
      let cs = get crashes and rs = get restarts and cus = get catchups in
      (* pair the i-th crash with the i-th restart (Fault.validate enforces
         the alternation) *)
      List.mapi
        (fun i t_crash ->
          match List.nth_opt rs i with
          | None ->
              {
                rec_node = node;
                t_crash;
                t_restart = nan;
                catchup_from = 0;
                catchup_to = 0;
                replayed = 0;
                t_resync = None;
                recover_s = None;
              }
          | Some t_restart ->
              let catchup_from, catchup_to, replayed =
                match
                  List.find_opt (fun (t, _, _, _) -> t >= t_restart -. 1e-9) cus
                with
                | Some (_, f, upto, n) -> (f, upto, n)
                | None -> (0, 0, 0)
              in
              let t_resync = first_in_sync by_slot ~interval ~node ~after:t_restart in
              {
                rec_node = node;
                t_crash;
                t_restart;
                catchup_from;
                catchup_to;
                replayed;
                t_resync;
                recover_s = Option.map (fun t -> t -. t_restart) t_resync;
              })
        cs)
    nodes

let heals ?(interval = 5.0) trace =
  let by_slot = milestones trace in
  (* pair each Partition_begin with the next Partition_heal *)
  let out = ref [] in
  let open_split = ref None in
  Trace.iter trace (fun s ->
      match s.Trace.event with
      | Event.Partition_begin { groups } -> open_split := Some (s.Trace.time, groups)
      | Event.Partition_heal -> (
          match !open_split with
          | None -> ()
          | Some (t_split, groups) ->
              open_split := None;
              (* the majority group keeps externalizing; everyone else lags *)
              let counts = Hashtbl.create 4 in
              List.iter
                (fun g ->
                  Hashtbl.replace counts g (1 + Option.value ~default:0 (Hashtbl.find_opt counts g)))
                groups;
              let majority, _ =
                Hashtbl.fold
                  (fun g c ((bg, bc) as best) ->
                    if c > bc || (c = bc && g < bg) then (g, c) else best)
                  counts (min_int, 0)
              in
              let t_heal = s.Trace.time in
              let lagged =
                List.mapi (fun node g -> (node, g)) groups
                |> List.filter (fun (_, g) -> g <> majority)
                |> List.map (fun (node, _) ->
                       ( node,
                         Option.map
                           (fun t -> t -. t_heal)
                           (first_in_sync by_slot ~interval ~node ~after:t_heal) ))
              in
              let heal_recover_s =
                if lagged = [] || List.exists (fun (_, d) -> d = None) lagged then None
                else
                  Some
                    (List.fold_left
                       (fun acc (_, d) -> Float.max acc (Option.get d))
                       0.0 lagged)
              in
              out := { t_split; t_heal; lagged; heal_recover_s } :: !out)
      | _ -> ());
  List.rev !out

(* ---- JSON fragments (deterministic formatting) ---- *)

let ms s = s *. 1000.0

let quantiles_json q =
  Printf.sprintf {|{"n":%d,"mean_ms":%.6f,"p50_ms":%.6f,"p99_ms":%.6f,"max_ms":%.6f}|}
    q.n (ms q.mean) (ms q.p50) (ms q.p99) (ms q.max)

let breakdown_json b =
  Printf.sprintf
    {|{"slots":%d,"nomination":%s,"ballot":%s,"apply":%s,"total":%s}|}
    b.n_slots (quantiles_json b.nomination) (quantiles_json b.ballot)
    (quantiles_json b.apply) (quantiles_json b.total)

let phases_json ph =
  let one p =
    Printf.sprintf
      {|{"slot":%d,"nomination_ms":%.6f,"ballot_ms":%.6f,"apply_ms":%.6f,"total_ms":%.6f}|}
      p.slot (ms p.nomination_s) (ms p.ballot_s) (ms p.apply_s) (ms p.total_s)
  in
  "[" ^ String.concat "," (List.map one ph) ^ "]"

let flood_json fl =
  let one (node, f) =
    Printf.sprintf
      {|{"node":%d,"sent_copies":%d,"received":%d,"dup_dropped":%d,"dup_bytes":%d,"amplification":%.6f}|}
      node f.sent_copies f.received f.dup_dropped f.dup_bytes f.amplification
  in
  "[" ^ String.concat "," (List.map one fl) ^ "]"

let critical_paths_json cps =
  let one cp =
    Printf.sprintf
      {|{"slot":%d,"hops":%d,"network_ms":%.6f,"timer_ms":%.6f,"cpu_ms":%.6f,"total_ms":%.6f}|}
      cp.cp_slot (List.length cp.hops) (ms cp.network_s) (ms cp.timer_s) (ms cp.cpu_s)
      (ms cp.cp_total_s)
  in
  "[" ^ String.concat "," (List.map one cps) ^ "]"

let e2e_json e =
  Printf.sprintf
    {|{"submitted":%d,"externalized":%d,"applied":%d,"dropped":%d,"submit_to_externalize":%s,"submit_to_apply":%s}|}
    e.n_submitted e.n_externalized e.n_applied e.n_dropped
    (quantiles_json e.submit_to_externalize)
    (quantiles_json e.submit_to_apply)

let float_opt_json = function None -> "null" | Some v -> Printf.sprintf "%.6f" v

let recoveries_json rs =
  let one r =
    Printf.sprintf
      {|{"node":%d,"t_crash":%.6f,"t_restart":%.6f,"catchup_from":%d,"catchup_to":%d,"replayed":%d,"t_resync":%s,"recover_s":%s}|}
      r.rec_node r.t_crash r.t_restart r.catchup_from r.catchup_to r.replayed
      (float_opt_json r.t_resync)
      (float_opt_json r.recover_s)
  in
  let sorted =
    List.sort
      (fun a b ->
        match compare a.rec_node b.rec_node with
        | 0 -> compare a.t_crash b.t_crash
        | c -> c)
      rs
  in
  "[" ^ String.concat "," (List.map one sorted) ^ "]"

let heals_json hs =
  let one h =
    let lagged =
      List.sort (fun (a, _) (b, _) -> compare a b) h.lagged
      |> List.map (fun (node, d) ->
             Printf.sprintf {|{"node":%d,"recover_s":%s}|} node (float_opt_json d))
    in
    Printf.sprintf {|{"t_split":%.6f,"t_heal":%.6f,"lagged":[%s],"recover_s":%s}|}
      h.t_split h.t_heal (String.concat "," lagged)
      (float_opt_json h.heal_recover_s)
  in
  "[" ^ String.concat "," (List.map one hs) ^ "]"
