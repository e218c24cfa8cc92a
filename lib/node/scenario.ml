open Stellar_ledger

type params = {
  spec : Topology.spec;
  n_accounts : int;
  tx_rate : float;
  duration : float;
  latency : Stellar_sim.Latency.t;
  seed : int;
  ledger_interval : float;
  observe : bool;
  faults : Fault.schedule;
}

let default ~spec =
  {
    spec;
    n_accounts = 1_000;
    tx_rate = 20.0;
    duration = 60.0;
    latency = Stellar_sim.Latency.datacenter;
    seed = 1;
    ledger_interval = 5.0;
    observe = false;
    faults = [];
  }

let warmup_ledgers = 2

(* A receiver's CPU per message: envelope verification (~100 us) plus
   deserialization at 1 Gbps. *)
let processing size = 0.0001 +. (float_of_int size *. 8.0 /. 1e9)

module Report = Stellar_obs.Report
module Registry = Stellar_obs.Registry

type report = {
  ledgers_closed : int;
  nomination : Report.quantiles;
  balloting : Report.quantiles;
  apply : Report.quantiles;
  total : Report.quantiles;
  close_interval : Report.quantiles;
  txs_per_ledger : Report.quantiles;
  txs_submitted : int;
  txs_applied : int;
  nomination_timeouts_per_ledger : Report.quantiles;
  ballot_timeouts_per_ledger : Report.quantiles;
  envelopes_per_ledger : float;
  msgs_per_second_per_node : float;
  bytes_in_total : int;
  bytes_out_total : int;
  bytes_in_per_second : float;
  bytes_out_per_second : float;
  diverged : bool;
  chains : (int * string list) list;
  converged : bool;
  wall_seconds : float;
  final_ledger_seq : int;
  telemetry : Stellar_obs.Collector.t option;
}

(* What the report reads of each of node 0's closes: numbers only, so the
   log holds no ledger's tx set or bucket list for the whole run. *)
type closed = {
  close_time : int;
  tx_count : int;
  nomination_s : float;
  balloting_s : float;
  apply_s : float;
  total_s : float;
}

let scheme =
  (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string)

let agree agreed header =
  let seq = header.Header.ledger_seq and h = Header.hash header in
  match Hashtbl.find_opt agreed seq with
  | None ->
      Hashtbl.add agreed seq h;
      `First
  | Some h' -> if String.equal h h' then `Agrees else `Conflicts

let run p =
  (match Fault.validate ~n_nodes:p.spec.Topology.n_nodes p.faults with
  | Ok () -> ()
  | Error e -> failwith ("Scenario: invalid fault schedule: " ^ e));
  let wall0 = Unix.gettimeofday () in
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:p.seed in
  (* Metrics are always collected; [observe] only attaches the trace. *)
  let collector =
    Stellar_obs.Collector.create ~tracing:p.observe ~n:p.spec.Topology.n_nodes
      ~now:(fun () -> Stellar_sim.Engine.now engine)
  in
  let sim_sink = Stellar_obs.Collector.sim_sink collector in
  Stellar_sim.Engine.set_obs engine sim_sink;
  let network =
    Stellar_sim.Network.create ~engine ~rng ~n:p.spec.Topology.n_nodes ~latency:p.latency
      ~processing
      ~obs:(Stellar_obs.Collector.sink collector)
      ()
  in
  let genesis, accounts = Genesis.make ~n_accounts:p.n_accounts () in
  let shared_buckets = Stellar_bucket.Bucket_list.of_state genesis in
  (* validators on one state close each ledger once between them, and
     check each flooded envelope's signature once *)
  let memo = Stellar_herder.Herder.memo () in
  (* per-ledger stats from node 0, plus node 0's timeouts during each
     ledger as deltas of its scp.timeout.* counters *)
  let reg0 = Stellar_obs.Collector.registry collector 0 in
  let timeouts () =
    ( Registry.counter_value reg0 "scp.timeout.nomination",
      Registry.counter_value reg0 "scp.timeout.ballot" )
  in
  let ledger_log = ref [] in
  let last_timeouts = ref (0, 0) in
  let timeouts_per_ledger = ref [] in
  (* Fault runs keep a history archive of the first close of each ledger,
     by whichever node closes it first, so a restarted validator, or a
     running one left behind, has a §5.4 checkpoint to catch up from.  A
     short checkpoint frequency keeps the replay tail small at simulation
     scale. *)
  let archive =
    if p.faults = [] then None
    else Some (Stellar_archive.Archive.create ~checkpoint_frequency:4 ())
  in
  (* Agreement, checked online at every close of every node: the first
     close of a seq fills the table and goes into the archive, and every
     later close of it must match.  A restarted node's replayed ledgers
     need no entry of their own: catch-up accepts a ledger only when it
     rebuilds the archived header, which is that first close. *)
  let agreed = Hashtbl.create 64 in
  let diverged = ref false in
  let check_agreement (stats : Stellar_herder.Herder.ledger_stats) =
    match agree agreed stats.header with
    | `First ->
        Option.iter
          (fun a ->
            Stellar_archive.Archive.record_ledger a ~header:stats.header ~value:stats.value
              ~tx_set:stats.tx_set ~buckets:stats.buckets)
          archive
    | `Agrees -> ()
    | `Conflicts -> diverged := true
  in
  let validators =
    Array.init p.spec.Topology.n_nodes (fun i ->
        let config =
          {
            (Stellar_herder.Herder.default_config ~seed:(p.spec.Topology.validator_seed i)
               ~qset:(p.spec.Topology.qset_of i))
            with
            Stellar_herder.Herder.is_validator = p.spec.Topology.is_validator i;
            ledger_interval = p.ledger_interval;
          }
        in
        let on_ledger_closed (stats : Stellar_herder.Herder.ledger_stats) =
          check_agreement stats;
          if i = 0 then begin
            ledger_log :=
              {
                close_time = stats.header.Header.close_time;
                tx_count = Stellar_herder.Tx_set.tx_count stats.tx_set;
                nomination_s = stats.nomination_s;
                balloting_s = stats.balloting_s;
                apply_s = stats.apply_s;
                total_s = stats.total_s;
              }
              :: !ledger_log;
            let ((nom, ballot) as counts) = timeouts () in
            let nom0, ballot0 = !last_timeouts in
            timeouts_per_ledger := (nom - nom0, ballot - ballot0) :: !timeouts_per_ledger;
            last_timeouts := counts
          end
        in
        Validator.create ~network ~index:i ~peers:(p.spec.Topology.peers_of i) ~config
          ~genesis ~buckets:shared_buckets ?archive ~memo ~on_ledger_closed
          ~obs:(Stellar_obs.Collector.sink collector i)
          ())
  in
  Array.iter Validator.start validators;
  (* ---- fault schedule interpretation ---- *)
  List.iter
    (fun ev ->
      let at delay f = ignore (Stellar_sim.Engine.schedule engine ~delay f) in
      match ev with
      | Fault.Crash { node; at = t } -> at t (fun () -> Validator.crash validators.(node))
      | Fault.Restart { node; at = t } ->
          at t (fun () -> Validator.restart validators.(node))
      | Fault.Partition { at = t; groups } ->
          at t (fun () ->
              let arr = Array.make p.spec.Topology.n_nodes 0 in
              List.iter (fun (node, g) -> arr.(node) <- g) groups;
              Stellar_sim.Network.set_partition network (fun i -> arr.(i));
              if Stellar_obs.Sink.tracing sim_sink then
                Stellar_obs.Sink.emit sim_sink
                  (Stellar_obs.Event.Partition_begin { groups = Array.to_list arr }))
      | Fault.Heal { at = t } ->
          at t (fun () ->
              Stellar_sim.Network.set_partition network (fun _ -> 0);
              Stellar_obs.Sink.emit sim_sink Stellar_obs.Event.Partition_heal)
      | Fault.Loss { rate; from_; until_ } ->
          at from_ (fun () -> Stellar_sim.Network.set_loss_rate network rate);
          at until_ (fun () -> Stellar_sim.Network.set_loss_rate network 0.0)
      | Fault.Reflood { node; at = t; copies } ->
          at t (fun () -> Validator.reflood validators.(node) ~copies))
    p.faults;
  (* ---- load generation: Poisson arrivals of single-payment txs ---- *)
  let seqs = Array.make (max 1 (Array.length accounts)) 0 in
  let submitted = ref 0 in
  let validator_indices =
    List.filter p.spec.Topology.is_validator (List.init p.spec.Topology.n_nodes Fun.id)
    |> Array.of_list
  in
  let next_account = ref 0 in
  let submit_one () =
    if Array.length accounts >= 2 then begin
      let src_i = !next_account mod Array.length accounts in
      next_account := !next_account + 1;
      let dst_i = Stellar_sim.Rng.int rng (Array.length accounts) in
      let dst_i = if dst_i = src_i then (dst_i + 1) mod Array.length accounts else dst_i in
      let src = accounts.(src_i) and dst = accounts.(dst_i) in
      seqs.(src_i) <- seqs.(src_i) + 1;
      let tx =
        Tx.make ~source:src.Genesis.public ~seq_num:seqs.(src_i)
          [
            Tx.op
              (Tx.Payment
                 { destination = dst.Genesis.public; asset = Asset.native; amount = 1000 });
          ]
      in
      let signed = Tx.sign tx ~secret:src.Genesis.secret ~public:src.Genesis.public ~scheme in
      let target = Stellar_sim.Rng.pick rng validator_indices in
      Validator.submit_tx validators.(target) signed;
      incr submitted
    end
  in
  let rec arrival () =
    if Stellar_sim.Engine.now engine < p.duration && p.tx_rate > 0.0 then begin
      submit_one ();
      let gap = Stellar_sim.Rng.exponential rng ~mean:(1.0 /. p.tx_rate) in
      ignore (Stellar_sim.Engine.schedule engine ~delay:gap arrival)
    end
  in
  if p.tx_rate > 0.0 then ignore (Stellar_sim.Engine.schedule engine ~delay:0.1 arrival);
  (* run under load, then drain a few more ledgers *)
  Stellar_sim.Engine.run ~until:(p.duration +. (4.0 *. p.ledger_interval)) engine;
  Array.iter Validator.stop validators;
  (* ---- collect ---- *)
  let stats = List.rev !ledger_log in
  let t_per_ledger = List.rev !timeouts_per_ledger in
  let drop_warmup l = if List.length l > warmup_ledgers then
      List.filteri (fun i _ -> i >= warmup_ledgers) l
    else l
  in
  let stats' = drop_warmup stats in
  let t_per_ledger' = drop_warmup t_per_ledger in
  let fl f = List.map f stats' in
  let close_intervals =
    let rec go = function
      | a :: (b :: _ as rest) ->
          float_of_int (b.close_time - a.close_time) :: go rest
      | _ -> []
    in
    go stats'
  in
  let txs_applied =
    List.fold_left (fun acc s -> acc + s.tx_count) 0 stats
  in
  let virtual_elapsed = Stellar_sim.Engine.now engine in
  let per_second n = if virtual_elapsed > 0.0 then float_of_int n /. virtual_elapsed else 0.0 in
  let msgs_sent = Registry.counter_value reg0 "overlay.msgs.sent" in
  let bytes_sent = Registry.counter_value reg0 "overlay.bytes.sent" in
  let bytes_received = Registry.counter_value reg0 "overlay.bytes.received" in
  let n_ledgers_all = List.length stats in
  (* logical envelopes per ledger: count envelope floods originated by
     node 0 (its own emissions) per closed ledger *)
  let envelopes_per_ledger =
    if n_ledgers_all = 0 then 0.0
    else
      float_of_int (Registry.counter_value reg0 "flood.own_envelopes")
      /. float_of_int n_ledgers_all
  in
  (* per-validator agreed header hashes up to its tip, oldest first, as hex *)
  let first_seq = State.ledger_seq genesis + 1 in
  let chains =
    Array.to_list validators
    |> List.filter (fun v -> p.spec.Topology.is_validator (Validator.index v))
    |> List.map (fun v ->
           let tip = Stellar_herder.Herder.ledger_seq (Validator.herder v) in
           ( Validator.index v,
             List.init (tip - first_seq + 1) (fun k ->
                 Stellar_crypto.Hex.encode (Hashtbl.find agreed (first_seq + k))) ))
  in
  (* Convergence after faults, judged over the validators that are up at the
     end of the run: everyone closed ledgers, nobody is more than one close
     behind (the cutoff can land mid-spread), and no close disagreed. *)
  let converged =
    let heights =
      List.filter_map
        (fun (i, c) ->
          if Stellar_sim.Network.is_down network i then None else Some (List.length c))
        chains
    in
    match heights with
    | [] -> false
    | h0 :: _ ->
        let lo = List.fold_left min h0 heights and hi = List.fold_left max h0 heights in
        lo > 0 && hi - lo <= 1 && not !diverged
  in
  {
    ledgers_closed = List.length stats;
    nomination = Report.quantiles (fl (fun s -> s.nomination_s));
    balloting = Report.quantiles (fl (fun s -> s.balloting_s));
    apply = Report.quantiles (fl (fun s -> s.apply_s));
    total = Report.quantiles (fl (fun s -> s.total_s));
    close_interval = Report.quantiles close_intervals;
    txs_per_ledger =
      Report.quantiles (fl (fun s -> float_of_int s.tx_count));
    txs_submitted = !submitted;
    txs_applied;
    nomination_timeouts_per_ledger =
      Report.quantiles (List.map (fun (n, _) -> float_of_int n) t_per_ledger');
    ballot_timeouts_per_ledger =
      Report.quantiles (List.map (fun (_, b) -> float_of_int b) t_per_ledger');
    envelopes_per_ledger;
    msgs_per_second_per_node = per_second msgs_sent;
    bytes_in_total = bytes_received;
    bytes_out_total = bytes_sent;
    bytes_in_per_second = per_second bytes_received;
    bytes_out_per_second = per_second bytes_sent;
    diverged = !diverged;
    chains;
    converged;
    wall_seconds = Unix.gettimeofday () -. wall0;
    final_ledger_seq = Stellar_herder.Herder.ledger_seq (Validator.herder validators.(0));
    telemetry = (if p.observe then Some collector else None);
  }

let pp_ms fmt (q : Report.quantiles) =
  Format.fprintf fmt "mean=%.1fms p50=%.1f p99=%.1f max=%.1f (n=%d)" (q.mean *. 1000.0)
    (q.p50 *. 1000.0) (q.p99 *. 1000.0) (q.max *. 1000.0) q.n

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>ledgers closed     : %d (final seq %d)%s@,\
     nomination         : %a@,\
     balloting          : %a@,\
     ledger update      : %a@,\
     end-to-end         : %a@,\
     close interval     : mean %.2fs@,\
     txs/ledger         : mean %.1f (applied %d / submitted %d)@,\
     SCP envelopes/ledger (node 0): %.1f@,\
     node-0 traffic     : %.0f msg/s, in %.2f Mbit/s, out %.2f Mbit/s@,\
     wall time          : %.2fs@]"
    r.ledgers_closed r.final_ledger_seq
    (if r.diverged then "  !! DIVERGED !!" else "")
    pp_ms r.nomination pp_ms r.balloting pp_ms r.apply pp_ms r.total
    r.close_interval.Report.mean r.txs_per_ledger.Report.mean
    r.txs_applied r.txs_submitted r.envelopes_per_ledger r.msgs_per_second_per_node
    (r.bytes_in_per_second *. 8.0 /. 1_000_000.0)
    (r.bytes_out_per_second *. 8.0 /. 1_000_000.0)
    r.wall_seconds
