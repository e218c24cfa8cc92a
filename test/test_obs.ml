(* Tests for the observability subsystem (lib/obs): metric registries,
   structured tracing, report derivation, and the determinism contract
   BENCH_phases.json depends on. *)

module Obs = Stellar_obs

(* ---- registry ---- *)

let test_counter_monotonic () =
  let r = Obs.Registry.create () in
  let c = Obs.Registry.counter r "scp.ballot.prepare" in
  let prev = ref 0 in
  for i = 1 to 100 do
    if i mod 3 = 0 then Obs.Registry.add c 2 else Obs.Registry.incr c;
    let v = Obs.Registry.counter_value r "scp.ballot.prepare" in
    Alcotest.(check bool) "monotone" true (v > !prev);
    prev := v
  done;
  (* re-registration returns the same handle *)
  let c' = Obs.Registry.counter r "scp.ballot.prepare" in
  Obs.Registry.incr c';
  Alcotest.(check int) "shared handle" (!prev + 1)
    (Obs.Registry.counter_value r "scp.ballot.prepare")

let test_kind_mismatch () =
  let r = Obs.Registry.create () in
  ignore (Obs.Registry.counter r "x");
  Alcotest.check_raises "counter vs gauge"
    (Invalid_argument "Registry: x already registered as a counter, wanted a gauge")
    (fun () -> ignore (Obs.Registry.gauge r "x"))

let test_merge () =
  let a = Obs.Registry.create () and b = Obs.Registry.create () in
  Obs.Registry.add (Obs.Registry.counter a "c") 3;
  Obs.Registry.add (Obs.Registry.counter b "c") 4;
  Obs.Registry.set (Obs.Registry.gauge a "g") 1.5;
  Obs.Registry.set (Obs.Registry.gauge b "g") 2.5;
  Obs.Registry.observe (Obs.Registry.histogram a "h") 0.01;
  Obs.Registry.observe (Obs.Registry.histogram b "h") 0.02;
  let m = Obs.Registry.merge [ a; b ] in
  Alcotest.(check int) "counters add" 7 (Obs.Registry.counter_value m "c");
  Alcotest.(check (float 1e-9)) "gauges sum" 4.0 (Obs.Registry.gauge_value m "g");
  match Obs.Registry.summary m "h" with
  | Some s ->
      Alcotest.(check int) "histogram counts add" 2 s.Obs.Registry.count;
      Alcotest.(check (float 1e-12)) "histogram sums add" 0.03 s.Obs.Registry.sum;
      Alcotest.(check (float 0.0)) "histogram max is the larger" 0.02 s.Obs.Registry.max
  | None -> Alcotest.fail "merged histogram missing"

(* ---- null sink is inert ---- *)

let test_null_sink () =
  Alcotest.(check bool) "disabled" false (Obs.Sink.enabled Obs.Sink.null);
  Obs.Sink.incr Obs.Sink.null "c";
  Obs.Sink.set_gauge Obs.Sink.null "g" 1.0;
  Obs.Sink.observe Obs.Sink.null "h" 1.0;
  Obs.Sink.emit Obs.Sink.null (Obs.Event.Externalize { slot = 1 });
  Alcotest.(check int) "no metrics recorded" 0
    (List.length (Obs.Registry.names (Obs.Sink.metrics Obs.Sink.null)))

(* ---- metric handles ---- *)

let test_counter_handle () =
  let reg = Obs.Registry.create () in
  let sink = Obs.Sink.make ~node:0 ~now:(fun () -> 0.0) reg in
  let c = Obs.Sink.counter sink "flood.unique" in
  Obs.Registry.incr c;
  Obs.Registry.add c 4;
  Alcotest.(check int) "handle updates read back by name" 5
    (Obs.Registry.counter_value reg "flood.unique");
  Obs.Sink.incr sink "flood.unique";
  Alcotest.(check int) "by-name update reaches the same counter" 6
    (Obs.Registry.counter_value reg "flood.unique");
  Obs.Registry.set (Obs.Sink.gauge sink "sim.queue.pending") 2.5;
  Alcotest.(check (float 0.0)) "gauge handle" 2.5
    (Obs.Registry.gauge_value reg "sim.queue.pending")

let test_null_sink_handles () =
  let c = Obs.Sink.counter Obs.Sink.null "c" and g = Obs.Sink.gauge Obs.Sink.null "g" in
  Obs.Registry.incr c;
  Obs.Registry.set g 1.0;
  Alcotest.(check (list string)) "no registry touched" []
    (Obs.Registry.names (Obs.Sink.metrics Obs.Sink.null))

(* ---- trace storage ---- *)

(* Enough events to fill three chunks and start a fourth, from three
   nodes; each event's payload names its position. *)
let test_trace_chunks () =
  let clock = ref 0.0 in
  let trace = Obs.Trace.create () in
  let sinks =
    Array.init 3 (fun node ->
        Obs.Sink.make ~trace ~node ~now:(fun () -> !clock) (Obs.Registry.create ()))
  in
  let n = (3 * Obs.Trace.chunk_size) + 17 in
  for i = 0 to n - 1 do
    clock := float_of_int i *. 0.25;
    Obs.Sink.emit sinks.(i mod 3) (Obs.Event.Dedup_drop { kind = "tx"; src = i; bytes = 2 * i })
  done;
  Alcotest.(check int) "length" n (Obs.Trace.length trace);
  let stream () =
    let acc = ref [] in
    Obs.Trace.iter trace (fun s -> acc := s :: !acc);
    List.rev !acc
  in
  let first = stream () in
  Alcotest.(check int) "iter yields every event" n (List.length first);
  List.iteri
    (fun i s ->
      if
        s.Obs.Trace.seq <> i
        || s.Obs.Trace.time <> float_of_int i *. 0.25
        || s.Obs.Trace.node <> i mod 3
        || s.Obs.Trace.event <> Obs.Event.Dedup_drop { kind = "tx"; src = i; bytes = 2 * i }
      then Alcotest.failf "event %d out of place (seq %d)" i s.Obs.Trace.seq)
    first;
  Alcotest.(check bool) "a second iter yields the same stream" true (stream () = first)

(* ---- network traffic accounting ---- *)

let test_network_overlay_counters () =
  let engine = Stellar_sim.Engine.create () in
  let rng = Stellar_sim.Rng.create ~seed:42 in
  let net =
    Stellar_sim.Network.create ~engine ~rng ~n:2 ~latency:Stellar_sim.Latency.datacenter ()
  in
  Stellar_sim.Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> ());
  Stellar_sim.Network.send net ~src:0 ~dst:1 ~size:100 "hello";
  Stellar_sim.Network.send net ~src:0 ~dst:1 ~size:50 "again";
  Stellar_sim.Engine.run engine;
  let counter i name =
    Obs.Registry.counter_value (Stellar_sim.Network.registry net i) name
  in
  Alcotest.(check int) "sent msgs" 2 (counter 0 "overlay.msgs.sent");
  Alcotest.(check int) "sent bytes" 150 (counter 0 "overlay.bytes.sent");
  Alcotest.(check int) "recv msgs" 2 (counter 1 "overlay.msgs.received");
  Alcotest.(check int) "recv bytes" 150 (counter 1 "overlay.bytes.received");
  Alcotest.(check int) "receiver sent nothing" 0 (counter 1 "overlay.msgs.sent")

(* ---- end-to-end determinism (the BENCH_phases.json contract) ---- *)

let run ?(latency = Stellar_sim.Latency.datacenter) ~observe seed =
  let spec = Stellar_node.Topology.all_to_all ~n:4 in
  Stellar_node.Scenario.run
    {
      (Stellar_node.Scenario.default ~spec) with
      Stellar_node.Scenario.tx_rate = 10.0;
      duration = 30.0;
      latency;
      seed;
      observe;
    }

let observed_run = run ~observe:true

(* slow, jittery links: rounds outlast the 1 s timeouts, so both kinds
   fire (at every seed from 1 to 8) *)
let jittery =
  Stellar_sim.Latency.Jittered { base = 0.3; jitter = 0.8; spike_prob = 0.0; spike = 0.0 }

(* The report comes from the always-on registries, so attaching the trace
   must not change a single figure of it (a metric left behind a
   Sink.tracing guard would). *)
let test_tracing_keeps_report () =
  let module S = Stellar_node.Scenario in
  let off = run ~latency:jittery ~observe:false 5
  and on = run ~latency:jittery ~observe:true 5 in
  (* the precondition: without timeouts the last two checks below compare
     zeros, so a traffic change that stops either kind firing at this seed
     must fail here, not pass unnoticed *)
  Alcotest.(check bool) "precondition: nomination timeouts fired" true
    (off.S.nomination_timeouts_per_ledger.Obs.Report.max > 0.0);
  Alcotest.(check bool) "precondition: ballot timeouts fired" true
    (off.S.ballot_timeouts_per_ledger.Obs.Report.max > 0.0);
  Alcotest.(check bool) "telemetry only when observing" true
    (Option.is_none off.S.telemetry && Option.is_some on.S.telemetry);
  Alcotest.(check bool) "some ledgers closed" true (off.S.ledgers_closed > 0);
  Alcotest.(check int) "ledgers closed" off.S.ledgers_closed on.S.ledgers_closed;
  Alcotest.(check int) "txs applied" off.S.txs_applied on.S.txs_applied;
  Alcotest.(check bool) "chains" true (off.S.chains = on.S.chains);
  Alcotest.(check int) "bytes in" off.S.bytes_in_total on.S.bytes_in_total;
  Alcotest.(check int) "bytes out" off.S.bytes_out_total on.S.bytes_out_total;
  Alcotest.(check bool) "bytes counted" true (off.S.bytes_out_total > 0);
  Alcotest.(check (float 0.0)) "msgs/s per node" off.S.msgs_per_second_per_node
    on.S.msgs_per_second_per_node;
  Alcotest.(check (float 0.0)) "envelopes per ledger" off.S.envelopes_per_ledger
    on.S.envelopes_per_ledger;
  Alcotest.(check bool) "envelopes counted" true (off.S.envelopes_per_ledger > 0.0);
  Alcotest.(check bool) "nomination timeouts per ledger" true
    (off.S.nomination_timeouts_per_ledger = on.S.nomination_timeouts_per_ledger);
  Alcotest.(check bool) "ballot timeouts per ledger" true
    (off.S.ballot_timeouts_per_ledger = on.S.ballot_timeouts_per_ledger)

(* The herder's stopwatch (fed by Driver.started_ballot) and the trace
   (Nominate_start / first Ballot_bump / Externalize) time the same two phases:
   over node 0's post-warmup closed slots, Scenario.report's nomination
   and balloting quantiles equal those of Report.slot_phases. *)
let test_phase_paths_agree () =
  let module S = Stellar_node.Scenario in
  List.iter
    (fun (name, latency, seed) ->
      let r = run ~latency ~observe:true seed in
      let warmup = (S.default ~spec:(Stellar_node.Topology.all_to_all ~n:4)).S.warmup_ledgers in
      let first = r.S.final_ledger_seq - r.S.ledgers_closed + 1 + warmup in
      let ph =
        Obs.Report.slot_phases (Obs.Collector.trace (Option.get r.S.telemetry))
        |> List.filter (fun p ->
               p.Obs.Report.slot >= first && p.Obs.Report.slot <= r.S.final_ledger_seq)
      in
      Alcotest.(check bool) (name ^ ": slots after warmup") true (ph <> []);
      Alcotest.(check int) (name ^ ": every closed slot traced")
        (r.S.final_ledger_seq - first + 1) (List.length ph);
      Alcotest.(check bool) (name ^ ": nomination") true
        (r.S.nomination = Obs.Report.quantiles (List.map (fun p -> p.Obs.Report.nomination_s) ph));
      Alcotest.(check bool) (name ^ ": balloting") true
        (r.S.balloting = Obs.Report.quantiles (List.map (fun p -> p.Obs.Report.ballot_s) ph)))
    [
      ("datacenter seed 5", Stellar_sim.Latency.datacenter, 5);
      ("datacenter seed 7", Stellar_sim.Latency.datacenter, 7);
      ("jittery seed 5", jittery, 5);
      ("wide-area seed 3", Stellar_sim.Latency.wide_area, 3);
    ]

(* Each traced fact is counted by an always-on metric too, and per node
   the two agree: closes (Apply_end, ledger.closed), nominations
   (Nominate_start, scp.nominate.start), ballot bumps (Ballot_bump,
   scp.ballot.bump) and applied transactions (Tx_applied, the sum of the
   ledger.tx.* outcome counters).  The jittery links make ballot timers
   fire, so some slots see more than one bump. *)
let test_trace_agrees_with_registry () =
  let r = run ~latency:jittery ~observe:true 5 in
  let c = Option.get r.Stellar_node.Scenario.telemetry in
  let n = Obs.Collector.n_nodes c in
  let closes = Array.make n 0 and noms = Array.make n 0 and bumps = Array.make n 0 in
  let applied = Array.make n 0 and bumped_slots = Hashtbl.create 64 in
  Obs.Trace.iter (Obs.Collector.trace c) (fun s ->
      let node = s.Obs.Trace.node in
      let count a = a.(node) <- a.(node) + 1 in
      match s.Obs.Trace.event with
      | Obs.Event.Apply_end _ -> count closes
      | Obs.Event.Nominate_start _ -> count noms
      | Obs.Event.Ballot_bump { slot; _ } ->
          count bumps;
          Hashtbl.replace bumped_slots (node, slot) ()
      | Obs.Event.Tx_applied _ -> count applied
      | _ -> ());
  for node = 0 to n - 1 do
    let reg = Obs.Collector.registry c node in
    let counter = Obs.Registry.counter_value reg in
    let outcomes =
      List.filter (String.starts_with ~prefix:"ledger.tx.") (Obs.Registry.names reg)
    in
    let check what expected got =
      Alcotest.(check int) (Printf.sprintf "node %d: %s" node what) expected got
    in
    Alcotest.(check bool) "closed ledgers" true (closes.(node) > 0);
    check "Apply_end events = ledger.closed" (counter "ledger.closed") closes.(node);
    check "Nominate_start events = scp.nominate.start" (counter "scp.nominate.start")
      noms.(node);
    check "Ballot_bump events = scp.ballot.bump" (counter "scp.ballot.bump") bumps.(node);
    check "Tx_applied events = ledger.tx.* outcomes"
      (List.fold_left (fun acc name -> acc + counter name) 0 outcomes)
      applied.(node)
  done;
  Alcotest.(check bool) "applied txs traced" true (Array.fold_left ( + ) 0 applied > 0);
  Alcotest.(check bool) "re-bumps traced" true
    (Array.fold_left ( + ) 0 bumps > Hashtbl.length bumped_slots)

(* SHA-256 of the seed-5 run's JSONL, re-recorded when the trace dropped
   the event kinds that repeated another event or fed no report (the
   remaining events, their order and payloads unchanged). *)
let jsonl_sha256 = "40f296a44dbf0ca4b2d560269a52564694624db2d6a92c0083f6174cfc79d031"

let test_jsonl_pinned () =
  let r = observed_run 5 in
  let trace = Obs.Collector.trace (Option.get r.Stellar_node.Scenario.telemetry) in
  let jsonl = Obs.Trace.to_jsonl trace in
  Alcotest.(check bool) "tx events present" true
    (Obs.Report.tx_lives trace <> []);
  Alcotest.(check string) "JSONL digest" jsonl_sha256 (Stellar_crypto.Sha256.hex jsonl)

(* Names and counter values of the merged registries of a small tiered run,
   recorded while every hot-path counter was still updated by name, and
   re-recorded when straggler help became a pull: no help is sent unasked,
   so the run has no [flood.straggler_helped] and fewer duplicates. *)
let tiered_registry_dump =
  [
    ("bucket.entries", 0);
    ("bucket.merge", 66);
    ("bucket.spill", 11);
    ("flood.dup_bytes", 11247976);
    ("flood.dup_dropped", 16309);
    ("flood.forwarded", 22225);
    ("flood.own_envelopes", 538);
    ("flood.unique", 5862);
    ("herder.queue.size", 0);
    ("ledger.apply_ms", 0);
    ("ledger.closed", 66);
    ("ledger.ops.applied", 528);
    ("ledger.tx.success", 528);
    ("overlay.bytes.received", 15189684);
    ("overlay.bytes.sent", 15196892);
    ("overlay.msgs.received", 22171);
    ("overlay.msgs.sent", 22225);
    ("scp.ballot.bump", 74);
    ("scp.ballot.confirm", 1400);
    ("scp.ballot.externalize", 660);
    ("scp.ballot.prepare", 1980);
    ("scp.nominate.recv", 1320);
    ("scp.nominate.start", 77);
    ("scp.nomination.round", 77);
    ("scp.phase.confirm", 66);
    ("scp.phase.externalize", 66);
    ("sim.events.cancelled", 132);
    ("sim.events.fired", 44468);
    ("sim.queue.pending", 0);
    ("validator.seen.size", 0);
  ]

let test_registry_dump () =
  let spec, _ =
    Stellar_node.Topology.tiered
      ~orgs:Quorum_analysis.Synthesis.[ (Critical, 3); (Critical, 3); (Critical, 3); (High, 2) ]
      ~leaves:2 ()
  in
  let module S = Stellar_node.Scenario in
  let r =
    S.run
      {
        (S.default ~spec) with
        S.tx_rate = 5.0;
        duration = 10.0;
        latency = Stellar_sim.Latency.wide_area;
        seed = 3;
        observe = true;
      }
  in
  let agg = Obs.Collector.aggregate (Option.get r.S.telemetry) in
  Alcotest.(check (list (pair string int)))
    "names and counter values" tiered_registry_dump
    (List.map (fun n -> (n, Obs.Registry.counter_value agg n)) (Obs.Registry.names agg))

let test_trace_deterministic () =
  let r1 = observed_run 5 and r2 = observed_run 5 in
  let t1 = Option.get r1.Stellar_node.Scenario.telemetry in
  let t2 = Option.get r2.Stellar_node.Scenario.telemetry in
  let j1 = Obs.Trace.to_jsonl (Obs.Collector.trace t1) in
  let j2 = Obs.Trace.to_jsonl (Obs.Collector.trace t2) in
  Alcotest.(check bool) "trace non-empty" true (String.length j1 > 0);
  Alcotest.(check string) "JSONL byte-identical" j1 j2;
  let report c =
    let tr = Obs.Collector.trace c in
    Obs.Report.breakdown_json (Obs.Report.breakdown tr)
    ^ Obs.Report.phases_json (Obs.Report.slot_phases tr)
    ^ Obs.Report.flood_json (Obs.Report.flood_stats tr)
  in
  Alcotest.(check string) "derived report identical" (report t1) (report t2)

let test_trace_phases_sane () =
  let r = observed_run 5 in
  let c = Option.get r.Stellar_node.Scenario.telemetry in
  let ph = Obs.Report.slot_phases (Obs.Collector.trace c) in
  Alcotest.(check bool) "some slots measured" true (List.length ph > 0);
  List.iter
    (fun p ->
      let open Obs.Report in
      Alcotest.(check bool) "phases non-negative" true
        (p.nomination_s >= 0.0 && p.ballot_s >= 0.0 && p.apply_s > 0.0);
      Alcotest.(check (float 1e-9)) "total = nom + ballot + apply"
        (p.nomination_s +. p.ballot_s +. p.apply_s)
        p.total_s)
    ph;
  (* the herder's own stopwatch and the trace agree on how many ledgers
     node 0 closed *)
  Alcotest.(check bool) "slot count matches ledgers closed" true
    (List.length ph >= r.Stellar_node.Scenario.ledgers_closed - 1);
  (* the dedup table's size gauge appears once pruning has run *)
  let names = Obs.Registry.names (Obs.Collector.registry c 0) in
  Alcotest.(check bool) "seen-size gauge exported" true
    (List.mem "validator.seen.size" names);
  Alcotest.(check bool) "seen table bounded" true
    (Obs.Registry.gauge_value (Obs.Collector.registry c 0) "validator.seen.size" >= 0.0)

let test_flood_amplification () =
  let r = observed_run 5 in
  let c = Option.get r.Stellar_node.Scenario.telemetry in
  let fl = Obs.Report.flood_stats (Obs.Collector.trace c) in
  Alcotest.(check int) "every node floods" 4 (List.length fl);
  List.iter
    (fun (_, f) ->
      let open Obs.Report in
      Alcotest.(check bool) "amplification >= 1" true (f.amplification >= 1.0);
      Alcotest.(check int) "recv + dropped consistent"
        (f.received + f.dup_dropped)
        (int_of_float (f.amplification *. float_of_int f.received +. 0.5)))
    fl

(* ---- causal tracing: flood DAG, tx lifecycle, critical path ---- *)

(* one shared observed run for the causal-section tests *)
let causal_trace =
  lazy
    (let r = observed_run 9 in
     (r, Obs.Collector.trace (Option.get r.Stellar_node.Scenario.telemetry)))

(* Every delivery names the send that produced it: send ids are unique per
   Flood_send, every Flood_recv's send_id resolves to exactly one of them,
   the send precedes the recv in time, and the payload sizes agree. *)
let test_causal_pairing () =
  let _, trace = Lazy.force causal_trace in
  let sends = Hashtbl.create 1024 in
  let n_recv = ref 0 in
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Flood_send { msg_id; bytes; _ } ->
          Alcotest.(check bool) "msg ids tagged" true (msg_id >= 1);
          Alcotest.(check bool)
            (Printf.sprintf "msg id %d unique" msg_id)
            false (Hashtbl.mem sends msg_id);
          Hashtbl.add sends msg_id (s.Obs.Trace.time, bytes)
      | _ -> ());
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Flood_recv { send_id; bytes; link_s; wait_s; proc_s; _ } ->
          incr n_recv;
          (match Hashtbl.find_opt sends send_id with
          | None -> Alcotest.failf "recv names unknown send id %d" send_id
          | Some (t_send, b_send) ->
              Alcotest.(check bool) "send before recv" true (t_send <= s.Obs.Trace.time);
              Alcotest.(check int) "payload bytes match" b_send bytes;
              (* delivery decomposition reconstructs the trace timestamp *)
              Alcotest.(check (float 1e-9)) "recv time = send + link + wait + proc"
                (t_send +. link_s +. wait_s +. proc_s)
                s.Obs.Trace.time)
      | _ -> ());
  Alcotest.(check bool) "deliveries observed" true (!n_recv > 0)

(* Lifecycle events for each tx appear in causal order, and the scenario's
   own counters corroborate the trace-derived ones. *)
let test_tx_lifecycle () =
  let r, trace = Lazy.force causal_trace in
  let lives = Obs.Report.tx_lives trace in
  let e2e = Obs.Report.e2e_latency trace in
  Alcotest.(check int) "every submitted tx traced"
    r.Stellar_node.Scenario.txs_submitted e2e.Obs.Report.n_submitted;
  Alcotest.(check int) "every applied tx traced" r.Stellar_node.Scenario.txs_applied
    e2e.Obs.Report.n_applied;
  Alcotest.(check bool) "some txs externalized" true (e2e.Obs.Report.n_externalized > 0);
  List.iter
    (fun l ->
      let open Obs.Report in
      match l.submitted with
      | None -> ()
      | Some t_sub ->
          Option.iter
            (fun (_, t_ext) ->
              Alcotest.(check bool) "submit <= externalize" true (t_sub <= t_ext))
            l.externalized)
    lives

(* The acceptance criterion: per externalized slot, the critical-path
   attribution (network + timer + cpu) equals the nominate-start →
   externalize duration to within 1 µs of simulated time. *)
let test_critical_path_attribution () =
  let r, trace = Lazy.force causal_trace in
  let cps = Obs.Report.critical_paths trace in
  Alcotest.(check bool) "paths for most closed ledgers" true
    (List.length cps >= r.Stellar_node.Scenario.ledgers_closed - 1);
  List.iter
    (fun cp ->
      let open Obs.Report in
      Alcotest.(check bool) "segments non-negative" true
        (cp.network_s >= 0.0 && cp.timer_s >= 0.0 && cp.cpu_s >= 0.0);
      Alcotest.(check bool) "path has hops or pure-local slot" true
        (cp.hops <> [] || cp.cp_total_s < 0.1);
      Alcotest.(check bool)
        (Printf.sprintf "slot %d: attribution sums to duration (1us)" cp.cp_slot)
        true
        (Float.abs (cp.network_s +. cp.timer_s +. cp.cpu_s -. cp.cp_total_s) < 1e-6);
      Alcotest.(check (float 1e-9)) "total = externalize - start"
        (cp.t_externalize -. cp.t_start) cp.cp_total_s;
      (* hops are causally ordered and intra-slot *)
      ignore
        (List.fold_left
           (fun prev h ->
             Alcotest.(check bool) "hop send <= recv" true (h.sent_at <= h.recv_at);
             Alcotest.(check bool) "hops causally ordered" true (prev <= h.recv_at);
             h.recv_at)
           neg_infinity cp.hops))
    cps

(* The fig-e2e contract: e2e + critical-path JSON byte-identical across two
   same-seed runs. *)
let test_e2e_deterministic () =
  let json seed =
    let r = observed_run seed in
    let tr = Obs.Collector.trace (Option.get r.Stellar_node.Scenario.telemetry) in
    Obs.Report.e2e_json (Obs.Report.e2e_latency tr)
    ^ Obs.Report.critical_paths_json (Obs.Report.critical_paths tr)
  in
  let j1 = json 9 and j2 = json 9 in
  Alcotest.(check bool) "non-empty" true (String.length j1 > 60);
  Alcotest.(check string) "e2e + critical path byte-identical" j1 j2

(* Dedup drops carry payload bytes (satellite): wasted bandwidth is
   reported in bytes and corroborated by the flood.dup_bytes counter. *)
let test_dedup_bytes () =
  let r, trace = Lazy.force causal_trace in
  let fl = Obs.Report.flood_stats trace in
  let total_dup_bytes =
    List.fold_left (fun a (_, f) -> a + f.Obs.Report.dup_bytes) 0 fl
  in
  Alcotest.(check bool) "duplicates observed" true (total_dup_bytes > 0);
  List.iter
    (fun (_, f) ->
      let open Obs.Report in
      Alcotest.(check bool) "bytes iff drops" true ((f.dup_bytes > 0) = (f.dup_dropped > 0)))
    fl;
  let agg =
    Obs.Collector.aggregate (Option.get r.Stellar_node.Scenario.telemetry)
  in
  Alcotest.(check int) "trace agrees with flood.dup_bytes counter"
    (Obs.Registry.counter_value agg "flood.dup_bytes")
    total_dup_bytes

(* ---- recovery is read from closes ---- *)

(* A hand-built trace of three 5 s ledgers (slots 5-7, at 25, 30 and 35 s)
   that every node in [nodes] externalizes in step; [closes node slot] says
   whether (and how late) that node also closes it. *)
let in_step_trace ~nodes ~faults ~closes =
  let trace = Obs.Trace.create () in
  let record time node ev = Obs.Trace.record trace ~time ~node ev in
  List.iter (fun (time, node, ev) -> record time node ev) faults;
  List.iter
    (fun slot ->
      let t = 25.0 +. (5.0 *. float_of_int (slot - 5)) in
      List.iter
        (fun node ->
          record t node (Obs.Event.Externalize { slot });
          Option.iter
            (fun late -> record (t +. late) node (Obs.Event.Apply_end { slot; txs = 0; ops = 0 }))
            (closes node slot))
        nodes)
    [ 5; 6; 7 ];
  trace

let restart_of_node_2 =
  [ (10.0, 2, Obs.Event.Node_crash); (20.0, 2, Obs.Event.Node_restart) ]

let split_of_3_and_4 =
  [
    (10.0, -1, Obs.Event.Partition_begin { groups = [ 0; 0; 0; 1; 1 ] });
    (20.0, -1, Obs.Event.Partition_heal);
  ]

let recover_s trace =
  match Obs.Report.recoveries ~interval:5.0 trace with
  | [ r ] -> r.Obs.Report.recover_s
  | l -> Alcotest.failf "expected one recovery, got %d" (List.length l)

let test_restart_without_closes () =
  (* node 2 externalizes every slot with the others but closes none *)
  let trace =
    in_step_trace ~nodes:[ 0; 1; 2 ] ~faults:restart_of_node_2 ~closes:(fun node _ ->
        if node = 2 then None else Some 0.001)
  in
  Alcotest.(check (option (float 0.0))) "not back" None (recover_s trace)

let test_heal_without_closes () =
  (* nodes 3 and 4 externalize every slot after the heal but close none *)
  let trace =
    in_step_trace ~nodes:[ 0; 1; 2; 3; 4 ] ~faults:split_of_3_and_4 ~closes:(fun node _ ->
        if node >= 3 then None else Some 0.001)
  in
  match Obs.Report.heals ~interval:5.0 trace with
  | [ h ] ->
      Alcotest.(check (list (pair int (option (float 0.0))))) "lagged not back"
        [ (3, None); (4, None) ]
        (List.sort compare h.Obs.Report.lagged);
      Alcotest.(check (option (float 0.0))) "heal not back" None h.Obs.Report.heal_recover_s
  | l -> Alcotest.failf "expected one heal, got %d" (List.length l)

let test_back_at_first_close () =
  (* node 2 closes slot 5 only a whole interval after the others, so it is
     back at its close of slot 6, 2 ms after the fastest other node's *)
  let trace =
    in_step_trace ~nodes:[ 0; 1; 2 ] ~faults:restart_of_node_2 ~closes:(fun node slot ->
        match (node, slot) with 2, 5 -> Some 5.0 | 2, _ -> Some 0.003 | _ -> Some 0.001)
  in
  Alcotest.(check (option (float 1e-9))) "recover_s" (Some 10.003) (recover_s trace);
  (* a healed minority reads the same rule *)
  let trace =
    in_step_trace ~nodes:[ 0; 1; 2; 3; 4 ] ~faults:split_of_3_and_4 ~closes:(fun node slot ->
        match (node, slot) with
        | 3, 5 | 4, 5 -> None
        | 3, _ | 4, _ -> Some 0.003
        | _ -> Some 0.001)
  in
  match Obs.Report.heals ~interval:5.0 trace with
  | [ h ] ->
      Alcotest.(check (option (float 1e-9))) "heal recover_s" (Some 10.003)
        h.Obs.Report.heal_recover_s
  | l -> Alcotest.failf "expected one heal, got %d" (List.length l)

(* The obs library's own hex encoder matches the crypto library's. *)
let hex_agrees =
  QCheck.Test.make ~name:"Event.hex = Hex.encode" ~count:200
    QCheck.(string_of_size (Gen.int_range 0 100))
    (fun s -> Obs.Event.hex s = Stellar_crypto.Hex.encode s)

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "counter monotonic" `Quick test_counter_monotonic;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "merge" `Quick test_merge;
        ] );
      ( "sink",
        [
          Alcotest.test_case "null sink" `Quick test_null_sink;
          Alcotest.test_case "counter handle" `Quick test_counter_handle;
          Alcotest.test_case "null sink handles" `Quick test_null_sink_handles;
          QCheck_alcotest.to_alcotest hex_agrees;
        ] );
      ("trace", [ Alcotest.test_case "chunked storage" `Quick test_trace_chunks ]);
      ( "recovery",
        [
          Alcotest.test_case "a restart that externalizes but never closes is not back"
            `Quick test_restart_without_closes;
          Alcotest.test_case "a healed minority that externalizes but never closes is not back"
            `Quick test_heal_without_closes;
          Alcotest.test_case "a node is back at its first close in step" `Quick
            test_back_at_first_close;
        ] );
      ( "network",
        [ Alcotest.test_case "overlay counters" `Quick test_network_overlay_counters ] );
      ( "determinism",
        [
          Alcotest.test_case "trace byte-identical" `Quick test_trace_deterministic;
          Alcotest.test_case "JSONL digest pinned" `Quick test_jsonl_pinned;
          Alcotest.test_case "tiered registry dump" `Quick test_registry_dump;
          Alcotest.test_case "tracing keeps the report" `Quick test_tracing_keeps_report;
          Alcotest.test_case "phase breakdown sane" `Quick test_trace_phases_sane;
          Alcotest.test_case "phase timing paths agree" `Quick test_phase_paths_agree;
          Alcotest.test_case "trace agrees with the registry" `Quick
            test_trace_agrees_with_registry;
          Alcotest.test_case "flood amplification" `Quick test_flood_amplification;
        ] );
      ( "causal",
        [
          Alcotest.test_case "flood send/recv pairing" `Quick test_causal_pairing;
          Alcotest.test_case "tx lifecycle ordering" `Quick test_tx_lifecycle;
          Alcotest.test_case "critical-path attribution" `Quick
            test_critical_path_attribution;
          Alcotest.test_case "e2e report deterministic" `Quick test_e2e_deterministic;
          Alcotest.test_case "dedup wasted bytes" `Quick test_dedup_bytes;
        ] );
    ]
