(* One measurement process of the wall-clock benchmark; perfbench/run.py
   starts these, derives every metric from their output and checks it.

     bench.exe setup --workload W --seconds S
       times the workload's inputs (topology spec, genesis ledger, genesis
       bucket list) at least three times and for about S seconds.
     bench.exe run --workload W --seed N --observe 0|1 [--probes]
       times one Scenario.run (with --observe 1, plus its Report.*
       analyses) and prints the top of the heap after it, the outcome the
       correctness gate compares and, when observing, the samples and
       registry counters of the run.  --probes then times the per-layer
       probes on inputs shaped by that run.

   Each process prints one JSON object on stdout.  One run per process
   keeps the top-of-heap figure clean (the OCaml heap never shrinks) and
   the runs alike (in one process, later runs get faster as the heap
   grows). *)

module Obs = Stellar_obs
module Sc = Stellar_node.Scenario
module Topo = Stellar_node.Topology
module Engine = Stellar_sim.Engine

(* ---- workloads ---- *)

type workload = {
  spec : unit -> Topo.spec;
  n_accounts : int;
  tx_rate : float;  (** open-loop Poisson payments per simulated second *)
  duration : float;  (** simulated seconds of load; Scenario adds a drain *)
  latency : Stellar_sim.Latency.t;
  faults : Stellar_node.Fault.schedule;
}

let interval = 5.0

(* The fig-liveness schedule of bench/exp_faults.ml: two crashes with
   archive restarts, a 5% loss window, a 4x re-flooder, a 4/3 partition
   that heals. *)
let fig_liveness : Stellar_node.Fault.schedule =
  Stellar_node.Fault.
    [
      Crash { node = 5; at = 12.0 };
      Crash { node = 6; at = 14.0 };
      Loss { rate = 0.05; from_ = 18.0; until_ = 24.0 };
      Restart { node = 5; at = 30.0 };
      Restart { node = 6; at = 32.0 };
      Reflood { node = 1; at = 40.0; copies = 4 };
      Partition
        { at = 45.0; groups = [ (0, 0); (1, 0); (2, 0); (3, 0); (4, 1); (5, 1); (6, 1) ] };
      Heal { at = 60.0 };
    ]

let workload = function
  | "tiered" ->
      {
        spec = (fun () -> fst (Topo.tiered ~leaves:5 ()));
        n_accounts = 1_000;
        tx_rate = 15.7;
        duration = 10.0;
        latency = Stellar_sim.Latency.wide_area;
        faults = [];
      }
  | "payments" ->
      {
        spec = (fun () -> Topo.all_to_all ~n:4);
        n_accounts = 100_000;
        tx_rate = 200.0;
        duration = 20.0;
        latency = Stellar_sim.Latency.datacenter;
        faults = [];
      }
  | "faults" ->
      {
        spec = (fun () -> Topo.all_to_all ~n:7);
        n_accounts = 2_000;
        tx_rate = 50.0;
        duration = 75.0;
        latency = Stellar_sim.Latency.datacenter;
        faults = fig_liveness;
      }
  | w -> failwith ("unknown workload " ^ w)

let params w spec ~seed ~observe =
  {
    (Sc.default ~spec) with
    Sc.n_accounts = w.n_accounts;
    tx_rate = w.tx_rate;
    duration = w.duration;
    latency = w.latency;
    seed;
    ledger_interval = interval;
    observe;
    faults = w.faults;
  }

(* ---- clocks and JSON ---- *)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let w0 = Unix.gettimeofday () and c0 = cpu () in
  let r = f () in
  (r, Unix.gettimeofday () -. w0, cpu () -. c0)

let median l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let num f = Printf.sprintf "%.17g" f
let str s = Printf.sprintf "%S" s
let arr f l = "[" ^ String.concat "," (List.map f l) ^ "]"
let obj kvs =
  "{" ^ String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%S:%s" k v) kvs) ^ "}"

let top_heap_mib () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* ---- host-speed reference ----

   The shared host runs this process at full speed or up to about 2x slower,
   in phases of a few seconds to minutes.  While a timed call runs, a
   SIGALRM ticker interrupts it every 100 ms to time a fixed reference
   probe; run.py scales each stretch between two probes by the host speed
   they read (derive.normalized).  The probe is table lookups feeding small
   allocations and hashing, then a pointer chase, over a 512 KiB table: the
   mix whose slowdown tracked the simulator's best.  The table is a
   Bigarray, outside the OCaml heap, so peak_heap_mib does not see it. *)

let ref_n = 65536

let ref_table =
  let t = Bigarray.Array1.create Bigarray.int Bigarray.c_layout ref_n in
  for i = 0 to ref_n - 1 do
    t.{i} <- ((i * 7919) + 13) land (ref_n - 1)
  done;
  t

let chase steps =
  let j = ref 1 in
  for _ = 1 to steps do
    j := ref_table.{(!j + 1) land (ref_n - 1)}
  done;
  !j

let lookups () =
  let h = Hashtbl.create 64 and acc = ref 0 in
  for i = 0 to 11_999 do
    let j = ref_table.{((i * 40503) + !acc) land (ref_n - 1)} in
    acc := !acc + j;
    Hashtbl.replace h (j land 255) (string_of_int j)
  done;
  !acc + Hashtbl.length h

(* (start, end, timed seconds) of each probe, latest first; the untimed
   first pass only brings the table back into cache *)
let probe_log = ref []

let probe () =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (chase ref_n));
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (lookups ()));
  ignore (Sys.opaque_identity (chase 20_000));
  let t2 = Unix.gettimeofday () in
  probe_log := (t0, t2, t2 -. t1) :: !probe_log

let with_reference f =
  probe_log := [];
  let every s = { Unix.it_interval = s; it_value = s } in
  Sys.set_signal Sys.sigalrm (Sys.Signal_handle (fun _ -> probe ()));
  probe ();
  ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.1));
  let r =
    Fun.protect f ~finally:(fun () ->
        ignore (Unix.setitimer Unix.ITIMER_REAL (every 0.0));
        Sys.set_signal Sys.sigalrm Sys.Signal_ignore)
  in
  probe ();
  r

let probes_json () =
  arr (fun (a, b, d) -> arr num [ a; b; d ]) (List.rev !probe_log)

(* ---- set-up ---- *)

let setup w ~seconds =
  let reps = ref [] in
  with_reference (fun () ->
      let t_end = Unix.gettimeofday () +. seconds in
      while List.length !reps < 3 || Unix.gettimeofday () < t_end do
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let spec = w.spec () in
        let genesis, _ = Stellar_node.Genesis.make ~n_accounts:w.n_accounts () in
        let buckets = Stellar_bucket.Bucket_list.of_state genesis in
        ignore (Sys.opaque_identity (spec, buckets));
        reps := (t0, Unix.gettimeofday ()) :: !reps
      done);
  obj
    [
      ("setup_reps", arr (fun (a, b) -> arr num [ a; b ]) (List.rev !reps));
      ("reference", probes_json ());
    ]

(* ---- one scenario run and what the gate compares ---- *)

let outcome (r : Sc.report) =
  let head = match List.assoc_opt 0 r.Sc.chains with
    | Some c when c <> [] -> List.nth c (List.length c - 1)
    | _ -> ""
  in
  obj
    [
      ("ledgers_closed", string_of_int r.Sc.ledgers_closed);
      ("txs_submitted", string_of_int r.Sc.txs_submitted);
      ("txs_applied", string_of_int r.Sc.txs_applied);
      ("bytes_out_node0", string_of_int r.Sc.bytes_out_total);
      ("head_node0", str head);
      ("diverged", string_of_bool r.Sc.diverged);
      ("converged", string_of_bool r.Sc.converged);
    ]

type analysis = {
  e2e : Obs.Report.e2e;
  lives : Obs.Report.tx_life list;
  phases : Obs.Report.phases list;  (** every node's slots *)
  recoveries : Obs.Report.recovery list;
  heals : Obs.Report.heal_report list;
}

let analyse c =
  let trace = Obs.Collector.trace c in
  {
    e2e = Obs.Report.e2e_latency trace;
    lives = Obs.Report.tx_lives trace;
    phases =
      List.concat_map
        (fun node -> Obs.Report.slot_phases ~node trace)
        (List.init (Obs.Collector.n_nodes c) Fun.id);
    recoveries = Obs.Report.recoveries ~interval trace;
    heals = Obs.Report.heals ~interval trace;
  }

(* With observe on, the Report.* analyses count as part of the run; their
   own wall time comes back beside them. *)
let run_once p =
  let r = Sc.run p in
  let a =
    Option.map
      (fun c ->
        let a, report_s, _ = timed (fun () -> analyse c) in
        (a, report_s))
      r.Sc.telemetry
  in
  (r, a)

(* message kind -> (deliveries, bytes), over first and duplicate deliveries *)
let message_mix trace =
  let tbl = Hashtbl.create 4 in
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Flood_recv { kind; bytes; _ } | Obs.Event.Dedup_drop { kind; bytes; _ } ->
          let n, b = Option.value ~default:(0, 0) (Hashtbl.find_opt tbl kind) in
          Hashtbl.replace tbl kind (n + 1, b + bytes)
      | _ -> ());
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let counters =
  [
    "sim.events.fired";
    "overlay.msgs.received";
    "overlay.bytes.sent";
    "flood.dup_dropped";
    "flood.straggler_helped";
    "scp.nominate.recv";
    "scp.ballot.prepare";
    "scp.ballot.confirm";
    "scp.ballot.externalize";
    "scp.timeout.nomination";
    "scp.timeout.ballot";
    "ledger.closed";
    "bucket.merge";
    "bucket.spill";
    "fault.restarts";
  ]

let telemetry_json c a ~report_s =
  let trace = Obs.Collector.trace c in
  let agg = Obs.Collector.aggregate c in
  let apply_count, apply_sum =
    match Obs.Registry.summary agg "ledger.apply_ms" with
    | Some s -> (s.Obs.Registry.count, s.Obs.Registry.sum)
    | None -> (0, 0.0)
  in
  let replayed = ref 0 in
  Obs.Trace.iter trace (fun s ->
      match s.Obs.Trace.event with
      | Obs.Event.Catchup_done { replayed = k; _ } -> replayed := !replayed + k
      | _ -> ());
  let tx_latency =
    List.filter_map
      (fun l ->
        match (l.Obs.Report.submitted, l.Obs.Report.externalized) with
        | Some ts, Some (_, te) -> Some (te -. ts)
        | _ -> None)
      a.lives
  in
  let close_latency =
    List.map (fun p -> p.Obs.Report.nomination_s +. p.Obs.Report.ballot_s) a.phases
  in
  let recover =
    List.map (fun rc -> rc.Obs.Report.recover_s) a.recoveries
    @ List.concat_map (fun h -> List.map snd h.Obs.Report.lagged) a.heals
  in
  let q = a.e2e.Obs.Report.submit_to_externalize in
  obj
    [
      ( "counters",
        obj
          (List.map (fun k -> (k, string_of_int (Obs.Registry.counter_value agg k))) counters) );
      ("apply_ms_count", string_of_int apply_count);
      ("apply_ms_sum", num apply_sum);
      ("trace_events", string_of_int (Obs.Trace.length trace));
      ("replayed_ledgers", string_of_int !replayed);
      ("report_s", num report_s);
      ("tx_latency_s", arr num tx_latency);
      ("e2e_n", string_of_int q.Obs.Report.n);
      ("e2e_p50_s", num q.Obs.Report.p50);
      ("close_latency_s", arr num close_latency);
      ( "recover_s",
        arr (function Some s -> num s | None -> "null") recover );
      ("heals", string_of_int (List.length a.heals));
    ]

(* ---- per-layer probes ---- *)

(* Median seconds per call of [f], over batches of [n] calls run for about
   [budget] seconds (at least three batches). *)
let per_call ?(budget = 0.25) ~n f =
  let samples = ref [] and t_end = Unix.gettimeofday () +. budget in
  while List.length !samples < 3 || Unix.gettimeofday () < t_end do
    let t0 = Unix.gettimeofday () in
    for _ = 1 to n do
      f ()
    done;
    samples := ((Unix.gettimeofday () -. t0) /. float_of_int n) :: !samples
  done;
  median !samples

let scheme =
  (module Stellar_crypto.Sim_sig : Stellar_crypto.Sig_intf.SCHEME with type secret = string)

let payment (accounts : Stellar_node.Genesis.account array) i =
  let n = Array.length accounts in
  let src = accounts.(i mod n) and dst = accounts.((i + 1) mod n) in
  let tx =
    Stellar_ledger.Tx.make ~source:src.Stellar_node.Genesis.public ~seq_num:1
      [
        Stellar_ledger.Tx.op
          (Stellar_ledger.Tx.Payment
             {
               destination = dst.Stellar_node.Genesis.public;
               asset = Stellar_ledger.Asset.native;
               amount = 1000;
             });
      ]
  in
  Stellar_ledger.Tx.sign tx ~secret:src.Stellar_node.Genesis.secret
    ~public:src.Stellar_node.Genesis.public ~scheme

(* One message of each kind, shaped like the run's: payments from the
   workload's accounts, a tx set as large as the run's mean, and the four
   SCP pledges under the workload's quorum set. *)
let sample_messages spec accounts mix =
  let tx_bytes = Stellar_ledger.Tx.size (payment accounts 0) in
  let mean kind =
    match List.assoc_opt kind mix with Some (n, b) when n > 0 -> b / n | _ -> 0
  in
  let set_txs = max 1 (mean "txset" / tx_bytes) in
  let txset =
    Stellar_herder.Tx_set.make ~prev_header_hash:(String.make 32 'p')
      (List.init set_txs (payment accounts))
  in
  let value =
    Stellar_herder.Value.encode
      {
        Stellar_herder.Value.tx_set_hash = Stellar_herder.Tx_set.hash txset;
        close_time = 1;
        upgrades = [];
      }
  in
  let ballot = { Scp.Types.counter = 1; value } in
  let envelope pledge =
    Stellar_node.Message.Envelope
      {
        Scp.Types.statement =
          {
            node_id = (Topo.node_ids spec).(0);
            slot = 2;
            quorum_set = spec.Topo.qset_of 0;
            pledge;
          };
        signature = String.make 64 's';
      }
  in
  let envelopes =
    Scp.Types.
      [
        envelope (Nominate { votes = [ value ]; accepted = [ value ] });
        envelope
          (Prepare { ballot; prepared = Some ballot; prepared_prime = None; n_c = 1; n_h = 1 });
        envelope (Confirm { ballot; n_prepared = 1; n_commit = 1; n_h = 1 });
        envelope (Externalize { commit = ballot; n_h = 1 });
      ]
  in
  (* 1000 messages in the run's kind proportions *)
  let total = List.fold_left (fun acc (_, (n, _)) -> acc + n) 0 mix in
  List.concat_map
    (fun (kind, (n, _)) ->
      let k = int_of_float (Float.round (1000.0 *. float_of_int n /. float_of_int (max 1 total))) in
      List.init k (fun i ->
          match kind with
          | "envelope" -> List.nth envelopes (i mod 4)
          | "txset" -> Stellar_node.Message.Tx_set_msg txset
          | _ -> Stellar_node.Message.Tx_msg (payment accounts i)))
    mix

(* ns per KiB of [bytes] for one pass of [f] over [xs] *)
let ns_per_kib ~bytes xs f =
  let s = per_call ~n:1 (fun () -> List.iter (fun x -> ignore (f x)) xs) in
  s *. 1e9 /. (float_of_int bytes /. 1024.0)

let probe_engine ~depth =
  let e = Engine.create () in
  for i = 1 to depth do
    ignore (Engine.schedule e ~delay:(1e6 +. float_of_int i) ignore)
  done;
  let m = 10_000 in
  let batch () =
    let left = ref m in
    let rec tick () =
      decr left;
      if !left > 0 then ignore (Engine.schedule e ~delay:1e-6 tick)
    in
    ignore (Engine.schedule e ~delay:1e-6 tick);
    Engine.run ~until:(Engine.now e +. 1.0) e
  in
  per_call ~n:1 batch /. float_of_int m

let probes w spec ~mix ~pending =
  let genesis, accounts = Stellar_node.Genesis.make ~n_accounts:w.n_accounts () in
  let msgs = sample_messages spec accounts mix in
  let encoded = List.map Stellar_node.Message.encode msgs in
  let bytes = List.fold_left (fun acc s -> acc + String.length s) 0 encoded in
  let over_bytes xs f = ns_per_kib ~bytes xs f in
  List.iter
    (fun s ->
      if Result.is_error (Stellar_node.Message.decode s) then failwith "probe: decode failed")
    encoded;
  let secret, public = Stellar_crypto.Sim_sig.keypair ~seed:(String.make 32 'k') in
  let msg = Stellar_crypto.Sha256.digest "probe" in
  let signature = Stellar_crypto.Sim_sig.sign secret msg in
  let qset = spec.Topo.qset_of 0 in
  let ids = Array.to_list (Topo.node_ids spec) in
  let n_ids = List.length ids in
  let member k = let s = List.filteri (fun i _ -> i < k) ids in fun id -> List.mem id s in
  let in_quorum = member (((2 * n_ids) + 2) / 3) and blocking = member ((n_ids + 2) / 3) in
  (* queue depth and batch size: one ledger interval of arrivals *)
  let depth = max 1 (int_of_float (w.tx_rate *. interval)) in
  let txs = List.init depth (payment accounts) in
  let txq_add = ref [] and candidates = ref [] in
  let t_end = Unix.gettimeofday () +. 0.25 in
  while List.length !txq_add < 3 || Unix.gettimeofday () < t_end do
    let q = Stellar_herder.Tx_queue.create () in
    let (), add_s, _ =
      timed (fun () -> List.iter (fun tx -> ignore (Stellar_herder.Tx_queue.add q tx)) txs)
    in
    let c, cand_s, _ =
      timed (fun () -> Stellar_herder.Tx_queue.candidates q ~state:genesis ~max_ops:10_000)
    in
    if List.length c <> depth then failwith "probe: candidates lost transactions";
    txq_add := (add_s /. float_of_int depth) :: !txq_add;
    candidates := cand_s :: !candidates
  done;
  let apply () =
    Stellar_ledger.Apply.apply_tx_set Stellar_ledger.Apply.sim_ctx genesis ~close_time:1 txs
  in
  let state', results = apply () in
  if not (List.for_all (fun (_, o) -> Stellar_ledger.Apply.tx_succeeded o) results) then
    failwith "probe: a payment failed to apply";
  let _, dirty = Stellar_ledger.State.take_dirty state' in
  let batch =
    List.map
      (fun key -> { Stellar_bucket.Bucket.key; entry = Stellar_ledger.State.lookup state' key })
      dirty
  in
  let buckets = Stellar_bucket.Bucket_list.of_state genesis in
  (* sixteen consecutive batches, so level spills are included *)
  let add_batches () =
    let b = ref buckets in
    for _ = 1 to 16 do
      b := Stellar_bucket.Bucket_list.add_batch !b batch
    done
  in
  obj
    [
      ("sim.event_ns", num (1e9 *. probe_engine ~depth:(max 1 (int_of_float pending))));
      ("xdr.encode_ns_per_kib", num (over_bytes msgs Stellar_node.Message.encode));
      ("xdr.decode_ns_per_kib", num (over_bytes encoded Stellar_node.Message.decode));
      ("crypto.sha256_ns_per_kib", num (over_bytes encoded Stellar_crypto.Sha256.digest));
      ( "crypto.sigverify_us",
        num
          (1e6
          *. per_call ~n:1000 (fun () ->
                 ignore (Stellar_crypto.Sim_sig.verify ~public ~msg ~signature))) );
      ( "scp.quorum_check_us",
        num
          (1e6
          *. per_call ~n:100 (fun () ->
                 ignore (Scp.Quorum_set.is_quorum_slice qset in_quorum);
                 ignore (Scp.Quorum_set.is_v_blocking qset blocking))) );
      ("herder.txq_add_us", num (1e6 *. median !txq_add));
      ("herder.candidates_ms", num (1e3 *. median !candidates));
      ("ledger.apply_tx_set_ms", num (1e3 *. per_call ~n:1 (fun () -> ignore (apply ()))));
      ("bucket.add_batch_ms", num (1e3 *. per_call ~n:1 add_batches /. 16.0));
      ("probe_bytes", string_of_int bytes);
      ("probe_depth", string_of_int depth);
    ]

(* ---- commands ---- *)

let run w ~seed ~observe ~with_probes =
  let spec = w.spec () in
  let p = params w spec ~seed ~observe in
  let (r, a), (w0, w1), cpu_s =
    with_reference (fun () ->
        let w0 = Unix.gettimeofday () and c0 = cpu () in
        let r = run_once p in
        (r, (w0, Unix.gettimeofday ()), cpu () -. c0))
  in
  let heap = top_heap_mib () in
  let tele =
    match (r.Sc.telemetry, a) with
    | Some c, Some (a, report_s) ->
        let probes =
          if with_probes then
            [
              ( "probes",
                probes w spec
                  ~mix:(message_mix (Obs.Collector.trace c))
                  ~pending:
                    (Obs.Registry.gauge_value (Obs.Collector.sim_registry c) "sim.queue.pending")
              );
            ]
          else []
        in
        ("telemetry", telemetry_json c a ~report_s) :: probes
    | _ -> []
  in
  print_endline
    (obj
       ([
          ("wall_s", num (w1 -. w0));
          ("cpu_s", num cpu_s);
          ("interval", arr num [ w0; w1 ]);
          ("reference", probes_json ());
          ("peak_heap_mib", num heap);
          ("outcome", outcome r);
        ]
       @ tele))

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let workload_name = ref "" and seed = ref 1 and seconds = ref 1.0 in
  let observe = ref 0 and with_probes = ref false in
  let spec =
    [
      ("--workload", Arg.Set_string workload_name, "W");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--observe", Arg.Set_int observe, "0|1");
      ("--probes", Arg.Set with_probes, "");
    ]
  in
  Arg.parse_argv ~current:(ref 1) Sys.argv spec (fun _ -> ())
    "bench.exe setup|run [options]";
  match cmd with
  | "setup" -> print_endline (setup (workload !workload_name) ~seconds:!seconds)
  | "run" ->
      run (workload !workload_name) ~seed:!seed ~observe:(!observe = 1)
        ~with_probes:!with_probes
  | c -> failwith ("unknown command " ^ c)
