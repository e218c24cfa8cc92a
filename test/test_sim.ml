open Stellar_sim

(* ---------- Engine ---------- *)

let engine_tests =
  let open Alcotest in
  [
    test_case "events fire in time order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        ignore (Engine.schedule e ~delay:3.0 (fun () -> log := 3 :: !log));
        ignore (Engine.schedule e ~delay:1.0 (fun () -> log := 1 :: !log));
        ignore (Engine.schedule e ~delay:2.0 (fun () -> log := 2 :: !log));
        Engine.run e;
        check (list int) "order" [ 1; 2; 3 ] (List.rev !log));
    test_case "equal times fire in scheduling order" `Quick (fun () ->
        let e = Engine.create () in
        let log = ref [] in
        for i = 1 to 5 do
          ignore (Engine.schedule e ~delay:1.0 (fun () -> log := i :: !log))
        done;
        Engine.run e;
        check (list int) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !log));
    test_case "clock advances to event time" `Quick (fun () ->
        let e = Engine.create () in
        let seen = ref 0.0 in
        ignore (Engine.schedule e ~delay:5.5 (fun () -> seen := Engine.now e));
        Engine.run e;
        check (float 1e-9) "time" 5.5 !seen);
    test_case "cancelled timers do not fire" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        let timer = Engine.schedule e ~delay:1.0 (fun () -> fired := true) in
        Engine.cancel timer;
        Engine.run e;
        check bool "not fired" false !fired);
    test_case "run ~until stops the clock" `Quick (fun () ->
        let e = Engine.create () in
        let fired = ref false in
        ignore (Engine.schedule e ~delay:10.0 (fun () -> fired := true));
        Engine.run ~until:5.0 e;
        check bool "not yet" false !fired;
        check (float 1e-9) "clock at limit" 5.0 (Engine.now e);
        Engine.run e;
        check bool "eventually" true !fired);
    test_case "events may schedule events" `Quick (fun () ->
        let e = Engine.create () in
        let count = ref 0 in
        let rec tick () =
          incr count;
          if !count < 10 then ignore (Engine.schedule e ~delay:1.0 tick)
        in
        ignore (Engine.schedule e ~delay:1.0 tick);
        Engine.run e;
        check int "ten ticks" 10 !count;
        check (float 1e-9) "clock" 10.0 (Engine.now e));
  ]

let clock_monotonic_prop =
  QCheck.Test.make ~name:"clock is monotonic across random schedules" ~count:100
    QCheck.(small_list (pair (float_bound_inclusive 10.0) (float_bound_inclusive 5.0)))
    (fun events ->
      let e = Engine.create () in
      let ok = ref true in
      let last = ref 0.0 in
      List.iter
        (fun (at, extra) ->
          ignore
            (Engine.schedule e ~delay:at (fun () ->
                 if Engine.now e < !last then ok := false;
                 last := Engine.now e;
                 (* events scheduling further events must also respect time *)
                 ignore
                   (Engine.schedule e ~delay:extra (fun () ->
                        if Engine.now e < !last then ok := false;
                        last := Engine.now e)))))
        events;
      Engine.run e;
      !ok)

(* ---------- Engine against a reference model ---------- *)

module type SCHEDULER = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> float
  val schedule : t -> delay:float -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val run : ?until:float -> t -> unit
  val pending : t -> int
end

(* The engine's contract as a sorted list keyed by (time, seq). *)
module Model : SCHEDULER = struct
  type timer = { mutable cancelled : bool; fire : unit -> unit }
  type t = { mutable clock : float; mutable seq : int; mutable queue : (float * int * timer) list }

  let create () = { clock = 0.0; seq = 0; queue = [] }
  let now t = t.clock

  let schedule t ~delay fire =
    let timer = { cancelled = false; fire } in
    let ev = (t.clock +. Float.max 0.0 delay, t.seq, timer) in
    t.seq <- t.seq + 1;
    t.queue <- List.merge (fun (a, i, _) (b, j, _) -> compare (a, i) (b, j)) [ ev ] t.queue;
    timer

  let cancel timer = timer.cancelled <- true

  let rec run ?until t =
    match (t.queue, until) with
    | [], _ -> ()
    | (time, _, _) :: _, Some limit when time > limit -> t.clock <- limit
    | (time, _, timer) :: rest, _ ->
        t.queue <- rest;
        t.clock <- Float.max t.clock time;
        if not timer.cancelled then timer.fire ();
        run ?until t

  let pending t = List.length t.queue
end

(* A random schedule.  Delays are multiples of 0.5 s (some negative, which
   the schedulers clamp to 0), so many events share a time.  Event [id]
   (numbered in scheduling order) schedules the delays in
   [spawn.(id mod _)] while fewer than [cap] events exist, and cancels
   event [id - k] for [k = kill.(id mod _)] when [k > 0].  The run
   proceeds in chunks up to each of [chunks] (cumulative), then drains. *)
type schedule = {
  initial : float list;
  spawn : float list array;
  kill : int array;
  chunks : float list;
  cap : int;
}

module Play (S : SCHEDULER) = struct
  (* (id, fire time, 0) per fired event, then (-1, clock, pending) after
     each chunk and after the drain *)
  let play s =
    let e = S.create () in
    let log = ref [] in
    let timers = Hashtbl.create 64 in
    let rec add delay =
      let id = Hashtbl.length timers in
      Hashtbl.replace timers id (S.schedule e ~delay (fun () -> fire id))
    and fire id =
      log := (id, S.now e, 0) :: !log;
      if Hashtbl.length timers < s.cap then List.iter add s.spawn.(id mod Array.length s.spawn);
      let k = s.kill.(id mod Array.length s.kill) in
      if k > 0 then Option.iter S.cancel (Hashtbl.find_opt timers (id - k))
    in
    List.iter add s.initial;
    let limit = ref 0.0 in
    List.iter
      (fun step ->
        limit := !limit +. step;
        S.run ~until:!limit e;
        log := (-1, S.now e, S.pending e) :: !log)
      s.chunks;
    S.run e;
    List.rev ((-1, S.now e, S.pending e) :: !log)
end

module Play_engine = Play (Engine)
module Play_model = Play (Model)

let engine_model_prop =
  let open QCheck.Gen in
  let delay = map (fun k -> 0.5 *. float_of_int (k - 1)) (int_bound 7) in
  let gen =
    map
      (fun ((initial, spawn), (kill, chunks), cap) -> { initial; spawn; kill; chunks; cap })
      (triple
         (pair
            (list_size (int_bound 300) delay)
            (array_size (int_range 1 8) (list_size (int_bound 3) delay)))
         (pair (array_size (int_range 1 8) (int_bound 12)) (list_size (int_bound 6) delay))
         (int_range 0 600))
  in
  let print s =
    Printf.sprintf "%d initial, spawn %s, kill %s, chunks %s, cap %d" (List.length s.initial)
      (String.concat ";" (Array.to_list (Array.map (fun l -> string_of_int (List.length l)) s.spawn)))
      (String.concat ";" (Array.to_list (Array.map string_of_int s.kill)))
      (String.concat ";" (List.map string_of_float s.chunks))
      s.cap
  in
  QCheck.Test.make ~name:"fires in (time, seq) order" ~count:200
    (QCheck.make ~print gen) (fun s -> Play_engine.play s = Play_model.play s)

(* ---------- Rng ---------- *)

let rng_tests =
  let open Alcotest in
  [
    test_case "deterministic for same seed" `Quick (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
        for _ = 1 to 100 do
          check int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
        done);
    test_case "different seeds differ" `Quick (fun () ->
        let a = Rng.create ~seed:7 and b = Rng.create ~seed:8 in
        let same = ref 0 in
        for _ = 1 to 50 do
          if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
        done;
        check bool "mostly different" true (!same < 5));
    test_case "split gives independent stream" `Quick (fun () ->
        let a = Rng.create ~seed:7 in
        let b = Rng.split a in
        let xa = Rng.int a 1000 and xb = Rng.int b 1000 in
        ignore xa;
        ignore xb);
    test_case "float bounds" `Quick (fun () ->
        let r = Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let f = Rng.float r 3.0 in
          check bool "in range" true (f >= 0.0 && f < 3.0)
        done);
    test_case "exponential mean approx" `Quick (fun () ->
        let r = Rng.create ~seed:2 in
        let n = 20000 in
        let total = ref 0.0 in
        for _ = 1 to n do
          total := !total +. Rng.exponential r ~mean:0.2
        done;
        let mean = !total /. float_of_int n in
        check bool "close to 0.2" true (abs_float (mean -. 0.2) < 0.01));
    test_case "shuffle is a permutation" `Quick (fun () ->
        let r = Rng.create ~seed:3 in
        let arr = Array.init 50 Fun.id in
        Rng.shuffle r arr;
        let sorted = Array.copy arr in
        Array.sort Int.compare sorted;
        check (array int) "permutation" (Array.init 50 Fun.id) sorted);
  ]

(* ---------- Network ---------- *)

let network_tests =
  let open Alcotest in
  let setup ?(latency = Latency.Constant 0.01) ?processing ?(seed = 5) n =
    let engine = Engine.create () in
    let rng = Rng.create ~seed in
    let net = Network.create ~engine ~rng ~n ~latency ?processing () in
    (engine, net)
  in
  [
    test_case "delivers with latency" `Quick (fun () ->
        let engine, net = setup 2 in
        let got = ref None in
        Network.set_handler net 1 (fun ~src ~info:_ msg -> got := Some (src, msg, Engine.now engine));
        Network.send net ~src:0 ~dst:1 ~size:100 "hello";
        Engine.run engine;
        match !got with
        | Some (src, msg, time) ->
            check int "src" 0 src;
            check string "msg" "hello" msg;
            check (float 1e-9) "latency" 0.01 time
        | None -> fail "not delivered");
    test_case "down receiver drops" `Quick (fun () ->
        let engine, net = setup 2 in
        let got = ref false in
        Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> got := true);
        Network.set_down net 1 true;
        Network.send net ~src:0 ~dst:1 ~size:10 "x";
        Engine.run engine;
        check bool "dropped" false !got);
    test_case "down sender drops" `Quick (fun () ->
        let engine, net = setup 2 in
        let got = ref false in
        Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> got := true);
        Network.set_down net 0 true;
        Network.send net ~src:0 ~dst:1 ~size:10 "x";
        Engine.run engine;
        check bool "dropped" false !got);
    test_case "crash while in flight drops" `Quick (fun () ->
        let engine, net = setup 2 in
        let got = ref false in
        Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> got := true);
        Network.send net ~src:0 ~dst:1 ~size:10 "x";
        ignore (Engine.schedule engine ~delay:0.005 (fun () -> Network.set_down net 1 true));
        Engine.run engine;
        check bool "dropped mid-flight" false !got);
    test_case "partition blocks cross traffic only" `Quick (fun () ->
        let engine, net = setup 3 in
        let got = ref [] in
        for i = 0 to 2 do
          Network.set_handler net i (fun ~src ~info:_ msg -> got := (src, i, msg) :: !got)
        done;
        Network.set_partition net (fun i -> if i < 2 then 0 else 1);
        Network.send net ~src:0 ~dst:1 ~size:1 "ok";
        Network.send net ~src:0 ~dst:2 ~size:1 "blocked";
        Engine.run engine;
        check int "one delivery" 1 (List.length !got));
    test_case "stats count bytes" `Quick (fun () ->
        let engine, net = setup 2 in
        Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> ());
        Network.send net ~src:0 ~dst:1 ~size:123 "m";
        Engine.run engine;
        let counter i name =
          Stellar_obs.Registry.counter_value (Network.registry net i) name
        in
        check int "sent" 123 (counter 0 "overlay.bytes.sent");
        check int "received" 123 (counter 1 "overlay.bytes.received"));
    test_case "busy receiver serves in arrival order" `Quick (fun () ->
        (* "first" is sent first but lands after "second", while the
           receiver is still processing "second": it waits out the rest of
           that processing, not the other way round (seed 1 samples the
           slower link for the first send) *)
        let engine, net =
          setup ~latency:(Latency.Uniform { lo = 0.1; hi = 0.2 }) ~processing:(fun _ -> 0.5) ~seed:1 2
        in
        let got = ref [] in
        Network.set_handler net 1 (fun ~src:_ ~info msg -> got := (msg, info, Engine.now engine) :: !got);
        Network.send net ~src:0 ~dst:1 ~size:1 "first";
        Network.send net ~src:0 ~dst:1 ~size:1 "second";
        Engine.run engine;
        match List.rev !got with
        | [ ("second", b, b_at); ("first", a, a_at) ] ->
            let open Network in
            check bool "first's link is the slower" true (a.link_s > b.link_s);
            check (float 1e-12) "second did not wait" 0.0 b.wait_s;
            check (float 1e-12) "first waits out second's remaining processing"
              (b.sent_at +. b.link_s +. b.proc_s -. (a.sent_at +. a.link_s))
              a.wait_s;
            List.iter
              (fun (info, at) ->
                check (float 1e-12) "proc" 0.5 info.proc_s;
                check (float 1e-12) "handler time = sent_at + link + wait + proc"
                  (info.sent_at +. info.link_s +. info.wait_s +. info.proc_s)
                  at)
              [ (b, b_at); (a, a_at) ]
        | _ -> fail "expected second, then first");
    test_case "loss rate drops roughly the right fraction" `Quick (fun () ->
        let engine, net = setup 2 in
        let got = ref 0 in
        Network.set_handler net 1 (fun ~src:_ ~info:_ _ -> incr got);
        Network.set_loss_rate net 0.5;
        for _ = 1 to 1000 do
          Network.send net ~src:0 ~dst:1 ~size:1 "m"
        done;
        Engine.run engine;
        check bool "about half" true (!got > 350 && !got < 650));
  ]

let latency_tests =
  let open Alcotest in
  [
    test_case "constant" `Quick (fun () ->
        let r = Rng.create ~seed:1 in
        check (float 1e-12) "exact" 0.4 (Latency.sample (Latency.Constant 0.4) r));
    test_case "uniform in bounds" `Quick (fun () ->
        let r = Rng.create ~seed:1 in
        for _ = 1 to 1000 do
          let s = Latency.sample (Latency.Uniform { lo = 0.1; hi = 0.2 }) r in
          check bool "bounds" true (s >= 0.1 && s < 0.2)
        done);
    test_case "jittered tail" `Quick (fun () ->
        let r = Rng.create ~seed:1 in
        let model =
          Latency.Jittered { base = 0.01; jitter = 0.01; spike_prob = 0.2; spike = 1.0 }
        in
        let spikes = ref 0 in
        for _ = 1 to 1000 do
          if Latency.sample model r > 0.05 then incr spikes
        done;
        check bool "some spikes" true (!spikes > 100 && !spikes < 350));
  ]

let () =
  Alcotest.run "sim"
    [
      ("engine", engine_tests @ [ QCheck_alcotest.to_alcotest engine_model_prop ]);
      ("clock", [ QCheck_alcotest.to_alcotest clock_monotonic_prop ]);
      ("rng", rng_tests);
      ("network", network_tests);
      ("latency", latency_tests);
    ]
