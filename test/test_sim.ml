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

(* ---------- Heap ---------- *)

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

let heap_prop =
  QCheck.Test.make ~name:"heap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:Int.compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort Int.compare xs)

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
  let setup ?(latency = Latency.Constant 0.01) n =
    let engine = Engine.create () in
    let rng = Rng.create ~seed:5 in
    let net = Network.create ~engine ~rng ~n ~latency () in
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
      ("engine", engine_tests);
      ("heap", [ QCheck_alcotest.to_alcotest heap_prop ]);
      ("clock", [ QCheck_alcotest.to_alcotest clock_monotonic_prop ]);
      ("rng", rng_tests);
      ("network", network_tests);
      ("latency", latency_tests);
    ]
