type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = {
  bounds : float array;  (* sorted upper bounds; one overflow bucket after *)
  counts : int array;  (* length = Array.length bounds + 1 *)
  mutable n : int;
  mutable sum : float;
  mutable hmax : float;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 64

(* Default buckets for durations in seconds: 100 us .. 60 s, roughly
   1-2.5-5 per decade, matching the latency ranges of §7. *)
let default_bounds =
  [|
    0.0001; 0.00025; 0.0005; 0.001; 0.0025; 0.005; 0.01; 0.025; 0.05; 0.1; 0.25;
    0.5; 1.0; 2.5; 5.0; 10.0; 25.0; 60.0;
  |]

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let mismatch name want got =
  invalid_arg
    (Printf.sprintf "Registry: %s already registered as a %s, wanted a %s" name
       (kind_name got) want)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (Counter c) -> c
  | Some m -> mismatch name "counter" m
  | None ->
      let c = { count = 0 } in
      Hashtbl.add t name (Counter c);
      c

let gauge t name =
  match Hashtbl.find_opt t name with
  | Some (Gauge g) -> g
  | Some m -> mismatch name "gauge" m
  | None ->
      let g = { value = 0.0 } in
      Hashtbl.add t name (Gauge g);
      g

let detached_counter () = { count = 0 }
let detached_gauge () = { value = 0.0 }

let histogram ?(bounds = default_bounds) t name =
  match Hashtbl.find_opt t name with
  | Some (Histogram h) -> h
  | Some m -> mismatch name "histogram" m
  | None ->
      let h =
        {
          bounds;
          counts = Array.make (Array.length bounds + 1) 0;
          n = 0;
          sum = 0.0;
          hmax = 0.0;
        }
      in
      Hashtbl.add t name (Histogram h);
      h

let incr c = c.count <- c.count + 1
let add c k = c.count <- c.count + k
let set g v = g.value <- v

let observe h v =
  let nb = Array.length h.bounds in
  let rec bucket i = if i >= nb || v <= h.bounds.(i) then i else bucket (i + 1) in
  let i = bucket 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v > h.hmax then h.hmax <- v

(* Same rank convention as Report.percentile (nearest-rank on
   index [q * (n-1)]): when every sample sits exactly on a bucket bound, the
   estimate equals the exact percentile. *)
let percentile_of h q =
  if h.n = 0 then 0.0
  else begin
    let rank = int_of_float (q *. float_of_int (h.n - 1)) + 1 in
    let rank = max 1 (min h.n rank) in
    let nb = Array.length h.bounds in
    let rec go i cum =
      if i >= nb then h.hmax
      else
        let cum = cum + h.counts.(i) in
        if cum >= rank then Float.min h.bounds.(i) h.hmax else go (i + 1) cum
    in
    go 0 0
  end

type summary = { count : int; sum : float; p50 : float; p75 : float; p99 : float; max : float }

let summarize h =
  {
    count = h.n;
    sum = h.sum;
    p50 = percentile_of h 0.50;
    p75 = percentile_of h 0.75;
    p99 = percentile_of h 0.99;
    max = h.hmax;
  }

let counter_value t name =
  match Hashtbl.find_opt t name with Some (Counter c) -> c.count | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t name with Some (Gauge g) -> g.value | _ -> 0.0

let summary t name =
  match Hashtbl.find_opt t name with Some (Histogram h) -> Some (summarize h) | _ -> None

let names t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])

let merge_into ~dst src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> add (counter dst name) c.count
      | Gauge g ->
          (* gauges aggregate by summation across nodes (e.g. total memo-table
             entries network-wide) *)
          let d = gauge dst name in
          d.value <- d.value +. g.value
      | Histogram h ->
          let d = histogram ~bounds:h.bounds dst name in
          if d.bounds <> h.bounds then
            invalid_arg ("Registry.merge_into: bucket bounds differ for " ^ name);
          Array.iteri (fun i c -> d.counts.(i) <- d.counts.(i) + c) h.counts;
          d.n <- d.n + h.n;
          d.sum <- d.sum +. h.sum;
          if h.hmax > d.hmax then d.hmax <- h.hmax)
    src

let merge regs =
  let dst = create () in
  List.iter (fun r -> merge_into ~dst r) regs;
  dst
