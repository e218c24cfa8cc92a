type counter = { mutable count : int }
type gauge = { mutable value : float }

type histogram = { mutable n : int; mutable sum : float; mutable hmax : float }

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 64

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

let histogram t name =
  match Hashtbl.find_opt t name with
  | Some (Histogram h) -> h
  | Some m -> mismatch name "histogram" m
  | None ->
      let h = { n = 0; sum = 0.0; hmax = 0.0 } in
      Hashtbl.add t name (Histogram h);
      h

let incr c = c.count <- c.count + 1
let add c k = c.count <- c.count + k
let set g v = g.value <- v

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v > h.hmax then h.hmax <- v

type summary = { count : int; sum : float; max : float }

let counter_value t name =
  match Hashtbl.find_opt t name with Some (Counter c) -> c.count | _ -> 0

let gauge_value t name =
  match Hashtbl.find_opt t name with Some (Gauge g) -> g.value | _ -> 0.0

let summary t name =
  match Hashtbl.find_opt t name with
  | Some (Histogram h) -> Some { count = h.n; sum = h.sum; max = h.hmax }
  | _ -> None

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
          let d = histogram dst name in
          d.n <- d.n + h.n;
          d.sum <- d.sum +. h.sum;
          if h.hmax > d.hmax then d.hmax <- h.hmax)
    src

let merge regs =
  let dst = create () in
  List.iter (fun r -> merge_into ~dst r) regs;
  dst
