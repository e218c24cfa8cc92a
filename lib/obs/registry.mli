(** Per-node metric registry: counters, gauges and fixed-bucket histograms
    keyed by dotted names ("scp.ballot.prepare", "ledger.apply_ms", ...).

    Registering a name twice returns the same handle; registering it with a
    different metric kind raises [Invalid_argument].  Registries from many
    nodes aggregate with {!merge} (counters and histograms add; gauges sum).

    Handles ([counter], [gauge], [histogram]) are plain mutable records so
    hot paths pay a field update, not a hash lookup. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
val gauge : t -> string -> gauge

val detached_counter : unit -> counter
val detached_gauge : unit -> gauge
(** Handles in no registry: updates to them are never read. *)

val histogram : ?bounds:float array -> t -> string -> histogram
(** [bounds] are sorted bucket upper bounds; an overflow bucket is implicit.
    Default: {!default_bounds}. *)

val default_bounds : float array
(** 100 µs … 60 s in a 1–2.5–5 progression — the latency range of §7. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val percentile_of : histogram -> float -> float
(** Nearest-rank estimate from the bucket counts, using the same rank
    convention as {!Report.percentile}; the result is the
    upper bound of the bucket holding the rank (clipped to the observed
    max), so samples placed exactly on bucket bounds reproduce the exact
    percentile. *)

type summary = { count : int; sum : float; p50 : float; p75 : float; p99 : float; max : float }

(* Read-side: value lookups by name (0 / 0.0 / None when absent). *)
val counter_value : t -> string -> int
val gauge_value : t -> string -> float
val summary : t -> string -> summary option

val names : t -> string list
(** Sorted. *)

val merge : t list -> t
