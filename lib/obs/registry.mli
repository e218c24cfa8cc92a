(** Per-node metric registry: counters, gauges and histograms
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

val histogram : t -> string -> histogram
(** A count/sum/max accumulator of observed values.  Exact percentiles are
    {!Report.quantiles} over the samples themselves. *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

type summary = { count : int; sum : float; max : float }

(* Read-side: value lookups by name (0 / 0.0 / None when absent). *)
val counter_value : t -> string -> int
val gauge_value : t -> string -> float
val summary : t -> string -> summary option

val names : t -> string list
(** Sorted. *)

val merge : t list -> t
