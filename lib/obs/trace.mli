(** Structured trace: an append-only sequence of typed {!Event.t}s stamped
    with simulated time, node id and a global sequence number.

    Because the simulator is deterministic, two runs with the same seed
    produce byte-identical {!to_jsonl} output — the property the
    reproducibility tests and [BENCH_*.json] artifacts rely on.

    Storage is columnar: fixed-size chunks of parallel arrays (times, node
    ids, events), with the sequence number implicit in the position.  A
    {!stamped} record is only a view, built on the fly by {!iter}. *)

type stamped = { seq : int; time : float; node : int; event : Event.t }

val chunk_size : int
(** Events per storage chunk. *)

type t

val create : unit -> t
val record : t -> time:float -> node:int -> Event.t -> unit
(** Append one event; its [seq] is {!length} before the call. *)

val length : t -> int

val iter : t -> (stamped -> unit) -> unit
(** In record order (chronological: the engine fires events in time order),
    with [seq] = 0, 1, ...  Walks the columns in place; nothing is copied. *)

val events : t -> stamped list
(** {!iter}'s stream as a list. *)

val to_jsonl : t -> string
(** One JSON object per line: [{"seq":..,"t":..,"node":..,"ev":"...",...}]. *)
