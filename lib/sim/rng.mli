(** Deterministic pseudo-random numbers (SplitMix64).

    All experiment randomness flows through explicitly seeded generators so
    that every simulation run is reproducible bit-for-bit. *)

type t

val create : seed:int -> t

val split : t -> t
(** Derive an independent stream (e.g. one per node). *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
val bytes : t -> int -> string

val exponential : t -> mean:float -> float
(** Exponentially distributed sample, for Poisson arrivals. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
