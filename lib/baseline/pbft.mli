(** A closed-membership PBFT-style baseline (pre-prepare / prepare / commit
    with view changes), run over the same simulated network as SCP.

    This is the "conventional Byzantine agreement" the paper contrasts with
    FBA (§2.1, §3.1): all [n = 3f + 1] replicas share one fixed membership
    and any [2f + 1] of them form a quorum.  The ablation bench compares its
    latency and message complexity with SCP's on identical networks. *)

type cluster

val create :
  engine:Stellar_sim.Engine.t ->
  rng:Stellar_sim.Rng.t ->
  n:int ->
  latency:Stellar_sim.Latency.t ->
  ?view_timeout:float ->
  on_decide:(seq:int -> string -> unit) ->
  unit ->
  cluster
(** [n] must be at least 4 ([f >= 1]). [on_decide] fires once per replica
    per sequence number. *)

val propose : cluster -> string -> unit
(** Submit a value to the current primary (a client request). *)

val crash : cluster -> int -> unit
val primary : cluster -> int
val view : cluster -> int
val decided : cluster -> int -> (int * string) list
(** Decisions (seq, value) recorded by a replica, oldest first. *)

val message_count : cluster -> int
(** Messages sent by all replicas (their [overlay.msgs.sent] counters). *)
