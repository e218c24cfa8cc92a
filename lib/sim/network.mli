(** Simulated point-to-point message network.

    Nodes are integer indices [0 .. n-1].  Messages are delivered through the
    {!Engine} after a sampled link latency; crashed nodes and network
    partitions silently drop traffic, as a real lossy network would.  Byte
    and message counters feed the resource-usage experiment (§7.4). *)

type 'msg t

type delivery = {
  msg_id : int;  (** sender's tag from {!send}[ ?msg_id]; -1 when untagged *)
  sent_at : float;  (** simulated time {!send} was called *)
  link_s : float;  (** sampled link transit *)
  wait_s : float;  (** time spent queued behind the receiver's busy CPU *)
  proc_s : float;  (** modeled per-message processing cost *)
}
(** Causal metadata handed to the receive handler with every delivery:
    delivery time = [sent_at + link_s + wait_s + proc_s].  The [msg_id]
    lets tracing link a [Flood_recv] back to the exact [Flood_send] that
    produced it (the cross-node causal DAG of the observability layer). *)

val create :
  engine:Engine.t ->
  rng:Rng.t ->
  n:int ->
  latency:Latency.t ->
  ?processing:(int -> float) ->
  ?obs:(int -> Stellar_obs.Sink.t) ->
  unit ->
  'msg t
(** [processing size] models the receiver's per-message CPU cost
    (deserialization + signature verification) in seconds; messages queue
    at a busy receiver.  This is what makes consensus latency grow with the
    validator count (Fig. 11) — with free message processing it would not.
    Default: no cost.

    [obs] supplies the per-node observability sink; message/byte accounting
    is kept in each sink's registry under [overlay.msgs.sent],
    [overlay.msgs.received], [overlay.bytes.sent] and
    [overlay.bytes.received].  Without [obs] the network still accounts
    traffic, into private metrics-only registries. *)

val engine : 'msg t -> Engine.t

val set_handler : 'msg t -> int -> (src:int -> info:delivery -> 'msg -> unit) -> unit

val send : 'msg t -> src:int -> dst:int -> size:int -> ?msg_id:int -> 'msg -> unit
(** Queue a message for delivery.  [size] is the serialized size in bytes,
    used only for accounting.  Self-sends are delivered with zero latency.
    [msg_id] (from {!alloc_msg_id}) tags the delivery's {!delivery.msg_id}
    so the receiver can attribute it to the send that produced it. *)

val alloc_msg_id : 'msg t -> int
(** Next globally monotone message id (1, 2, ...).  One id per flood
    decision: all fanout copies of the same broadcast share it. *)

val set_down : 'msg t -> int -> bool -> unit
(** A down node neither sends nor receives, and arrivals while down do not
    accrue CPU-queue busy time.  Bringing a node back up resets its CPU
    queue to idle (the pre-crash backlog did not survive the reboot). *)

val is_down : 'msg t -> int -> bool

val set_partition : 'msg t -> (int -> int) -> unit
(** Assign each node to a partition group; messages between different groups
    are dropped.  [set_partition t (fun _ -> 0)] heals the network. *)

val set_loss_rate : 'msg t -> float -> unit
(** Independent per-message drop probability. *)

val registry : 'msg t -> int -> Stellar_obs.Registry.t
(** The registry holding node [i]'s [overlay.*] traffic counters (the one
    from [obs] when supplied at {!create}). *)
