(** The trace event taxonomy: everything the experiments of §7 need to
    observe about a running validator, as typed constructors rather than log
    strings.  Events are stamped with simulated time and node id by
    {!Sink.emit}; the payload here is only the protocol-level fact.

    Two event families carry causal identity:

    - Flood events: every {!Flood_send} carries a globally monotone
      [msg_id]; the {!Flood_recv} it produces at the destination records
      that id as [send_id] plus the delivery's latency decomposition
      (link transit, receiver CPU-queue wait, modeled processing cost).
      Together they turn the trace into a cross-node causal DAG that
      {!Report.critical_paths} walks.
    - Transaction lifecycle events ([Tx_submit] → [Tx_applied] |
      [Tx_dropped]), keyed by the transaction hash, from which
      {!Report.tx_lives} and {!Report.e2e_latency} derive per-payment
      submit→apply latency (§7.3's end-to-end figure).  [tx] is the raw
      32-byte [Tx.signed.tx_hash], shared with the transaction rather than
      copied; it is hex-encoded only on output ({!fields},
      {!Report.tx_lives}).

    Each event records one fact: none repeats what another records in the
    same call at the same instant. *)

type timeout_kind = [ `Nomination | `Ballot ]

type drop_reason = [ `Duplicate | `Stale ]
(** Why a queued transaction was discarded: resubmitted while already
    pending, or its sequence number can no longer apply. *)

type t =
  | Nominate_start of { slot : int }  (** herder triggered nomination *)
  | Nomination_round of { slot : int; round : int }
  | Ballot_bump of { slot : int; counter : int }
      (** a new ballot counter; the slot's first is the nomination →
          balloting boundary of the phase breakdown *)
  | Confirm_prepare of { slot : int }  (** ballot protocol entered confirm *)
  | Externalize of { slot : int }
  | Timeout_fired of { slot : int; kind : timeout_kind }
  | Flood_send of { kind : string; bytes : int; fanout : int; msg_id : int }
      (** one flood decision: [fanout] peer copies of a [bytes]-sized msg,
          all tagged with the same monotone [msg_id] *)
  | Flood_recv of {
      kind : string;
      bytes : int;
      src : int;
      send_id : int;  (** [msg_id] of the {!Flood_send} that produced this *)
      link_s : float;  (** sampled link transit *)
      wait_s : float;  (** receiver CPU-queue wait before processing *)
      proc_s : float;  (** modeled per-message processing cost *)
    }  (** first delivery of a payload to this node *)
  | Dedup_drop of { kind : string; src : int; bytes : int }
      (** duplicate delivery suppressed by the flood dedup table; [bytes]
          is the wasted payload size (it still crossed the wire) *)
  | Apply_end of { slot : int; txs : int; ops : int }
      (** this node closed [slot]: its tx set of [txs] transactions and
          [ops] operations is applied *)
  | Bucket_merge of { level : int; entries : int }
      (** a bucket-list level absorbed a batch/spill of [entries] entries *)
  | Tx_submit of { tx : string }  (** client submitted at this node *)
  | Tx_applied of { tx : string; slot : int; ok : bool }
      (** applied to the ledger by this node's close of [slot], the slot
          whose externalized tx set holds it ([ok] = success outcome) *)
  | Tx_dropped of { tx : string; reason : drop_reason }
  | Node_crash  (** validator went down (fault injection); node id from stamp *)
  | Node_restart  (** validator came back up and began catching up *)
  | Partition_begin of { groups : int list }
      (** network split; [groups] is the partition-group id of each node *)
  | Partition_heal  (** all partition groups rejoined *)
  | Catchup_done of { from_seq : int; to_seq : int; replayed : int }
      (** state rebuilt from the archive checkpoint at [from_seq] (0 = no
          archive, restarting from genesis) and replayed to [to_seq],
          re-applying [replayed] ledgers; slots beyond this are recovered
          live via straggler help *)

val name : t -> string
(** Stable dotted event name ("flood.send", "tx.applied", ...). *)

val hex : string -> string
(** Lowercase hex of every byte: how tx ids are printed. *)

val fields : t -> string
(** Payload as a comma-prefixed JSON fragment; deterministic formatting.
    Tx ids appear as lowercase hex. *)
