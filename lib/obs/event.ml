type timeout_kind = [ `Nomination | `Ballot ]
type drop_reason = [ `Duplicate | `Stale ]

type t =
  | Nominate_start of { slot : int }
  | Nomination_round of { slot : int; round : int }
  | Ballot_bump of { slot : int; counter : int }
  | Confirm_prepare of { slot : int }
  | Externalize of { slot : int }
  | Timeout_fired of { slot : int; kind : timeout_kind }
  | Flood_send of { kind : string; bytes : int; fanout : int; msg_id : int }
  | Flood_recv of {
      kind : string;
      bytes : int;
      src : int;
      send_id : int;
      link_s : float;
      wait_s : float;
      proc_s : float;
    }
  | Dedup_drop of { kind : string; src : int; bytes : int }
  | Apply_end of { slot : int; txs : int; ops : int }
  | Bucket_merge of { level : int; entries : int }
  | Tx_submit of { tx : string }
  | Tx_applied of { tx : string; slot : int; ok : bool }
  | Tx_dropped of { tx : string; reason : drop_reason }
  | Node_crash
  | Node_restart
  | Partition_begin of { groups : int list }
  | Partition_heal
  | Catchup_done of { from_seq : int; to_seq : int; replayed : int }

let name = function
  | Nominate_start _ -> "nominate.start"
  | Nomination_round _ -> "nomination.round"
  | Ballot_bump _ -> "ballot.bump"
  | Confirm_prepare _ -> "phase.confirm"
  | Externalize _ -> "phase.externalize"
  | Timeout_fired _ -> "timeout"
  | Flood_send _ -> "flood.send"
  | Flood_recv _ -> "flood.recv"
  | Dedup_drop _ -> "flood.dup"
  | Apply_end _ -> "apply.end"
  | Bucket_merge _ -> "bucket.merge"
  | Tx_submit _ -> "tx.submit"
  | Tx_applied _ -> "tx.applied"
  | Tx_dropped _ -> "tx.dropped"
  | Node_crash -> "fault.crash"
  | Node_restart -> "fault.restart"
  | Partition_begin _ -> "fault.partition"
  | Partition_heal -> "fault.heal"
  | Catchup_done _ -> "catchup.done"

(* Lowercase hex, for tx ids at output time only.  This library depends on
   nothing, so it carries its own copy of the crypto library's encoder. *)
let hex_digits = "0123456789abcdef"

let hex s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get hex_digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get hex_digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let timeout_kind_name = function `Nomination -> "nomination" | `Ballot -> "ballot"
let drop_reason_name = function `Duplicate -> "duplicate" | `Stale -> "stale"

(* Payload as a JSON fragment (comma-prefixed key/values, no braces).  All
   float formatting is fixed-width so traces are byte-identical across runs
   with the same seed. *)
let fields = function
  | Nominate_start { slot } -> Printf.sprintf {|,"slot":%d|} slot
  | Nomination_round { slot; round } -> Printf.sprintf {|,"slot":%d,"round":%d|} slot round
  | Ballot_bump { slot; counter } ->
      Printf.sprintf {|,"slot":%d,"counter":%d|} slot counter
  | Confirm_prepare { slot } | Externalize { slot } -> Printf.sprintf {|,"slot":%d|} slot
  | Timeout_fired { slot; kind } ->
      Printf.sprintf {|,"slot":%d,"kind":"%s"|} slot (timeout_kind_name kind)
  | Flood_send { kind; bytes; fanout; msg_id } ->
      Printf.sprintf {|,"kind":"%s","bytes":%d,"fanout":%d,"msg_id":%d|} kind bytes fanout
        msg_id
  | Flood_recv { kind; bytes; src; send_id; link_s; wait_s; proc_s } ->
      Printf.sprintf
        {|,"kind":"%s","bytes":%d,"src":%d,"send_id":%d,"link_s":%.9f,"wait_s":%.9f,"proc_s":%.9f|}
        kind bytes src send_id link_s wait_s proc_s
  | Dedup_drop { kind; src; bytes } ->
      Printf.sprintf {|,"kind":"%s","src":%d,"bytes":%d|} kind src bytes
  | Apply_end { slot; txs; ops } ->
      Printf.sprintf {|,"slot":%d,"txs":%d,"ops":%d|} slot txs ops
  | Bucket_merge { level; entries } ->
      Printf.sprintf {|,"level":%d,"entries":%d|} level entries
  | Tx_submit { tx } -> Printf.sprintf {|,"tx":"%s"|} (hex tx)
  | Tx_applied { tx; slot; ok } ->
      Printf.sprintf {|,"tx":"%s","slot":%d,"ok":%b|} (hex tx) slot ok
  | Tx_dropped { tx; reason } ->
      Printf.sprintf {|,"tx":"%s","reason":"%s"|} (hex tx) (drop_reason_name reason)
  | Node_crash | Node_restart | Partition_heal -> ""
  | Partition_begin { groups } ->
      Printf.sprintf {|,"groups":[%s]|}
        (String.concat "," (List.map string_of_int groups))
  | Catchup_done { from_seq; to_seq; replayed } ->
      Printf.sprintf {|,"from_seq":%d,"to_seq":%d,"replayed":%d|} from_seq to_seq replayed
