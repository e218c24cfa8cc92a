type t = {
  driver : Driver.t;
  local_id : Types.node_id;
  mutable qset : Quorum_set.t;
  slots : (int, Slot.t) Hashtbl.t;
}

let create ~driver ~local_id ~qset =
  if not (Quorum_set.is_sane qset) then invalid_arg "Protocol.create: insane quorum set";
  { driver; local_id; qset; slots = Hashtbl.create 16 }

let set_quorum_set t qset =
  if not (Quorum_set.is_sane qset) then
    invalid_arg "Protocol.set_quorum_set: insane quorum set";
  t.qset <- qset;
  (* slots read the quorum set dynamically; push them forward in case the
     new configuration unblocks federated voting *)
  Hashtbl.iter (fun _ s -> Slot.reevaluate s) t.slots

let quorum_set t = t.qset

let slot t index =
  match Hashtbl.find_opt t.slots index with
  | Some s -> s
  | None ->
      let s = Slot.create ~index ~local_id:t.local_id ~get_qset:(fun () -> t.qset) ~driver:t.driver in
      Hashtbl.add t.slots index s;
      s

let nominate t ~slot:index ~value ~prev = Slot.nominate (slot t index) ~value ~prev

let receive_envelope t env =
  Slot.process_envelope (slot t env.Types.statement.Types.slot) env

let latest_envelopes t ~slot:index =
  match Hashtbl.find_opt t.slots index with Some s -> Slot.latest_envelopes s | None -> []

let purge_slots t ~below =
  Hashtbl.filter_map_inplace (fun k s -> if k < below then None else Some s) t.slots
