type stamped = { seq : int; time : float; node : int; event : Event.t }

type t = {
  mutable rev_events : stamped list;
  mutable n : int;
  capacity : int option;
  mutable dropped : int;
}

let create ?capacity () = { rev_events = []; n = 0; capacity; dropped = 0 }

let try_record t ~time ~node event =
  match t.capacity with
  | Some cap when t.n >= cap ->
      t.dropped <- t.dropped + 1;
      false
  | _ ->
      t.rev_events <- { seq = t.n; time; node; event } :: t.rev_events;
      t.n <- t.n + 1;
      true

let length t = t.n
let dropped t = t.dropped
let events t = List.rev t.rev_events
let iter t f = List.iter f (events t)

let to_jsonl t =
  let buf = Buffer.create (t.n * 64) in
  iter t (fun s ->
      Printf.bprintf buf {|{"seq":%d,"t":%.6f,"node":%d,"ev":"%s"%s}|} s.seq s.time s.node
        (Event.name s.event) (Event.fields s.event);
      Buffer.add_char buf '\n');
  Buffer.contents buf
