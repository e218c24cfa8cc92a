type stamped = { seq : int; time : float; node : int; event : Event.t }

(* Events live in fixed-size chunks of parallel columns; event [i] is slot
   [i land chunk_mask] of chunk [i lsr chunk_bits], and [i] is its sequence
   number.  Per event that is an unboxed float, an int and a pointer, with no
   cons cell or stamped record behind it. *)
let chunk_bits = 12
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

type chunk = { times : float array; nodes : int array; events : Event.t array }

type t = {
  mutable chunks : chunk array;  (* the first [n / chunk_size], rounded up, are in use *)
  mutable n : int;
}

let create () = { chunks = [||]; n = 0 }

(* The chunk event [t.n] goes into, made when it is the first of one *)
let chunk_for_append t =
  let ci = t.n lsr chunk_bits in
  if t.n land chunk_mask <> 0 then t.chunks.(ci)
  else begin
    let c =
      {
        times = Array.make chunk_size 0.0;
        nodes = Array.make chunk_size 0;
        events = Array.make chunk_size Event.Node_crash;
      }
    in
    if ci = Array.length t.chunks then begin
      (* slots past [ci] are placeholders until their turn comes *)
      let grown = Array.make (max 4 (2 * ci)) c in
      Array.blit t.chunks 0 grown 0 ci;
      t.chunks <- grown
    end;
    t.chunks.(ci) <- c;
    c
  end

let record t ~time ~node event =
  let c = chunk_for_append t in
  let j = t.n land chunk_mask in
  c.times.(j) <- time;
  c.nodes.(j) <- node;
  c.events.(j) <- event;
  t.n <- t.n + 1

let length t = t.n

let iter t f =
  for i = 0 to t.n - 1 do
    let c = t.chunks.(i lsr chunk_bits) and j = i land chunk_mask in
    f { seq = i; time = c.times.(j); node = c.nodes.(j); event = c.events.(j) }
  done

let events t =
  let acc = ref [] in
  iter t (fun s -> acc := s :: !acc);
  List.rev !acc

let to_jsonl t =
  let buf = Buffer.create (t.n * 64) in
  iter t (fun s ->
      Printf.bprintf buf {|{"seq":%d,"t":%.6f,"node":%d,"ev":"%s"%s}|} s.seq s.time s.node
        (Event.name s.event) (Event.fields s.event);
      Buffer.add_char buf '\n');
  Buffer.contents buf
