(* Word arithmetic is done in native ints masked to 32 bits, which is both
   simpler and faster than boxed [Int32] on a 64-bit host.  A rotation
   works on [x lor (x lsl 32)], the word held twice over: shifting that
   right by n < 32 leaves x rotated right by n in the low 32 bits, so
   several rotations of one word share the doubling. *)

let mask32 = 0xFFFFFFFF
let double x = x lor (x lsl 32)

type ctx = {
  h : int array; (* 8 words of chaining state *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* bytes processed so far *)
  w : int array; (* message schedule scratch *)
}

let make h total = { h; buf = Bytes.create 64; buf_len = 0; total; w = Array.make 64 0 }
let init () = make (Array.copy Sha2_constants.sha256_h) 0

let k = Sha2_constants.sha256_k

(* The 64 rounds, with the eight working variables carried as arguments so
   they stay in registers.  [t] only ranges over 0..63, the bounds of both
   [k] and [w]. *)
let rec rounds ctx t a b c d e f g h =
  if t < 64 then begin
    let ee = double e and aa = double a in
    let s1 = ((ee lsr 6) lxor (ee lsr 11) lxor (ee lsr 25)) land mask32 in
    let ch = (e land f) lxor (lnot e land g) in
    let t1 = h + s1 + ch + Array.unsafe_get k t + Array.unsafe_get ctx.w t in
    let s0 = ((aa lsr 2) lxor (aa lsr 13) lxor (aa lsr 22)) land mask32 in
    let maj = (a land b) lxor (a land c) lxor (b land c) in
    rounds ctx (t + 1) ((t1 + s0 + maj) land mask32) a b c ((d + t1) land mask32) e f g
  end
  else begin
    let hs = ctx.h in
    hs.(0) <- (hs.(0) + a) land mask32;
    hs.(1) <- (hs.(1) + b) land mask32;
    hs.(2) <- (hs.(2) + c) land mask32;
    hs.(3) <- (hs.(3) + d) land mask32;
    hs.(4) <- (hs.(4) + e) land mask32;
    hs.(5) <- (hs.(5) + f) land mask32;
    hs.(6) <- (hs.(6) + g) land mask32;
    hs.(7) <- (hs.(7) + h) land mask32
  end

(* Compress the 64-byte block starting at [off] in [block]. *)
let compress ctx block off =
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- Int32.to_int (Bytes.get_int32_be block (off + (4 * t))) land mask32
  done;
  for t = 16 to 63 do
    let x = w.(t - 15) and y = w.(t - 2) in
    let xx = double x and yy = double y in
    let s0 = (((xx lsr 7) lxor (xx lsr 18)) land mask32) lxor (x lsr 3) in
    let s1 = (((yy lsr 17) lxor (yy lsr 19)) land mask32) lxor (y lsr 10) in
    w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land mask32
  done;
  let h = ctx.h in
  rounds ctx 0 h.(0) h.(1) h.(2) h.(3) h.(4) h.(5) h.(6) h.(7)

let update_sub ctx src off len =
  if off < 0 || len < 0 || off + len > Bytes.length src then invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let pos = ref off and stop = off + len in
  (* Top up a partially filled buffer first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit src off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are read in place; [compress] never writes its input. *)
  while stop - !pos >= 64 do
    compress ctx src !pos;
    pos := !pos + 64
  done;
  if !pos < stop then begin
    Bytes.blit src !pos ctx.buf 0 (stop - !pos);
    ctx.buf_len <- stop - !pos
  end

let update ctx s = update_sub ctx (Bytes.unsafe_of_string s) 0 (String.length s)

let final ctx =
  let buf = ctx.buf and n = ctx.buf_len in
  Bytes.set buf n '\x80';
  (* The 8-byte length must end a block: spill into a second one if the
     marker left no room for it. *)
  if n + 1 > 56 then begin
    Bytes.fill buf (n + 1) (63 - n) '\000';
    compress ctx buf 0;
    Bytes.fill buf 0 56 '\000'
  end
  else Bytes.fill buf (n + 1) (55 - n) '\000';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress ctx buf 0;
  let out = Bytes.create 32 in
  Array.iteri (fun i v -> Bytes.set_int32_be out (4 * i) (Int32.of_int v)) ctx.h;
  Bytes.unsafe_to_string out

type midstate = { words : int array; length : int }

let midstate ctx =
  if ctx.buf_len <> 0 then invalid_arg "Sha256.midstate: not on a block boundary";
  { words = Array.copy ctx.h; length = ctx.total }

let resume m = make (Array.copy m.words) m.length

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  final ctx

let hex s = Hex.encode (digest s)
