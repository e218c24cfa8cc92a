let rotr x n = Int64.logor (Int64.shift_right_logical x n) (Int64.shift_left x (64 - n))

type ctx = {
  h : int64 array;
  buf : Bytes.t; (* 128-byte block buffer *)
  mutable buf_len : int;
  mutable total : int;
  w : int64 array;
}

let init () =
  {
    h = Array.copy Sha2_constants.sha512_h;
    buf = Bytes.create 128;
    buf_len = 0;
    total = 0;
    w = Array.make 80 0L;
  }

let k = Sha2_constants.sha512_k

let get64 block i =
  let b j = Int64.of_int (Char.code (Bytes.get block (i + j))) in
  let ( <| ) x s = Int64.shift_left x s in
  Int64.logor (b 0 <| 56)
    (Int64.logor (b 1 <| 48)
       (Int64.logor (b 2 <| 40)
          (Int64.logor (b 3 <| 32)
             (Int64.logor (b 4 <| 24)
                (Int64.logor (b 5 <| 16) (Int64.logor (b 6 <| 8) (b 7)))))))

let compress ctx block =
  let open Int64 in
  let w = ctx.w in
  for t = 0 to 15 do
    w.(t) <- get64 block (8 * t)
  done;
  for t = 16 to 79 do
    let x = w.(t - 15) in
    let s0 = logxor (rotr x 1) (logxor (rotr x 8) (shift_right_logical x 7)) in
    let y = w.(t - 2) in
    let s1 = logxor (rotr y 19) (logxor (rotr y 61) (shift_right_logical y 6)) in
    w.(t) <- add w.(t - 16) (add s0 (add w.(t - 7) s1))
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for t = 0 to 79 do
    let s1 = logxor (rotr !e 14) (logxor (rotr !e 18) (rotr !e 41)) in
    let ch = logxor (logand !e !f) (logand (lognot !e) !g) in
    let t1 = add !hh (add s1 (add ch (add k.(t) w.(t)))) in
    let s0 = logxor (rotr !a 28) (logxor (rotr !a 34) (rotr !a 39)) in
    let maj = logxor (logand !a !b) (logxor (logand !a !c) (logand !b !c)) in
    let t2 = add s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := add !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := add t1 t2
  done;
  h.(0) <- add h.(0) !a;
  h.(1) <- add h.(1) !b;
  h.(2) <- add h.(2) !c;
  h.(3) <- add h.(3) !d;
  h.(4) <- add h.(4) !e;
  h.(5) <- add h.(5) !f;
  h.(6) <- add h.(6) !g;
  h.(7) <- add h.(7) !hh

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  if ctx.buf_len > 0 then begin
    let take = min (128 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 128 then begin
      compress ctx ctx.buf;
      ctx.buf_len <- 0
    end
  end;
  let block = Bytes.create 128 in
  while len - !pos >= 128 do
    Bytes.blit_string s !pos block 0 128;
    compress ctx block;
    pos := !pos + 128
  done;
  if !pos < len then begin
    Bytes.blit_string s !pos ctx.buf 0 (len - !pos);
    ctx.buf_len <- len - !pos
  end

let final ctx =
  let bits = ctx.total * 8 in
  update ctx "\x80";
  let zeros = (128 + 112 - ctx.buf_len) mod 128 in
  update ctx (String.make zeros '\000');
  (* 128-bit length field; the high 64 bits are always zero here since
     [total] is a native int. *)
  let len_bytes = Bytes.make 16 '\000' in
  for i = 0 to 7 do
    Bytes.set len_bytes (8 + i) (Char.chr ((bits lsr (8 * (7 - i))) land 0xFF))
  done;
  update ctx (Bytes.to_string len_bytes);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 64 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    for j = 0 to 7 do
      Bytes.set out ((8 * i) + j)
        (Char.chr (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * (7 - j))) 0xFFL)))
    done
  done;
  Bytes.to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  final ctx

let digest_list parts =
  let ctx = init () in
  List.iter (update ctx) parts;
  final ctx

let hex s = Hex.encode (digest s)
