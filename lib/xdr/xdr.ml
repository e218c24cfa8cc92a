exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

let padding len = (4 - (len land 3)) land 3

module Writer = struct
  type t = {
    mutable chunk : Bytes.t;
    mutable pos : int; (* bytes of [chunk] in use *)
    mutable flushed : int; (* bytes already handed to [sink] *)
    sink : (Bytes.t -> int -> int -> unit) option; (* [None]: [chunk] grows *)
  }

  (* Small enough to be a minor-heap block: a streamed encoding allocates
     nothing that outlives it, however long it is. *)
  let chunk_size = 512

  let create () = { chunk = Bytes.create 256; pos = 0; flushed = 0; sink = None }

  let to_sink sink = { chunk = Bytes.create chunk_size; pos = 0; flushed = 0; sink = Some sink }
  let length t = t.flushed + t.pos

  let flush t =
    match t.sink with
    | Some sink when t.pos > 0 ->
        sink t.chunk 0 t.pos;
        t.flushed <- t.flushed + t.pos;
        t.pos <- 0
    | _ -> ()

  (* A streaming writer hands its chunk on (so [n] must not exceed
     [chunk_size]); a materializing one doubles it. *)
  let make_room t n =
    match t.sink with
    | Some _ -> flush t
    | None ->
        let size = ref (2 * Bytes.length t.chunk) in
        while t.pos + n > !size do
          size := 2 * !size
        done;
        let chunk = Bytes.create !size in
        Bytes.blit t.chunk 0 chunk 0 t.pos;
        t.chunk <- chunk

  let[@inline] reserve t n = if t.pos + n > Bytes.length t.chunk then make_room t n

  let int32 t v =
    if v < -0x8000_0000 || v > 0x7fff_ffff then error "Xdr.Writer.int32: %d out of range" v;
    reserve t 4;
    Bytes.set_int32_be t.chunk t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let uint32 t v =
    if v < 0 || v > 0xffff_ffff then error "Xdr.Writer.uint32: %d out of range" v;
    (* Int32.of_int truncates to the low 32 bits, which is exactly the
       unsigned representation we want. *)
    reserve t 4;
    Bytes.set_int32_be t.chunk t.pos (Int32.of_int v);
    t.pos <- t.pos + 4

  let hyper t v =
    reserve t 8;
    Bytes.set_int64_be t.chunk t.pos (Int64.of_int v);
    t.pos <- t.pos + 8

  let bool t b = uint32 t (if b then 1 else 0)

  let opaque_fixed t s =
    let len = String.length s in
    (match t.sink with
    | Some sink when len > chunk_size ->
        (* Too long to be worth copying: the sink reads it in place. *)
        flush t;
        sink (Bytes.unsafe_of_string s) 0 len;
        t.flushed <- t.flushed + len
    | _ ->
        reserve t len;
        Bytes.blit_string s 0 t.chunk t.pos len;
        t.pos <- t.pos + len);
    let pad = padding len in
    if pad > 0 then begin
      reserve t pad;
      Bytes.fill t.chunk t.pos pad '\000';
      t.pos <- t.pos + pad
    end

  let opaque_var t ?max s =
    let len = String.length s in
    (match max with
    | Some m when len > m -> error "Xdr.Writer.opaque_var: length %d exceeds max %d" len m
    | _ -> ());
    uint32 t len;
    opaque_fixed t s

  let contents t =
    match t.sink with
    | Some _ -> invalid_arg "Xdr.Writer.contents: a streaming writer keeps no bytes"
    | None -> Bytes.sub_string t.chunk 0 t.pos
end

module Reader = struct
  type t = { data : string; mutable pos : int }

  let of_string data = { data; pos = 0 }
  let pos t = t.pos
  let remaining t = String.length t.data - t.pos

  let need t n =
    if n < 0 || remaining t < n then
      error "Xdr.Reader: need %d bytes at offset %d, have %d" n t.pos (remaining t)

  let uint32 t =
    need t 4;
    let b i = Char.code t.data.[t.pos + i] in
    let v = (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3 in
    t.pos <- t.pos + 4;
    v

  let int32 t =
    let v = uint32 t in
    if v land 0x8000_0000 <> 0 then v - 0x1_0000_0000 else v

  let hyper t =
    need t 8;
    let v = ref 0L in
    for i = 0 to 7 do
      v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code t.data.[t.pos + i]))
    done;
    t.pos <- t.pos + 8;
    let i = Int64.to_int !v in
    (* an OCaml int has 63 bits: a hyper outside them has no value to
       decode to *)
    if Int64.of_int i <> !v then error "Xdr.Reader.hyper: %Ld outside the int range" !v;
    i

  let bool t =
    match uint32 t with
    | 0 -> false
    | 1 -> true
    | v -> error "Xdr.Reader.bool: discriminant %d" v

  let skip_padding t len =
    let pad = padding len in
    need t pad;
    for i = 0 to pad - 1 do
      if t.data.[t.pos + i] <> '\000' then
        error "Xdr.Reader: nonzero padding at offset %d" (t.pos + i)
    done;
    t.pos <- t.pos + pad

  let opaque_fixed t n =
    need t n;
    let s = String.sub t.data t.pos n in
    t.pos <- t.pos + n;
    skip_padding t n;
    s

  let opaque_var t ?max () =
    let len = uint32 t in
    (match max with
    | Some m when len > m -> error "Xdr.Reader.opaque_var: length %d exceeds max %d" len m
    | _ -> ());
    opaque_fixed t len

  let expect_end t =
    if remaining t <> 0 then error "Xdr.Reader: %d trailing bytes" (remaining t)
end

type 'a codec = { write : Writer.t -> 'a -> unit; read : Reader.t -> 'a }

let int32 = { write = Writer.int32; read = Reader.int32 }
let uint32 = { write = Writer.uint32; read = Reader.uint32 }
let hyper = { write = Writer.hyper; read = Reader.hyper }
let bool = { write = Writer.bool; read = Reader.bool }

let str ?max () =
  { write = (fun w s -> Writer.opaque_var w ?max s); read = (fun r -> Reader.opaque_var r ?max ()) }

let opaque n =
  {
    write =
      (fun w s ->
        if String.length s <> n then
          error "Xdr.opaque: expected %d bytes, got %d" n (String.length s);
        Writer.opaque_fixed w s);
    read = (fun r -> Reader.opaque_fixed r n);
  }

let list ?max c =
  {
    write =
      (fun w xs ->
        let len = List.length xs in
        (match max with
        | Some m when len > m -> error "Xdr.list: %d elements exceeds max %d" len m
        | _ -> ());
        Writer.uint32 w len;
        List.iter (c.write w) xs);
    read =
      (fun r ->
        let len = Reader.uint32 r in
        (match max with
        | Some m when len > m -> error "Xdr.list: %d elements exceeds max %d" len m
        | _ -> ());
        (* Each element consumes at least 4 bytes, so bound the declared
           count by what the buffer could possibly hold. *)
        if len * 4 > Reader.remaining r then
          error "Xdr.list: declared %d elements, only %d bytes remain" len (Reader.remaining r);
        List.init len (fun _ -> c.read r));
  }

let option c =
  {
    write =
      (fun w v ->
        match v with
        | None -> Writer.bool w false
        | Some x ->
            Writer.bool w true;
            c.write w x);
    read = (fun r -> if Reader.bool r then Some (c.read r) else None);
  }

let pair a b =
  {
    write =
      (fun w (x, y) ->
        a.write w x;
        b.write w y);
    read =
      (fun r ->
        let x = a.read r in
        let y = b.read r in
        (x, y));
  }

let conv project inject c =
  { write = (fun w v -> c.write w (project v)); read = (fun r -> inject (c.read r)) }

let union ~tag ~write_arm ~read_arm =
  {
    write =
      (fun w v ->
        Writer.uint32 w (tag v);
        write_arm w v);
    read =
      (fun r ->
        let t = Reader.uint32 r in
        read_arm t r);
  }

let encode c v =
  let w = Writer.create () in
  c.write w v;
  Writer.contents w

let stream c v sink =
  let w = Writer.to_sink sink in
  c.write w v;
  Writer.flush w;
  Writer.length w

let encoded_length c v = stream c v (fun _ _ _ -> ())

let decode_exn c s =
  let r = Reader.of_string s in
  let v = c.read r in
  Reader.expect_end r;
  v

let decode c s = match decode_exn c s with v -> Ok v | exception Error msg -> Error msg

let round_trips c v =
  match encode c v with
  | bytes -> (
      match decode c bytes with
      | Ok v' -> ( match encode c v' with bytes' -> String.equal bytes bytes' | exception Error _ -> false)
      | Error _ -> false)
  | exception Error _ -> false
