(* Little-endian limbs in base 2^26.  The base is chosen so that a two-limb
   value (2^52) and the products appearing in Knuth's division algorithm fit
   comfortably in OCaml's 63-bit native int. *)

let limb_bits = 26
let base = 1 lsl limb_bits
let mask = base - 1

type t = int array
(* Invariant: no leading zero limbs; zero is [||]. *)

let zero = [||]
let is_zero n = Array.length n = 0

(* Strip leading zero limbs of [a], viewing only the first [len] limbs. *)
let normalize a len =
  let len = ref (min len (Array.length a)) in
  while !len > 0 && a.(!len - 1) = 0 do
    decr len
  done;
  Array.sub a 0 !len

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr limb_bits) in
  Array.of_list (limbs n)

let one = of_int 1
let two = of_int 2

let to_int n =
  let r = ref 0 in
  for i = Array.length n - 1 downto 0 do
    if !r > (max_int - n.(i)) lsr limb_bits then invalid_arg "Nat.to_int: overflow";
    r := (!r lsl limb_bits) lor n.(i)
  done;
  !r

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let equal a b = compare a b = 0

let add a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr limb_bits
  done;
  normalize r lr

let sub a b =
  let la = Array.length a and lb = Array.length b in
  if compare a b < 0 then invalid_arg "Nat.sub: negative result";
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  normalize r la

let mul a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let p = (ai * b.(j)) + r.(i + j) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr limb_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize r (la + lb)
  end

let bit_length n =
  let l = Array.length n in
  if l = 0 then 0
  else
    let top = n.(l - 1) in
    let rec width k = if top lsr k = 0 then k else width (k + 1) in
    ((l - 1) * limb_bits) + width 0

let testbit n i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length n && (n.(limb) lsr off) land 1 = 1

let shift_left n s =
  if is_zero n || s = 0 then n
  else begin
    let limbs = s / limb_bits and bits = s mod limb_bits in
    let la = Array.length n in
    let r = Array.make (la + limbs + 1) 0 in
    for i = 0 to la - 1 do
      let v = n.(i) lsl bits in
      r.(i + limbs) <- r.(i + limbs) lor (v land mask);
      r.(i + limbs + 1) <- v lsr limb_bits
    done;
    normalize r (la + limbs + 1)
  end

let shift_right n s =
  if is_zero n || s = 0 then n
  else begin
    let limbs = s / limb_bits and bits = s mod limb_bits in
    let la = Array.length n in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = n.(i + limbs) lsr bits in
        let hi = if i + limbs + 1 < la then (n.(i + limbs + 1) lsl (limb_bits - bits)) land mask else 0 in
        r.(i) <- if bits = 0 then n.(i + limbs) else lo lor hi
      done;
      normalize r lr
    end
  end

(* Division by a single limb. *)
let divmod_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q la, of_int !r)

(* Knuth TAOCP vol. 2, algorithm 4.3.1 D. *)
let divmod a b =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then divmod_limb a b.(0)
  else begin
    (* Normalize: shift so that the top limb of the divisor has its high bit
       set, which bounds the per-digit quotient estimate error by 2. *)
    let shift =
      let top = b.(Array.length b - 1) in
      let rec go k = if top lsl k land (base lsr 1) <> 0 then k else go (k + 1) in
      go 0
    in
    let v = shift_left b shift in
    let u0 = shift_left a shift in
    let n = Array.length v in
    let m = Array.length u0 - n in
    let u = Array.make (Array.length u0 + 1) 0 in
    Array.blit u0 0 u 0 (Array.length u0);
    let q = Array.make (m + 1) 0 in
    let vtop = v.(n - 1) and vnext = v.(n - 2) in
    for j = m downto 0 do
      let num = (u.(j + n) lsl limb_bits) lor u.(j + n - 1) in
      let qhat = ref (num / vtop) and rhat = ref (num mod vtop) in
      let continue = ref true in
      while !continue do
        if !qhat >= base || !qhat * vnext > (!rhat lsl limb_bits) lor u.(j + n - 2) then begin
          decr qhat;
          rhat := !rhat + vtop;
          if !rhat >= base then continue := false
        end else continue := false
      done;
      (* Multiply and subtract. *)
      let borrow = ref 0 and carry = ref 0 in
      for i = 0 to n - 1 do
        let p = (!qhat * v.(i)) + !carry in
        carry := p lsr limb_bits;
        let d = u.(i + j) - (p land mask) - !borrow in
        if d < 0 then begin
          u.(i + j) <- d + base;
          borrow := 1
        end else begin
          u.(i + j) <- d;
          borrow := 0
        end
      done;
      let d = u.(j + n) - !carry - !borrow in
      if d < 0 then begin
        (* Estimate was one too large: add the divisor back. *)
        u.(j + n) <- d + base;
        decr qhat;
        let c = ref 0 in
        for i = 0 to n - 1 do
          let s = u.(i + j) + v.(i) + !c in
          u.(i + j) <- s land mask;
          c := s lsr limb_bits
        done;
        u.(j + n) <- (u.(j + n) + !c) land mask
      end else u.(j + n) <- d;
      q.(j) <- !qhat
    done;
    let r = shift_right (normalize u n) shift in
    (normalize q (m + 1), r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let modpow b e m =
  if is_zero m then raise Division_by_zero;
  if equal m one then zero
  else begin
    let result = ref one in
    let b = ref (rem b m) in
    for i = 0 to bit_length e - 1 do
      if testbit e i then result := rem (mul !result !b) m;
      b := rem (mul !b !b) m
    done;
    !result
  end

(* Newton iteration with a final floor adjustment; [power] is 2 or 3. *)
let iroot power n =
  if is_zero n then zero
  else begin
    let pow_p x = if power = 2 then mul x x else mul x (mul x x) in
    let pm1 = of_int (power - 1) in
    let p = of_int power in
    let x = ref (shift_left one (bit_length n / power + 1)) in
    let finished = ref false in
    while not !finished do
      (* x' = ((p-1) * x + n / x^(p-1)) / p *)
      let xp = if power = 2 then !x else mul !x !x in
      let x' = div (add (mul pm1 !x) (div n xp)) p in
      if compare x' !x >= 0 then finished := true else x := x'
    done;
    while compare (pow_p !x) n > 0 do
      x := sub !x one
    done;
    while compare (pow_p (add !x one)) n <= 0 do
      x := add !x one
    done;
    !x
  end

let isqrt n = iroot 2 n
let icbrt n = iroot 3 n

let of_bytes_be s =
  let r = ref zero in
  String.iter (fun c -> r := add (shift_left !r 8) (of_int (Char.code c))) s;
  !r

let divmod_limb_byte v =
  if is_zero v then (zero, 0)
  else
    let q, r = divmod_limb v 256 in
    (q, to_int r)

let to_bytes_be n ~len =
  if bit_length n > len * 8 then invalid_arg "Nat.to_bytes_be: does not fit";
  let b = Bytes.make len '\000' in
  let v = ref n in
  for i = len - 1 downto 0 do
    let q, r = divmod_limb_byte !v in
    Bytes.set b i (Char.chr r);
    v := q
  done;
  Bytes.to_string b

let of_bytes_le s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rev = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set rev i (Bytes.get b (n - 1 - i))
  done;
  of_bytes_be (Bytes.to_string rev)

let to_bytes_le n ~len =
  let s = to_bytes_be n ~len in
  String.init len (fun i -> s.[len - 1 - i])

let of_hex s =
  let s = if String.length s mod 2 = 1 then "0" ^ s else s in
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Nat.of_hex"
  in
  let bytes =
    String.init (String.length s / 2) (fun i ->
        Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
  in
  of_bytes_be bytes

let to_hex n =
  let len = max 1 ((bit_length n + 7) / 8) in
  let s = to_bytes_be n ~len in
  let buf = Buffer.create (2 * len) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

let to_string n =
  if is_zero n then "0"
  else begin
    let buf = Buffer.create 32 in
    let v = ref n in
    while not (is_zero !v) do
      let q, r = divmod_limb !v 10 in
      Buffer.add_char buf (Char.chr (Char.code '0' + to_int r));
      v := q
    done;
    let s = Buffer.contents buf in
    String.init (String.length s) (fun i -> s.[String.length s - 1 - i])
  end
