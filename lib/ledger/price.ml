type t = { n : int; d : int }

let limit = 1 lsl 31

let make ~n ~d =
  if n <= 0 || d <= 0 || n >= limit || d >= limit then
    invalid_arg "Price.make: components must be in (0, 2^31)";
  { n; d }

let compare a b = Int.compare (a.n * b.d) (b.n * a.d)
let equal a b = compare a b = 0
let inverse p = { n = p.d; d = p.n }
let to_float p = float_of_int p.n /. float_of_int p.d
let pp fmt p = Format.fprintf fmt "%d/%d" p.n p.d

(* Amounts are bounded by the caller (Tx validation caps them at 2^53 - 1),
   and price components are < 2^31, so x*n could still overflow; guard. *)
let checked_mul x y = if x <> 0 && abs y > max_int / abs x then None else Some (x * y)

let mul_floor x p =
  Option.map (fun v -> v / p.d) (checked_mul x p.n)

let mul_ceil x p =
  Option.map (fun v -> (v + p.d - 1) / p.d) (checked_mul x p.n)

let div_floor x p = mul_floor x (inverse p)

let crosses ~taker ~maker = taker.n * maker.n <= taker.d * maker.d

module Xdr = Stellar_xdr.Xdr

let xdr =
  Xdr.conv
    (fun p -> (p.n, p.d))
    (fun (n, d) ->
      if n <= 0 || d <= 0 || n >= limit || d >= limit then
        raise (Xdr.Error "Price: components must be in (0, 2^31)");
      { n; d })
    (Xdr.pair Xdr.uint32 Xdr.uint32)
