let digits = "0123456789abcdef"

let encode s =
  let n = String.length s in
  let b = Bytes.create (2 * n) in
  for i = 0 to n - 1 do
    let c = Char.code (String.unsafe_get s i) in
    Bytes.unsafe_set b (2 * i) (String.unsafe_get digits (c lsr 4));
    Bytes.unsafe_set b ((2 * i) + 1) (String.unsafe_get digits (c land 15))
  done;
  Bytes.unsafe_to_string b

let decode s =
  if String.length s mod 2 <> 0 then invalid_arg "Hex.decode: odd length";
  let digit c =
    match c with
    | '0' .. '9' -> Char.code c - Char.code '0'
    | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
    | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
    | _ -> invalid_arg "Hex.decode: bad digit"
  in
  String.init (String.length s / 2) (fun i ->
      Char.chr ((digit s.[2 * i] lsl 4) lor digit s.[(2 * i) + 1]))
