type account_id = string

type t = Native | Credit of { code : string; issuer : account_id }

let native = Native

let credit ~code ~issuer =
  if String.length code = 0 || String.length code > 12 then
    invalid_arg "Asset.credit: code must be 1-12 bytes";
  Credit { code; issuer }

let compare a b =
  match (a, b) with
  | Native, Native -> 0
  | Native, Credit _ -> -1
  | Credit _, Native -> 1
  | Credit x, Credit y ->
      let c = String.compare x.code y.code in
      if c <> 0 then c else String.compare x.issuer y.issuer

let equal a b = compare a b = 0
let is_native = function Native -> true | Credit _ -> false
let issuer = function Native -> None | Credit c -> Some c.issuer

let encode = function
  | Native -> "N"
  | Credit c -> Printf.sprintf "C:%s:%s" c.code c.issuer

module Xdr = Stellar_xdr.Xdr

let xdr =
  Xdr.union
    ~tag:(function Native -> 0 | Credit _ -> 1)
    ~write_arm:(fun w -> function
      | Native -> ()
      | Credit c ->
          Xdr.Writer.opaque_var w ~max:12 c.code;
          Xdr.Writer.opaque_var w c.issuer)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 -> Native
      | 1 ->
          let code = Xdr.Reader.opaque_var r ~max:12 () in
          let issuer = Xdr.Reader.opaque_var r () in
          if String.length code = 0 then raise (Xdr.Error "Asset: empty code");
          Credit { code; issuer }
      | _ -> raise (Xdr.Error "Asset: bad discriminant"))

let pp fmt = function
  | Native -> Format.pp_print_string fmt "XLM"
  | Credit c ->
      Format.fprintf fmt "%s:%s" c.code
        (Stellar_crypto.Hex.encode (String.sub c.issuer 0 (min 4 (String.length c.issuer))))

let stroops_per_unit = 10_000_000
let of_units u = u * stroops_per_unit

let pp_amount fmt v =
  Format.fprintf fmt "%d.%07d" (v / stroops_per_unit) (abs (v mod stroops_per_unit))
