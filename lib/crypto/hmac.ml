let block_size = 64

type key = { inner : Sha256.midstate; outer : Sha256.midstate }

let prepare key =
  let key = if String.length key > block_size then Sha256.digest key else key in
  let padded c =
    let ctx = Sha256.init () in
    Sha256.update ctx
      (String.init block_size (fun i ->
           let k = if i < String.length key then Char.code key.[i] else 0 in
           Char.chr (k lxor c)));
    Sha256.midstate ctx
  in
  { inner = padded 0x36; outer = padded 0x5c }

let mac key msg =
  let ctx = Sha256.resume key.inner in
  Sha256.update ctx msg;
  let inner = Sha256.final ctx in
  let ctx = Sha256.resume key.outer in
  Sha256.update ctx inner;
  Sha256.final ctx

let sha256 ~key msg = mac (prepare key) msg
let hex ~key msg = Hex.encode (sha256 ~key msg)
