open Stellar_ledger

type account = { name : int; secret : string; public : string }

let master_seed = Stellar_crypto.Sha256.digest "genesis-master"

let account_keys i =
  let seed = Stellar_crypto.Sha256.digest ("genesis-account-" ^ string_of_int i) in
  let secret, public = Stellar_crypto.Sim_sig.keypair ~seed in
  { name = i; secret; public }

(* The indices [0, m) in the order of their ids, distinct 32-byte digests.
   A counting sort on the ids' top bits leaves them nearly sorted, because
   digests spread evenly over about one id per slot; one insertion pass by
   the whole id then only swaps ids that share a slot. *)
let sort_by_id m id =
  let rec fit bits = if 1 lsl bits >= m || bits = 30 then bits else fit (bits + 1) in
  let bits = fit 1 in
  let slot i = (Int32.to_int (String.get_int32_be (id i) 0) land 0xFFFF_FFFF) lsr (32 - bits) in
  let start = Array.make ((1 lsl bits) + 1) 0 in
  for i = 0 to m - 1 do
    let s = slot i + 1 in
    start.(s) <- start.(s) + 1
  done;
  for s = 1 to 1 lsl bits do
    start.(s) <- start.(s) + start.(s - 1)
  done;
  let order = Array.make m 0 in
  for i = 0 to m - 1 do
    let s = slot i in
    order.(start.(s)) <- i;
    start.(s) <- start.(s) + 1
  done;
  for k = 1 to m - 1 do
    let i = order.(k) in
    let j = ref (k - 1) in
    while !j >= 0 && String.compare (id order.(!j)) (id i) > 0 do
      order.(!j + 1) <- order.(!j);
      decr j
    done;
    order.(!j + 1) <- i
  done;
  order

(* The header values are [State.genesis]'s defaults. *)
let make ?(base_reserve = 5_000_000) ?(balance = Asset.of_units 10_000) ~n_accounts () =
  let _, master = Stellar_crypto.Sim_sig.keypair ~seed:master_seed in
  let total = Asset.of_units 1_000_000_000_000 in
  Stellar_crypto.Sim_sig.reserve n_accounts;
  (* kept in index order: the load generator picks accounts by index *)
  let accounts = Array.init n_accounts account_keys in
  (* account i < n_accounts, or the master as account n_accounts *)
  let id i = if i = n_accounts then master else accounts.(i).public in
  let entries =
    Array.map
      (fun i ->
        (* the master keeps the XLM supply the funded accounts do not hold *)
        let balance = if i = n_accounts then total - (n_accounts * balance) else balance in
        Entry.Account_entry (Entry.new_account ~id:(id i) ~balance ~seq_num:0))
      (sort_by_id (n_accounts + 1) id)
  in
  let state =
    State.of_entries ~ledger_seq:1 ~close_time:0 ~base_fee:100 ~base_reserve ~protocol_version:1
      ~fee_pool:0 ~id_pool:1 entries
  in
  (state, accounts)
