open Stellar_ledger

type account = { name : int; secret : string; public : string }

let master_seed = Stellar_crypto.Sha256.digest "genesis-master"

let account_keys i =
  let seed = Stellar_crypto.Sha256.digest ("genesis-account-" ^ string_of_int i) in
  let secret, public = Stellar_crypto.Sim_sig.keypair ~seed in
  { name = i; secret; public }

(* The header values are [State.genesis]'s defaults. *)
let make ?(base_reserve = 5_000_000) ?(balance = Asset.of_units 10_000) ~n_accounts () =
  let _, master = Stellar_crypto.Sim_sig.keypair ~seed:master_seed in
  let total = Asset.of_units 1_000_000_000_000 in
  let accounts = Array.init n_accounts account_keys in
  (* the master keeps the XLM supply the funded accounts do not hold *)
  let master_entry =
    Entry.new_account ~id:master ~balance:(total - (n_accounts * balance)) ~seq_num:0
  in
  let entries =
    Array.fold_right
      (fun a l -> Entry.Account_entry (Entry.new_account ~id:a.public ~balance ~seq_num:0) :: l)
      accounts []
  in
  let state =
    State.of_entries ~ledger_seq:1 ~close_time:0 ~base_fee:100 ~base_reserve ~protocol_version:1
      ~fee_pool:0 ~id_pool:1
      (Entry.Account_entry master_entry :: entries)
  in
  (state, accounts)
