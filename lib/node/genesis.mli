(** Test-ledger construction: the analogue of stellar-core's [generateload]
    account-creation phase (§7.3), building a genesis state with N funded
    accounts directly (the paper notes they could not just populate the
    database via SQL; we can, because the state is ours). *)

type account = { name : int; secret : string; public : string }

val make :
  ?base_reserve:int ->
  ?balance:int ->
  n_accounts:int ->
  unit ->
  Stellar_ledger.State.t * account array
(** A genesis state holding [n_accounts] funded accounts plus a master
    account with the remaining supply.  Account [i]'s key pair derives
    from the seed [SHA-256 ("genesis-account-" ^ i)]. *)
