type op_result =
  | Op_success
  | Op_malformed
  | Op_underfunded
  | Op_low_reserve
  | Op_no_destination
  | Op_no_trustline
  | Op_not_authorized
  | Op_line_full
  | Op_no_issuer
  | Op_trust_non_empty
  | Op_offer_not_found
  | Op_cross_self
  | Op_too_few_offers
  | Op_over_send_max
  | Op_has_sub_entries
  | Op_immutable
  | Op_bad_seq
  | Op_no_fees_to_distribute

type tx_outcome =
  | Tx_success of op_result list
  | Tx_failed of op_result list
  | Tx_no_source
  | Tx_bad_seq
  | Tx_bad_auth
  | Tx_insufficient_fee
  | Tx_insufficient_balance
  | Tx_too_early
  | Tx_too_late
  | Tx_malformed

let tx_succeeded = function Tx_success _ -> true | _ -> false

let op_result_name = function
  | Op_success -> "success"
  | Op_malformed -> "malformed"
  | Op_underfunded -> "underfunded"
  | Op_low_reserve -> "low_reserve"
  | Op_no_destination -> "no_destination"
  | Op_no_trustline -> "no_trustline"
  | Op_not_authorized -> "not_authorized"
  | Op_line_full -> "line_full"
  | Op_no_issuer -> "no_issuer"
  | Op_trust_non_empty -> "trust_non_empty"
  | Op_offer_not_found -> "offer_not_found"
  | Op_cross_self -> "cross_self"
  | Op_too_few_offers -> "too_few_offers"
  | Op_over_send_max -> "over_send_max"
  | Op_has_sub_entries -> "has_sub_entries"
  | Op_immutable -> "immutable"
  | Op_bad_seq -> "bad_seq"
  | Op_no_fees_to_distribute -> "no_fees_to_distribute"

let pp_op_result fmt r = Format.pp_print_string fmt (op_result_name r)

let pp_tx_outcome fmt = function
  | Tx_success rs ->
      Format.fprintf fmt "success(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_char f ',') pp_op_result)
        rs
  | Tx_failed rs ->
      Format.fprintf fmt "failed(%a)"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.pp_print_char f ',') pp_op_result)
        rs
  | Tx_no_source -> Format.pp_print_string fmt "no_source"
  | Tx_bad_seq -> Format.pp_print_string fmt "bad_seq"
  | Tx_bad_auth -> Format.pp_print_string fmt "bad_auth"
  | Tx_insufficient_fee -> Format.pp_print_string fmt "insufficient_fee"
  | Tx_insufficient_balance -> Format.pp_print_string fmt "insufficient_balance"
  | Tx_too_early -> Format.pp_print_string fmt "too_early"
  | Tx_too_late -> Format.pp_print_string fmt "too_late"
  | Tx_malformed -> Format.pp_print_string fmt "malformed"

type ctx = { verify : public:string -> msg:string -> signature:string -> bool }

let sim_ctx =
  { verify = (fun ~public ~msg ~signature -> Stellar_crypto.Sim_sig.verify ~public ~msg ~signature) }

let ed25519_ctx =
  { verify = (fun ~public ~msg ~signature -> Stellar_crypto.Ed25519.verify ~public ~msg ~signature) }

let max_amount = 1 lsl 53
let max_operations = 100
let max_path_length = 5

(* ---------- balance movement primitives ---------- *)

(* Credit [amount] of [asset] to [dest].  Issuers absorb their own asset. *)
let credit state dest asset amount =
  match asset with
  | Asset.Native -> (
      match State.account state dest with
      | None -> Error Op_no_destination
      | Some a -> Ok (State.put_account state { a with Entry.balance = a.Entry.balance + amount }))
  | Asset.Credit { issuer; _ } when String.equal issuer dest ->
      if State.account state dest = None then Error Op_no_destination else Ok state
  | Asset.Credit _ -> (
      match State.trustline state dest asset with
      | None -> if State.account state dest = None then Error Op_no_destination else Error Op_no_trustline
      | Some tl ->
          if not tl.Entry.authorized then Error Op_not_authorized
          else if tl.Entry.tl_balance + amount > tl.Entry.limit then Error Op_line_full
          else Ok (State.put_trustline state { tl with Entry.tl_balance = tl.Entry.tl_balance + amount }))

(* Debit [amount] of [asset] from [source].  Issuers mint their own asset.
   Native debits respect the reserve unless [below_reserve]. *)
let debit ?(below_reserve = false) state source asset amount =
  match asset with
  | Asset.Native -> (
      match State.account state source with
      | None -> Error Op_underfunded
      | Some a ->
          let floor_balance =
            if below_reserve then 0
            else State.min_balance state ~num_sub_entries:a.Entry.num_sub_entries
          in
          if a.Entry.balance - amount < floor_balance then Error Op_underfunded
          else Ok (State.put_account state { a with Entry.balance = a.Entry.balance - amount }))
  | Asset.Credit { issuer; _ } when String.equal issuer source -> Ok state
  | Asset.Credit _ -> (
      match State.trustline state source asset with
      | None -> Error Op_no_trustline
      | Some tl ->
          if not tl.Entry.authorized then Error Op_not_authorized
          else if tl.Entry.tl_balance < amount then Error Op_underfunded
          else Ok (State.put_trustline state { tl with Entry.tl_balance = tl.Entry.tl_balance - amount }))

let bump_sub_entries state id delta =
  match State.account state id with
  | None -> Error Op_no_destination
  | Some a ->
      let n = a.Entry.num_sub_entries + delta in
      let a = { a with Entry.num_sub_entries = n } in
      if delta > 0 && a.Entry.balance < State.min_balance state ~num_sub_entries:n then
        Error Op_low_reserve
      else Ok (State.put_account state a)

(* ---------- operation application ---------- *)

let valid_amount a = a > 0 && a < max_amount

let issuer_exists state asset =
  match Asset.issuer asset with
  | None -> true
  | Some i -> State.account state i <> None

let apply_payment state ~source ~destination ~asset ~amount =
  if not (valid_amount amount) then Error Op_malformed
  else
    let ( let* ) = Result.bind in
    let* state = debit state source asset amount in
    credit state destination asset amount

let apply_create_account state ~source ~destination ~starting_balance =
  if State.account state destination <> None then Error Op_malformed
  else if starting_balance < State.min_balance state ~num_sub_entries:0 then
    Error Op_low_reserve
  else
    let ( let* ) = Result.bind in
    let* state = debit state source Asset.Native starting_balance in
    (* Sequence numbers start at ledger_seq << 32 to prevent replay across
       delete/recreate (§5.2). *)
    let seq0 = State.ledger_seq state * 4294967296 in
    Ok (State.put_account state (Entry.new_account ~id:destination ~balance:starting_balance ~seq_num:seq0))

let apply_change_trust state ~source ~asset ~limit =
  match asset with
  | Asset.Native -> Error Op_malformed
  | Asset.Credit { issuer; _ } when String.equal issuer source -> Error Op_malformed
  | Asset.Credit { issuer; _ } -> (
      let existing = State.trustline state source asset in
      if limit = 0 then
        match existing with
        | None -> Error Op_no_trustline
        | Some tl ->
            if tl.Entry.tl_balance <> 0 then Error Op_trust_non_empty
            else
              let state = State.remove_trustline state source asset in
              bump_sub_entries state source (-1)
      else if limit < 0 || limit >= max_amount then Error Op_malformed
      else
        match existing with
        | Some tl ->
            if limit < tl.Entry.tl_balance then Error Op_malformed
            else Ok (State.put_trustline state { tl with Entry.limit = limit })
        | None ->
            if not (issuer_exists state asset) then Error Op_no_issuer
            else
              let ( let* ) = Result.bind in
              let* state = bump_sub_entries state source 1 in
              let authorized =
                match State.account state issuer with
                | Some issuer_acct -> not issuer_acct.Entry.flags.Entry.auth_required
                | None -> false
              in
              Ok
                (State.put_trustline state
                   { Entry.account = source; asset; tl_balance = 0; limit; authorized }))

let apply_allow_trust state ~source ~trustor ~asset_code ~authorize =
  let asset = Asset.credit ~code:asset_code ~issuer:source in
  match State.account state source with
  | None -> Error Op_no_destination
  | Some issuer_acct -> (
      if (not authorize) && not issuer_acct.Entry.flags.Entry.auth_revocable then
        Error Op_not_authorized
      else
        match State.trustline state trustor asset with
        | None -> Error Op_no_trustline
        | Some tl -> Ok (State.put_trustline state { tl with Entry.authorized = authorize }))

let apply_manage_offer state ~source ~offer_id ~selling ~buying ~amount ~price ~passive =
  let ( let* ) = Result.bind in
  if Asset.equal selling buying then Error Op_malformed
  else if amount < 0 || amount >= max_amount then Error Op_malformed
  else if not (issuer_exists state selling && issuer_exists state buying) then
    Error Op_no_issuer
  else begin
    (* Remove the old offer first when replacing/deleting. *)
    let* state, deleted_old =
      if offer_id = 0 then Ok (state, false)
      else
        match State.offer state offer_id with
        | None -> Error Op_offer_not_found
        | Some o ->
            if not (String.equal o.Entry.seller source) then Error Op_offer_not_found
            else
              let state = State.remove_offer state offer_id in
              let* state = bump_sub_entries state source (-1) in
              Ok (state, true)
    in
    ignore deleted_old;
    if amount = 0 then if offer_id = 0 then Error Op_malformed else Ok state
    else begin
      (* The seller must be able to hold the proceeds and fund the sale. *)
      let can_hold =
        match buying with
        | Asset.Native -> true
        | Asset.Credit { issuer; _ } when String.equal issuer source -> true
        | Asset.Credit _ -> (
            match State.trustline state source buying with
            | Some tl -> tl.Entry.authorized
            | None -> false)
      in
      if not can_hold then Error Op_no_trustline
      else begin
        let funded = Exchange.spendable state source selling in
        if funded <= 0 then Error Op_underfunded
        else begin
          let sell_amount = min amount funded in
          (* Cross existing opposing offers first (passive offers do not
             consume exactly-equal prices). *)
          let crossing =
            Exchange.cross state ~give_asset:selling ~get_asset:buying
              ~max_give:sell_amount ~price_limit:price ~strict_price:passive
              ~exclude_seller:source ()
          in
          match crossing with
          | Error "self-cross" -> Error Op_cross_self
          | Error _ -> Error Op_malformed
          | Ok { state; got; paid; _ } ->
              (* Settle the taker legs. *)
              let* state = debit state source selling paid in
              let* state = credit state source buying got in
              let remaining = sell_amount - paid in
              if remaining <= 0 then Ok state
              else begin
                let* state = bump_sub_entries state source 1 in
                let state, id = State.next_offer_id state in
                Ok
                  (State.put_offer state
                     {
                       Entry.offer_id = id;
                       seller = source;
                       selling;
                       buying;
                       amount = remaining;
                       price;
                       passive;
                     })
              end
        end
      end
    end
  end

let apply_path_payment state ~source ~send_asset ~send_max ~destination ~dest_asset
    ~dest_amount ~path =
  let ( let* ) = Result.bind in
  if not (valid_amount dest_amount && valid_amount send_max) then Error Op_malformed
  else if List.length path > max_path_length then Error Op_malformed
  else begin
    let chain = (send_asset :: path) @ [ dest_asset ] in
    if List.exists (fun a -> not (issuer_exists state a)) chain then Error Op_no_issuer
    else begin
      (* Walk the hops backwards: the cost of a hop becomes the target of
         the previous one.  Maker legs settle inside [Exchange.cross]; the
         taker's intermediate credits/debits cancel exactly. *)
      let rec hops state need = function
        | [] | [ _ ] -> Ok (state, need)
        | give :: (get :: _ as rest) ->
            let* state, need_get = hops state need rest in
            if Asset.equal give get then Ok (state, need_get)
            else begin
              match
                Exchange.cross state ~give_asset:give ~get_asset:get ~want_get:need_get ()
              with
              | Error "self-cross" -> Error Op_cross_self
              | Error _ -> Error Op_malformed
              | Ok { state; got; paid; _ } ->
                  if got < need_get then Error Op_too_few_offers else Ok (state, paid)
            end
      in
      let* state, cost = hops state dest_amount chain in
      if cost > send_max then Error Op_over_send_max
      else
        let* state = debit state source send_asset cost in
        credit state destination dest_asset dest_amount
    end
  end

let apply_set_options state ~source
    ~(opts :
       int option
       * int option
       * int option
       * int option
       * Tx.signer_update option
       * string option
       * bool option
       * bool option
       * bool option) =
  let master_weight, low, medium, high, signer, home_domain, set_req, set_rev, set_imm = opts in
  match State.account state source with
  | None -> Error Op_no_destination
  | Some a ->
      let ( let* ) = Result.bind in
      let th = a.Entry.thresholds in
      let valid_w w = w >= 0 && w <= 255 in
      let* () =
        if
          List.for_all valid_w
            (List.filter_map Fun.id [ master_weight; low; medium; high ])
        then Ok ()
        else Error Op_malformed
      in
      let thresholds =
        {
          Entry.master_weight = Option.value ~default:th.Entry.master_weight master_weight;
          low = Option.value ~default:th.Entry.low low;
          medium = Option.value ~default:th.Entry.medium medium;
          high = Option.value ~default:th.Entry.high high;
        }
      in
      let flags_locked = a.Entry.flags.Entry.auth_immutable in
      let* flags =
        match (set_req, set_rev, set_imm) with
        | None, None, None -> Ok a.Entry.flags
        | _ when flags_locked -> Error Op_immutable
        | _ ->
            Ok
              {
                Entry.auth_required =
                  Option.value ~default:a.Entry.flags.Entry.auth_required set_req;
                auth_revocable =
                  Option.value ~default:a.Entry.flags.Entry.auth_revocable set_rev;
                auth_immutable =
                  Option.value ~default:a.Entry.flags.Entry.auth_immutable set_imm;
              }
      in
      let a = { a with Entry.thresholds; flags } in
      let a =
        match home_domain with Some d -> { a with Entry.home_domain = d } | None -> a
      in
      let state = State.put_account state a in
      (* signer changes adjust sub entries *)
      (match signer with
      | None -> Ok state
      | Some (Tx.Set_signer s) ->
          if not (valid_w s.Entry.weight) || s.Entry.weight = 0 then Error Op_malformed
          else begin
            let a = Option.get (State.account state source) in
            let existing = List.exists (fun x -> String.equal x.Entry.key s.Entry.key) a.Entry.signers in
            let signers =
              s :: List.filter (fun x -> not (String.equal x.Entry.key s.Entry.key)) a.Entry.signers
            in
            let state = State.put_account state { a with Entry.signers } in
            if existing then Ok state else bump_sub_entries state source 1
          end
      | Some (Tx.Remove_signer key) ->
          let a = Option.get (State.account state source) in
          if not (List.exists (fun x -> String.equal x.Entry.key key) a.Entry.signers) then
            Error Op_malformed
          else begin
            let signers = List.filter (fun x -> not (String.equal x.Entry.key key)) a.Entry.signers in
            let state = State.put_account state { a with Entry.signers } in
            bump_sub_entries state source (-1)
          end)

let apply_account_merge state ~source ~destination =
  match (State.account state source, State.account state destination) with
  | None, _ -> Error Op_no_destination
  | _, None -> Error Op_no_destination
  | Some src, Some _ ->
      if String.equal source destination then Error Op_malformed
      else if src.Entry.num_sub_entries > 0 then Error Op_has_sub_entries
      else
        let ( let* ) = Result.bind in
        let state = State.remove_account state source in
        let* state = credit state destination Asset.Native src.Entry.balance in
        Ok state

let apply_manage_data state ~source ~name ~value =
  if String.length name = 0 || String.length name > 64 then Error Op_malformed
  else
    match value with
    | Some v ->
        if String.length v > 64 then Error Op_malformed
        else begin
          let ( let* ) = Result.bind in
          let existing = State.data state source name in
          let* state = if existing = None then bump_sub_entries state source 1 else Ok state in
          Ok (State.put_data state { Entry.owner = source; name; value = v })
        end
    | None -> (
        match State.data state source name with
        | None -> Error Op_malformed
        | Some _ ->
            let state = State.remove_data state source name in
            bump_sub_entries state source (-1))

let apply_bump_sequence state ~source ~bump_to =
  match State.account state source with
  | None -> Error Op_no_destination
  | Some a ->
      if bump_to < 0 then Error Op_malformed
      else if bump_to <= a.Entry.seq_num then Ok state (* no-op per CAP-0001 *)
      else Ok (State.put_account state { a with Entry.seq_num = bump_to })

let apply_set_inflation_dest state ~source ~dest =
  match (State.account state source, State.account state dest) with
  | Some a, Some _ -> Ok (State.put_account state { a with Entry.inflation_dest = Some dest })
  | Some _, None -> Error Op_no_destination
  | None, _ -> Error Op_no_destination

(* §5.2: "fees are recycled and distributed proportionally by vote of
   existing XLM holders".  Accounts vote their balance through their
   inflation destination; destinations holding at least MIN_VOTE_FRACTION
   of the voted stake share the fee pool pro rata.  (The paper's weekly
   schedule is elided; the economics are the point.) *)
let min_vote_divisor = 2000 (* 0.05% of total XLM, as on the real network *)

let apply_inflation state ~source:_ =
  let pool = State.fee_pool state in
  if pool <= 0 then Error Op_no_fees_to_distribute
  else begin
    let votes = Hashtbl.create 16 in
    let total_votes = ref 0 in
    List.iter
      (fun e ->
        match e with
        | Entry.Account_entry a -> (
            match a.Entry.inflation_dest with
            | Some dest when State.account state dest <> None ->
                Hashtbl.replace votes dest
                  (a.Entry.balance + Option.value ~default:0 (Hashtbl.find_opt votes dest));
                total_votes := !total_votes + a.Entry.balance
            | _ -> ())
        | _ -> ())
      (State.all_entries state);
    let min_votes = State.total_native state / min_vote_divisor in
    let winners =
      Hashtbl.fold (fun dest v acc -> if v >= min_votes && v > 0 then (dest, v) :: acc else acc) votes []
      |> List.sort compare
    in
    let winner_votes = List.fold_left (fun acc (_, v) -> acc + v) 0 winners in
    if winners = [] || winner_votes = 0 then Error Op_no_fees_to_distribute
    else begin
      let state, paid =
        List.fold_left
          (fun (state, paid) (dest, v) ->
            (* pool * v can exceed 63 bits; the pool itself is small, so
               float precision is exact here *)
            let share =
              int_of_float (float_of_int pool *. float_of_int v /. float_of_int winner_votes)
            in
            let share = min share (pool - paid) in
            match State.account state dest with
            | Some a ->
                (State.put_account state { a with Entry.balance = a.Entry.balance + share },
                 paid + share)
            | None -> (state, paid))
          (state, 0) winners
      in
      (* whatever rounding left behind stays in the pool *)
      Ok (State.add_fee state (-paid))
    end
  end

let apply_operation state ~tx_source (op : Tx.operation) =
  let source = Option.value ~default:tx_source op.Tx.op_source in
  if State.account state source = None then Error Op_no_destination
  else
    match op.Tx.body with
    | Tx.Create_account { destination; starting_balance } ->
        apply_create_account state ~source ~destination ~starting_balance
    | Tx.Payment { destination; asset; amount } ->
        apply_payment state ~source ~destination ~asset ~amount
    | Tx.Path_payment { send_asset; send_max; destination; dest_asset; dest_amount; path } ->
        apply_path_payment state ~source ~send_asset ~send_max ~destination ~dest_asset
          ~dest_amount ~path
    | Tx.Manage_offer { offer_id; selling; buying; amount; price; passive } ->
        apply_manage_offer state ~source ~offer_id ~selling ~buying ~amount ~price ~passive
    | Tx.Set_options o ->
        apply_set_options state ~source
          ~opts:
            ( o.master_weight,
              o.low,
              o.medium,
              o.high,
              o.signer,
              o.home_domain,
              o.set_auth_required,
              o.set_auth_revocable,
              o.set_auth_immutable )
    | Tx.Change_trust { asset; limit } -> apply_change_trust state ~source ~asset ~limit
    | Tx.Allow_trust { trustor; asset_code; authorize } ->
        apply_allow_trust state ~source ~trustor ~asset_code ~authorize
    | Tx.Account_merge { destination } -> apply_account_merge state ~source ~destination
    | Tx.Manage_data { name; value } -> apply_manage_data state ~source ~name ~value
    | Tx.Bump_sequence { bump_to } -> apply_bump_sequence state ~source ~bump_to
    | Tx.Set_inflation_dest { dest } -> apply_set_inflation_dest state ~source ~dest
    | Tx.Inflation -> apply_inflation state ~source

(* ---------- signature checking ---------- *)

let signature_weight ctx state account_id (signed : Tx.signed) =
  match State.account state account_id with
  | None -> 0
  | Some a ->
      let msg = signed.Tx.tx_hash in
      let key_weight key =
        if String.equal key account_id then a.Entry.thresholds.Entry.master_weight
        else
          match List.find_opt (fun s -> String.equal s.Entry.key key) a.Entry.signers with
          | Some s -> s.Entry.weight
          | None -> 0
      in
      (* A signer whose key is SHA-256 of some secret grants its weight to
         whoever reveals the pre-image (provided in place of a signature) —
         with time bounds this enables atomic cross-chain trades (§5.2). *)
      let preimage_weight data =
        let h = Stellar_crypto.Sha256.digest data in
        match List.find_opt (fun s -> String.equal s.Entry.key h) a.Entry.signers with
        | Some s -> s.Entry.weight
        | None -> 0
      in
      let unique_sigs = List.sort_uniq compare signed.Tx.signatures in
      List.fold_left
        (fun acc (public, signature) ->
          let w = key_weight public in
          if w > 0 && ctx.verify ~public ~msg ~signature then acc + w
          else acc + preimage_weight signature)
        0 unique_sigs

let required_threshold (a : Entry.account) level =
  let th = a.Entry.thresholds in
  let raw =
    match level with
    | Tx.Low -> th.Entry.low
    | Tx.Medium -> th.Entry.medium
    | Tx.High -> th.Entry.high
  in
  (* A zero threshold means "master weight suffices"; never allow zero
     signatures. *)
  max 1 raw

let check_auth ctx state (signed : Tx.signed) =
  let tx = signed.Tx.tx in
  let sources =
    tx.Tx.source
    :: List.filter_map (fun (o : Tx.operation) -> o.Tx.op_source) tx.Tx.operations
    |> List.sort_uniq String.compare
  in
  let level_for src =
    List.fold_left
      (fun acc (o : Tx.operation) ->
        let op_src = Option.value ~default:tx.Tx.source o.Tx.op_source in
        if String.equal op_src src then
          let l = Tx.threshold_level o.Tx.body in
          match (acc, l) with
          | Tx.High, _ | _, Tx.High -> Tx.High
          | Tx.Medium, _ | _, Tx.Medium -> Tx.Medium
          | _ -> Tx.Low
        else acc)
      Tx.Low tx.Tx.operations
  in
  List.for_all
    (fun src ->
      match State.account state src with
      | None -> String.equal src tx.Tx.source (* caught later as no_source *)
      | Some a ->
          signature_weight ctx state src signed >= required_threshold a (level_for src))
    sources

(* ---------- transaction validation & application ---------- *)

(* Static checks: source exists, sequence number is next, fee and balance
   suffice, time bounds admit the current close time, signature weight meets
   the highest threshold needed by the operations. *)
let validate ctx state (signed : Tx.signed) =
  let tx = signed.Tx.tx in
  if tx.Tx.operations = [] || List.length tx.Tx.operations > max_operations then
    Error Tx_malformed
  else
    match State.account state tx.Tx.source with
    | None -> Error Tx_no_source
    | Some src ->
        if tx.Tx.seq_num <> src.Entry.seq_num + 1 then Error Tx_bad_seq
        else if tx.Tx.fee < State.base_fee state * List.length tx.Tx.operations then
          Error Tx_insufficient_fee
        else if src.Entry.balance < tx.Tx.fee then Error Tx_insufficient_balance
        else begin
          let time_ok =
            match tx.Tx.time_bounds with
            | None -> Ok ()
            | Some { min_time; max_time } ->
                if State.close_time state < min_time then Error Tx_too_early
                else if max_time <> 0 && State.close_time state > max_time then
                  Error Tx_too_late
                else Ok ()
          in
          match time_ok with
          | Error e -> Error e
          | Ok () -> if check_auth ctx state signed then Ok () else Error Tx_bad_auth
        end

(* Charge the fee and consume the sequence number (even if ops then fail). *)
let charge_fee state (tx : Tx.t) =
  match State.account state tx.Tx.source with
  | None -> state
  | Some a ->
      let state =
        State.put_account state
          { a with Entry.balance = a.Entry.balance - tx.Tx.fee; seq_num = tx.Tx.seq_num }
      in
      State.add_fee state tx.Tx.fee

let run_operations state (tx : Tx.t) =
  let rec go state acc = function
    | [] -> (state, Tx_success (List.rev acc))
    | op :: rest -> (
        match apply_operation state ~tx_source:tx.Tx.source op with
        | Ok state' -> go state' (Op_success :: acc) rest
        | Error r -> (state, Tx_failed (List.rev (r :: acc))))
  in
  go state [] tx.Tx.operations

let apply_tx ctx state signed =
  match validate ctx state signed with
  | Error e -> (state, e)
  | Ok () ->
      let fee_state = charge_fee state signed.Tx.tx in
      let applied, outcome = run_operations fee_state signed.Tx.tx in
      (* Atomicity: roll back to the post-fee state on any failure. *)
      (match outcome with Tx_success _ -> (applied, outcome) | _ -> (fee_state, outcome))

let outcome_metric = function
  | Tx_success _ -> "ledger.tx.success"
  | Tx_failed _ -> "ledger.tx.failed"
  | Tx_no_source -> "ledger.tx.no_source"
  | Tx_bad_seq -> "ledger.tx.bad_seq"
  | Tx_bad_auth -> "ledger.tx.bad_auth"
  | Tx_insufficient_fee -> "ledger.tx.insufficient_fee"
  | Tx_insufficient_balance -> "ledger.tx.insufficient_balance"
  | Tx_too_early -> "ledger.tx.too_early"
  | Tx_too_late -> "ledger.tx.too_late"
  | Tx_malformed -> "ledger.tx.malformed"

let apply_tx_set ctx state ~close_time txs =
  let state =
    State.set_header state ~ledger_seq:(State.ledger_seq state + 1) ~close_time
  in
  (* Deterministic apply order, shuffled by hash as stellar-core does so
     that submission order grants no priority — but transactions of the same
     account must keep ascending sequence numbers, so we round-robin over
     per-account queues sorted by sequence. *)
  let by_account = Hashtbl.create 16 in
  List.iter
    (fun signed ->
      let src = signed.Tx.tx.Tx.source in
      Hashtbl.replace by_account src (signed :: Option.value ~default:[] (Hashtbl.find_opt by_account src)))
    txs;
  let queues =
    Hashtbl.fold
      (fun _ q acc ->
        ref (List.sort (fun a b -> Int.compare a.Tx.tx.Tx.seq_num b.Tx.tx.Tx.seq_num) q) :: acc)
      by_account []
  in
  let sorted =
    let out = ref [] in
    let remaining = ref (List.length txs) in
    while !remaining > 0 do
      (* Heads of all non-empty queues, ordered by hash this round. *)
      let heads =
        List.filter_map
          (fun q -> match !q with [] -> None | s :: _ -> Some (s.Tx.tx_hash, q))
          queues
        |> List.sort (fun (h1, _) (h2, _) -> String.compare h1 h2)
      in
      List.iter
        (fun (_, q) ->
          match !q with
          | s :: rest ->
              out := s :: !out;
              q := rest;
              decr remaining
          | [] -> ())
        heads
    done;
    List.rev !out
  in
  let state, results =
    List.fold_left
      (fun (state, acc) signed ->
        let state, outcome = apply_tx ctx state signed in
        (state, (signed, outcome) :: acc))
      (state, []) sorted
  in
  (state, List.rev results)

let observe obs ~slot results =
  let tracing = Stellar_obs.Sink.tracing obs in
  List.iter
    (fun (signed, outcome) ->
      Stellar_obs.Sink.incr obs (outcome_metric outcome);
      (match outcome with
      | Tx_success rs -> Stellar_obs.Sink.add obs "ledger.ops.applied" (List.length rs)
      | _ -> ());
      if tracing then
        Stellar_obs.Sink.emit obs
          (Stellar_obs.Event.Tx_applied { tx = signed.Tx.tx_hash; slot; ok = tx_succeeded outcome }))
    results
