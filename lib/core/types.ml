type node_id = Quorum_set.node_id
type value = string

type ballot = { counter : int; value : value }

module Ballot = struct
  let max_counter = max_int

  let compare a b =
    let c = Int.compare a.counter b.counter in
    if c <> 0 then c else String.compare a.value b.value

  let equal a b = compare a b = 0
  let compatible a b = String.equal a.value b.value
  let less_and_compatible a b = compare a b <= 0 && compatible a b
  let less_and_incompatible a b = compare a b <= 0 && not (compatible a b)
end

type nomination = { votes : value list; accepted : value list }

type prepare = {
  ballot : ballot;
  prepared : ballot option;
  prepared_prime : ballot option;
  n_c : int;
  n_h : int;
}

type confirm = { ballot : ballot; n_prepared : int; n_commit : int; n_h : int }

type externalize = { commit : ballot; n_h : int }

type pledge =
  | Nominate of nomination
  | Prepare of prepare
  | Confirm of confirm
  | Externalize of externalize

type statement = {
  node_id : node_id;
  slot : int;
  quorum_set : Quorum_set.t;
  pledge : pledge;
}

type envelope = { statement : statement; signature : string }

module Xdr = Stellar_xdr.Xdr

(* Ballot counters use hyper: the draft's "infinite" counter is represented
   as max_int, which does not fit an XDR uint32. *)
let ballot_xdr =
  Xdr.conv
    (fun b -> (b.counter, b.value))
    (fun (counter, value) -> { counter; value })
    Xdr.(pair hyper (str ()))

let pledge_xdr =
  let open Xdr in
  let values = list (str ()) and opt_ballot = option ballot_xdr in
  union
    ~tag:(function Nominate _ -> 0 | Prepare _ -> 1 | Confirm _ -> 2 | Externalize _ -> 3)
    ~write_arm:(fun w -> function
      | Nominate n ->
          values.write w n.votes;
          values.write w n.accepted
      | Prepare p ->
          ballot_xdr.write w p.ballot;
          opt_ballot.write w p.prepared;
          opt_ballot.write w p.prepared_prime;
          Writer.hyper w p.n_c;
          Writer.hyper w p.n_h
      | Confirm c ->
          ballot_xdr.write w c.ballot;
          Writer.hyper w c.n_prepared;
          Writer.hyper w c.n_commit;
          Writer.hyper w c.n_h
      | Externalize e ->
          ballot_xdr.write w e.commit;
          Writer.hyper w e.n_h)
    ~read_arm:(fun tag r ->
      match tag with
      | 0 ->
          let votes = values.read r in
          let accepted = values.read r in
          Nominate { votes; accepted }
      | 1 ->
          let ballot = ballot_xdr.read r in
          let prepared = opt_ballot.read r in
          let prepared_prime = opt_ballot.read r in
          let n_c = Reader.hyper r in
          let n_h = Reader.hyper r in
          Prepare { ballot; prepared; prepared_prime; n_c; n_h }
      | 2 ->
          let ballot = ballot_xdr.read r in
          let n_prepared = Reader.hyper r in
          let n_commit = Reader.hyper r in
          let n_h = Reader.hyper r in
          Confirm { ballot; n_prepared; n_commit; n_h }
      | 3 ->
          let commit = ballot_xdr.read r in
          let n_h = Reader.hyper r in
          Externalize { commit; n_h }
      | _ -> raise (Xdr.Error "Scp.Types.pledge: bad discriminant"))

let statement_xdr =
  let open Xdr in
  {
    write =
      (fun w st ->
        Writer.opaque_var w st.node_id;
        Writer.hyper w st.slot;
        Quorum_set.xdr.write w st.quorum_set;
        pledge_xdr.write w st.pledge);
    read =
      (fun r ->
        let node_id = Reader.opaque_var r () in
        let slot = Reader.hyper r in
        let quorum_set = Quorum_set.xdr.read r in
        let pledge = pledge_xdr.read r in
        { node_id; slot; quorum_set; pledge });
  }

let envelope_xdr =
  Xdr.conv
    (fun e -> (e.statement, e.signature))
    (fun (statement, signature) -> { statement; signature })
    Xdr.(pair statement_xdr (str ()))

(* stellar-core's signed preimage: the statement with its quorum set
   replaced by the set's hash, which still binds every member. *)
let signing_bytes st =
  let w = Xdr.Writer.create () in
  Xdr.Writer.opaque_var w st.node_id;
  Xdr.Writer.hyper w st.slot;
  Xdr.Writer.opaque_fixed w (Quorum_set.hash st.quorum_set);
  pledge_xdr.write w st.pledge;
  Xdr.Writer.contents w

(* The pledge is a few words and the quorum set up to a few kilobytes, so
   the set is compared by hash, last. *)
let same_statement a b =
  String.equal a.node_id b.node_id
  && a.slot = b.slot
  && a.pledge = b.pledge
  && String.equal (Quorum_set.hash a.quorum_set) (Quorum_set.hash b.quorum_set)

let encode_envelope env = Xdr.encode envelope_xdr env

let envelope_size env = Xdr.encoded_length envelope_xdr env

let statement_ballot_counter st =
  match st.pledge with
  | Nominate _ -> None
  | Prepare p -> Some p.ballot.counter
  | Confirm c -> Some c.ballot.counter
  | Externalize _ -> Some Ballot.max_counter
