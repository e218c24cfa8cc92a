(** Ed25519 (RFC 8032) over edwards25519, built on {!Nat} field arithmetic.
    This is the signature scheme the production Stellar network uses for
    transaction and SCP-envelope signatures.  Matches the RFC 8032 test
    vectors (see the test suite).

    This implementation favours clarity over speed and is not constant-time;
    it is intended for the benchmarks and small networks, while large
    simulations use {!Sim_sig}. *)

include Sig_intf.SCHEME with type secret = string
(** [secret] is the 32-byte seed. *)
