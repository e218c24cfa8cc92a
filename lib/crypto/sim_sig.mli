(** Fast simulated signatures for large in-process network simulations.

    The scheme is NOT a real public-key signature: [sign] is an
    HMAC-SHA256 under the secret seed, and [verify] looks the seed up in a
    process-global registry populated by [keypair].  Inside a single-process
    simulation this preserves exactly what the protocol relies on —
    unforgeability by other simulated nodes that only see public keys and
    signed messages through the simulator — at a tiny fraction of Ed25519's
    cost.  Signature and key sizes match Ed25519 (64 and 32 bytes) so that
    measured message sizes are faithful. *)

include Sig_intf.SCHEME with type secret = string

val reset : unit -> unit
(** Clear the key registry (between independent simulations/tests). *)

val reserve : int -> unit
(** [reserve n] sizes the key registry for [n] more keys at once, so that
    registering a large genesis rehashes it at most once. *)
