(** Nested quorum sets (§6.1).

    A quorum set is a threshold [k] over [n] entries, where each entry is
    either a validator or, recursively, another quorum set.  Any [k] of the
    [n] entries form a quorum slice.  A quorum emerges from slices: a set of
    nodes [S] is a quorum when every member has some slice fully inside [S]
    (see {!Federation}). *)

type node_id = string
(** A validator identity: its 32-byte public key. *)

type t = private { threshold : int; validators : node_id list; inner : t list; hash : string }
(** Built only by {!make} and the XDR reader, which set [hash] ({!hash}). *)

val make : threshold:int -> ?inner:t list -> node_id list -> t
(** @raise Invalid_argument if the threshold is not in [\[1, n]].
    @raise Stellar_xdr.Xdr.Error if the set nests deeper than XDR allows. *)

val singleton : node_id -> t

val majority : node_id list -> t
(** Simple-majority quorum set: threshold [⌊n/2⌋ + 1], as used by the
    paper's controlled experiments (§7.3). *)

val percent_threshold : int -> int -> int
(** [percent_threshold pct n] is stellar-core's rounding:
    [1 + (((n * pct) - 1) / 100)]. *)

val is_sane : t -> bool
(** Thresholds within range at every level, no duplicate validators, and no
    empty quorum sets. *)

val all_validators : t -> node_id list
(** All validators mentioned anywhere in the tree, deduplicated. *)

val is_quorum_slice : t -> (node_id -> bool) -> bool
(** [is_quorum_slice q in_set] — does the set described by the predicate
    contain at least one slice of [q]? *)

val is_v_blocking : t -> (node_id -> bool) -> bool
(** Does the predicate set intersect every slice of [q]?  Equivalently, can
    it deny [q]'s owner any quorum? *)

val weight : t -> node_id -> float
(** Fraction of slices containing the given node (§3.2.5); 0 if absent. *)

val xdr : t Stellar_xdr.Xdr.codec
(** Canonical XDR: threshold, validators, inner sets (recursive, depth ≤ 8;
    decoding re-checks the {!make} threshold invariant). *)

val encode : t -> string
(** Canonical XDR bytes, used for hashing and message sizing. *)

val decode : string -> (t, string) result

val hash : t -> string
(** SHA-256 of {!encode}, the [hash] field: a set is hashed once, when it
    is built or decoded. *)
