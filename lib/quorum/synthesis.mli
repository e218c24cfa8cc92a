(** Quality-tier configuration synthesis (§6.1, Fig. 6).

    Instead of hand-writing nested quorum sets — which §6 reports was easy
    to get dangerously wrong — operators label each organization with a
    quality tier; the synthesizer builds the nested quorum set: every
    organization becomes a 51%-threshold inner set of its validators,
    organizations are grouped by quality (67% threshold, 100% for the
    critical group), and each group appears as a single entry in the
    next-higher-quality group. *)

type quality = Critical | High | Medium | Low

type org = {
  name : string;
  quality : quality;
  validators : Network_config.node_id list;
  has_archive : bool;  (** orgs at [High] and above must publish archives *)
}

val org :
  ?quality:quality -> ?has_archive:bool -> name:string -> Network_config.node_id list -> org

val quorum_set : org list -> Scp.Quorum_set.t
(** The synthesized quorum set shared by every validator.
    @raise Invalid_argument if no org is given or archive requirements are
    violated. *)

val network_config : org list -> Network_config.t
(** The collective configuration in which every listed validator declares
    the synthesized quorum set — input to {!Intersection.check}. *)

val org_threshold : int -> int
(** 51% of n, stellar-core rounding. *)
