(** Criticality detection (§6.2.2): flag organizations whose worst-case
    misconfiguration would leave the network one step from divergence,
    before it happens. *)

type org = { name : string; validators : Network_config.node_id list }

val critical_orgs : Network_config.t -> org list -> org list
(** Orgs whose misconfiguration alone admits disjoint quorums among the
    remaining nodes: the intersection checker is re-run with each org's
    nodes simulated as worst-case misconfigured (modelled as byzantine:
    they will complete any candidate quorum's slices).  An empty result
    means the configuration keeps two layers of safety margin. *)
