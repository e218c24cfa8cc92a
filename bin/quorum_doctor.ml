(* The §6.2 misconfiguration detector as a CLI: synthesize (or load) a
   topology, check quorum intersection, and report critical orgs. *)

open Cmdliner

let run leaves drop_org =
  let spec, orgs = Stellar_node.Topology.tiered ~leaves () in
  Format.printf "topology: %s@." (Stellar_node.Topology.describe spec);
  let orgs =
    if drop_org >= 0 then List.filteri (fun i _ -> i <> drop_org) orgs else orgs
  in
  let config = Quorum_analysis.Synthesis.network_config orgs in
  Format.printf "validators in collective configuration: %d@."
    (Quorum_analysis.Network_config.size config);
  let t0 = Unix.gettimeofday () in
  (match Quorum_analysis.Intersection.check_counted config with
  | Quorum_analysis.Intersection.Intersecting, explored ->
      Format.printf "quorum intersection: OK (%d branch nodes, %.3fs)@." explored
        (Unix.gettimeofday () -. t0)
  | Quorum_analysis.Intersection.Disjoint (a, b), _ ->
      Format.printf "!! DISJOINT QUORUMS (%d vs %d nodes) — the network can diverge@."
        (List.length a) (List.length b)
  | Quorum_analysis.Intersection.No_quorum, _ ->
      Format.printf "!! configuration contains no quorum at all@.");
  let crit_orgs =
    Quorum_analysis.Criticality.critical_orgs config
      (List.map
         (fun o ->
           {
             Quorum_analysis.Criticality.name = o.Quorum_analysis.Synthesis.name;
             validators = o.Quorum_analysis.Synthesis.validators;
           })
         orgs)
  in
  match crit_orgs with
  | [] -> Format.printf "criticality: no single org's misconfiguration can split the network@."
  | l ->
      List.iter
        (fun o ->
          Format.printf "criticality WARNING: org %s is one misconfiguration from divergence@."
            o.Quorum_analysis.Criticality.name)
        l

let leaves = Arg.(value & opt int 0 & info [ "leaves" ] ~doc:"Watcher nodes")

let drop_org =
  Arg.(value & opt int (-1) & info [ "drop-org" ] ~doc:"Remove org i before checking")

let cmd =
  Cmd.v
    (Cmd.info "quorum_doctor" ~doc:"Check quorum intersection and criticality (§6.2)")
    Term.(const run $ leaves $ drop_org)

let () = exit (Cmd.eval cmd)
