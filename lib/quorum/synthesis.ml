type quality = Critical | High | Medium | Low

type org = {
  name : string;
  quality : quality;
  validators : Network_config.node_id list;
  has_archive : bool;
}

let org ?(quality = Medium) ?(has_archive = true) ~name validators =
  { name; quality; validators; has_archive }

let org_threshold n = Scp.Quorum_set.percent_threshold 51 n

(* One 51%-threshold inner set per organization. *)
let org_set o =
  if o.validators = [] then invalid_arg "Synthesis: org with no validators";
  Scp.Quorum_set.make ~threshold:(org_threshold (List.length o.validators)) o.validators

let group_set ~pct entries_orgs inner =
  let inner_sets = List.map org_set entries_orgs @ inner in
  let n = List.length inner_sets in
  Scp.Quorum_set.make ~threshold:(Scp.Quorum_set.percent_threshold pct n) ~inner:inner_sets []

let quorum_set orgs =
  if orgs = [] then invalid_arg "Synthesis.quorum_set: no orgs";
  List.iter
    (fun o ->
      if (o.quality = Critical || o.quality = High) && not o.has_archive then
        invalid_arg
          (Printf.sprintf "Synthesis: org %s is high-quality but publishes no archive" o.name))
    orgs;
  let by q = List.filter (fun o -> o.quality = q) orgs in
  let low = by Low and medium = by Medium and high = by High and critical = by Critical in
  (* Build bottom-up: each tier's group becomes one entry of the tier
     above (Fig. 6). *)
  let lift pct tier below =
    match (tier, below) with
    | [], None -> None
    | [], (Some _ as b) -> b
    | orgs, None -> Some (group_set ~pct orgs [])
    | orgs, Some b -> Some (group_set ~pct orgs [ b ])
  in
  let g = lift 67 low None in
  let g = lift 67 medium g in
  let g = lift 67 high g in
  let g = lift 100 critical g in
  match g with Some q -> q | None -> invalid_arg "Synthesis.quorum_set: no orgs"

let network_config orgs =
  let q = quorum_set orgs in
  Network_config.of_assoc
    (List.concat_map (fun o -> List.map (fun v -> (v, q)) o.validators) orgs)
