module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Traffic = Monpos_traffic.Traffic
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip

type reroute = {
  demand : int;
  old_edges : Graph.edge list;
  new_edges : Graph.edge list;
  gain : float;
}

type result = {
  instance : Instance.t;
  moves : reroute list;
  coverage_before : float;
  coverage_after : float;
}

let unit_weight _ = 1.0

(* k shortest paths per demand, the campaign's routing alternatives *)
let alternatives ?(k_paths = 3) inst =
  Array.map
    (fun (d : Traffic.demand) ->
      Paths.k_shortest_paths inst.Instance.graph ~weight:unit_weight
        ~k:k_paths d.Traffic.src d.Traffic.dst)
    inst.Instance.demands

(* Rebuild a demand on a single chosen path. *)
let repoint (d : Traffic.demand) (p : Paths.path) : Traffic.demand =
  { d with Traffic.routes = [ { Traffic.path = p; volume = d.Traffic.volume } ] }

let rebuild inst chosen =
  let demands =
    Array.mapi (fun i d -> repoint d chosen.(i)) inst.Instance.demands
  in
  Instance.replace_demands inst demands

(* Generic per-demand selection: [score] maps a candidate path to the
   monitored volume it yields for the demand; the campaign picks the
   highest score, tie-broken by path cost (shorter routes win). *)
let select_routes ?k_paths inst ~score =
  let alts = alternatives ?k_paths inst in
  Array.mapi
    (fun i paths ->
      let d = inst.Instance.demands.(i) in
      let best =
        List.fold_left
          (fun acc p ->
            let s = score d p in
            match acc with
            | None -> Some (p, s)
            | Some (_, s') when s > s' +. 1e-12 -> Some (p, s)
            | Some (p', s')
              when abs_float (s -. s') <= 1e-12 && p.Paths.cost < p'.Paths.cost
              ->
              Some (p, s)
            | acc -> acc)
          None paths
      in
      match best with
      | Some (p, _) -> p
      | None ->
        (* disconnected pair: keep the existing first route *)
        (match d.Traffic.routes with
        | r :: _ -> r.Traffic.path
        | [] -> { Paths.nodes = [ d.Traffic.src ]; edges = []; cost = 0.0 }))
    alts

let moves_of inst inst' coverage_of =
  let moves = ref [] in
  Array.iteri
    (fun i (d : Traffic.demand) ->
      let d' = inst'.Instance.demands.(i) in
      let edges_of (x : Traffic.demand) =
        match x.Traffic.routes with
        | r :: _ -> r.Traffic.path.Paths.edges
        | [] -> []
      in
      let old_edges = edges_of d and new_edges = edges_of d' in
      if old_edges <> new_edges then
        moves :=
          {
            demand = i;
            old_edges;
            new_edges;
            gain = coverage_of d' new_edges -. coverage_of d old_edges;
          }
          :: !moves)
    inst.Instance.demands;
  List.rev !moves

let reroute_for_monitors ?k_paths inst ~monitors =
  let monitored = Array.make (Graph.num_edges inst.Instance.graph) false in
  List.iter (fun e -> monitored.(e) <- true) monitors;
  let hit edges = List.exists (fun e -> monitored.(e)) edges in
  let score (d : Traffic.demand) (p : Paths.path) =
    if hit p.Paths.edges then d.Traffic.volume else 0.0
  in
  let chosen = select_routes ?k_paths inst ~score in
  let inst' = rebuild inst chosen in
  let coverage_of (d : Traffic.demand) edges =
    if hit edges then d.Traffic.volume else 0.0
  in
  {
    instance = inst';
    moves = moves_of inst inst' coverage_of;
    coverage_before = Instance.coverage_fraction inst monitors;
    coverage_after = Instance.coverage_fraction inst' monitors;
  }

let reroute_for_rates ?k_paths pb ~rates =
  let inst = pb.Sampling.instance in
  let frac edges =
    min 1.0 (List.fold_left (fun acc e -> acc +. rates.(e)) 0.0 edges)
  in
  let score (d : Traffic.demand) (p : Paths.path) =
    d.Traffic.volume *. frac p.Paths.edges
  in
  let chosen = select_routes ?k_paths inst ~score in
  let inst' = rebuild inst chosen in
  let coverage_of (d : Traffic.demand) edges = d.Traffic.volume *. frac edges in
  let pb' = { pb with Sampling.instance = inst' } in
  {
    instance = inst';
    moves = moves_of inst inst' coverage_of;
    coverage_before = Sampling.coverage_with_rates pb ~rates;
    coverage_after = Sampling.coverage_with_rates pb' ~rates;
  }

(* Joint placement + routing MIP:
     minimize sum_e x_e
     s.t. sum_p z_{t,p} = 1                      (each demand routes once)
          w_{t,p} <= z_{t,p}
          w_{t,p} <= sum_{e in p} x_e            (monitored only if routed
                                                  on a tapped path)
          sum_t v_t sum_p w_{t,p} >= coverage * V
   x binary, z binary, w in [0,1]. *)
(* like LP3, the joint relaxation is weak (w <= sum x linking); run to
   a 1% gap under a time budget by default *)
let default_joint_options =
  { Mip.default_options with Mip.time_limit = 20.0; gap_tolerance = 0.01 }

let joint_placement ?k_paths ?(coverage = 1.0) ?(options = default_joint_options)
    inst =
  let options = Some options in
  let alts = alternatives ?k_paths inst in
  let m = Model.create Model.Minimize ~name:"campaign" in
  (* x_e only for edges appearing on some alternative *)
  let xvar = Hashtbl.create 64 in
  Array.iter
    (List.iter (fun (p : Paths.path) ->
         List.iter
           (fun e ->
             if not (Hashtbl.mem xvar e) then
               Hashtbl.replace xvar e
                 (Model.add_var m ~name:(Printf.sprintf "x_%d" e) ~obj:1.0
                    Model.Binary))
           p.Paths.edges))
    alts;
  let coverage_terms = ref [] in
  let zvars =
    Array.mapi
      (fun t paths ->
        let d = inst.Instance.demands.(t) in
        let zs =
          List.mapi
            (fun i (p : Paths.path) ->
              let z =
                Model.add_var m ~name:(Printf.sprintf "z_%d_%d" t i) Model.Binary
              in
              let w =
                Model.add_var m
                  ~name:(Printf.sprintf "w_%d_%d" t i)
                  ~ub:1.0 Model.Continuous
              in
              Model.add_constr m [ (1.0, w); (-1.0, z) ] Model.Le 0.0;
              let tap_terms =
                List.filter_map
                  (fun e ->
                    Option.map (fun x -> (-1.0, x)) (Hashtbl.find_opt xvar e))
                  (List.sort_uniq compare p.Paths.edges)
              in
              Model.add_constr m ((1.0, w) :: tap_terms) Model.Le 0.0;
              coverage_terms := (d.Traffic.volume, w) :: !coverage_terms;
              (z, p))
            paths
        in
        Model.add_constr m
          (List.map (fun (z, _) -> (1.0, z)) zs)
          Model.Eq 1.0;
        zs)
      alts
  in
  Model.add_constr m ~name:"global" !coverage_terms Model.Ge
    (coverage *. inst.Instance.total_volume);
  let x, optimal =
    Mip.solve_or_fail ?options ~stage:"Campaign.joint_placement" m
  in
  let monitors =
    Hashtbl.fold
      (fun e v acc -> if x.(Model.var_index v) > 0.5 then e :: acc else acc)
      xvar []
    |> List.sort compare
  in
  let chosen =
    Array.map
      (fun zs ->
        match
          List.find_opt (fun (z, _) -> x.(Model.var_index z) > 0.5) zs
        with
        | Some (_, p) -> p
        | None -> assert false)
      zvars
  in
  let inst' = rebuild inst chosen in
  let monitored = Array.make (Graph.num_edges inst.Instance.graph) false in
  List.iter (fun e -> monitored.(e) <- true) monitors;
  let coverage_of (d : Traffic.demand) edges =
    if List.exists (fun e -> monitored.(e)) edges then d.Traffic.volume
    else 0.0
  in
  let placement =
    {
      Passive.monitors;
      coverage = Instance.coverage inst' monitors;
      fraction = Instance.coverage_fraction inst' monitors;
      count = List.length monitors;
      optimal;
      method_name = "campaign-joint";
    }
  in
  ( placement,
    {
      instance = inst';
      moves = moves_of inst inst' coverage_of;
      coverage_before = Instance.coverage_fraction inst monitors;
      coverage_after = Instance.coverage_fraction inst' monitors;
    } )
