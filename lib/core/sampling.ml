module Graph = Monpos_graph.Graph
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Simplex = Monpos_lp.Simplex
module Mincost = Monpos_flow.Mincost
module Span = Monpos_obs.Span
module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Error = Monpos_resilience.Error
module Chaos = Monpos_resilience.Chaos

let m_fallbacks =
  lazy
    (Metrics.counter
       ~labels:[ ("solver", "ppme-dynamic") ]
       Metrics.default "resilience.fallbacks")

let m_stale =
  lazy
    (Metrics.counter
       ~labels:[ ("solver", "ppme-dynamic") ]
       Metrics.default "resilience.stale_ticks")

type costs = {
  install : Graph.edge -> float;
  exploit : Graph.edge -> float;
}

let uniform_costs ?(install = 10.0) ?(exploit = 1.0) () =
  { install = (fun _ -> install); exploit = (fun _ -> exploit) }

let load_scaled_costs inst ?(install = 10.0) () =
  let loads = inst.Instance.loads in
  let max_load = Array.fold_left max 1e-9 loads in
  {
    install = (fun _ -> install);
    exploit = (fun e -> loads.(e) /. max_load);
  }

type problem = {
  instance : Instance.t;
  k : float;
  h : float array;
  costs : costs;
}

let make_problem ?(k = 0.9) ?h ?costs instance =
  let ndemands = Array.length instance.Instance.demands in
  let h = match h with Some h -> h | None -> Array.make ndemands 0.0 in
  if Array.length h <> ndemands then
    invalid_arg "Sampling.make_problem: h length mismatch";
  Array.iter
    (fun ht ->
      if ht < 0.0 || ht > k +. 1e-12 then
        invalid_arg "Sampling.make_problem: need 0 <= h_t <= k")
    h;
  let costs = match costs with Some c -> c | None -> uniform_costs () in
  { instance; k; h; costs }

type solution = {
  installed : Graph.edge list;
  rates : float array;
  path_fractions : float array;
  install_cost : float;
  exploit_cost : float;
  total_cost : float;
  fraction : float;
  optimal : bool;
}

let used_edges inst =
  List.filter
    (fun e -> inst.Instance.loads.(e) > 0.0)
    (List.init (Graph.num_edges inst.Instance.graph) Fun.id)

(* Shared LP3 body. [mode] selects the MILP (with binary x_e over
   [candidates]) or the PPME* LP (rates restricted to [candidates],
   no binaries). Returns the model plus variable maps. *)
let build pb ~candidates ~with_binaries =
  let inst = pb.instance in
  let m = Model.create Model.Minimize ~name:"ppme" in
  let rvar = Hashtbl.create 64 in
  let xvar = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let r =
        Model.add_var m ~name:(Printf.sprintf "r_%d" e) ~ub:1.0
          ~obj:(pb.costs.exploit e) Model.Continuous
      in
      Hashtbl.replace rvar e r;
      if with_binaries then begin
        let x =
          Model.add_var m ~name:(Printf.sprintf "x_%d" e)
            ~obj:(pb.costs.install e) Model.Binary
        in
        Hashtbl.replace xvar e x;
        (* x_e >= r_e *)
        Model.add_constr m
          ~name:(Printf.sprintf "setup_%d" e)
          [ (1.0, x); (-1.0, r) ]
          Model.Ge 0.0
      end)
    candidates;
  (* delta_p per flattened traffic *)
  let delta =
    Array.mapi
      (fun p _ ->
        Model.add_var m ~name:(Printf.sprintf "delta_%d" p) ~ub:1.0
          Model.Continuous)
      inst.Instance.traffics
  in
  (* sum_{e in p} r_e >= delta_p *)
  Array.iteri
    (fun p tr ->
      let terms =
        ((-1.0), delta.(p))
        :: List.filter_map
             (fun e -> Option.map (fun r -> (1.0, r)) (Hashtbl.find_opt rvar e))
             tr.Instance.t_edges
      in
      Model.add_constr m ~name:(Printf.sprintf "rate_%d" p) terms Model.Ge 0.0)
    inst.Instance.traffics;
  (* per-demand floor: sum_{p in P_t} delta_p v_p >= h_t sum v_p *)
  let ndemands = Array.length inst.Instance.demands in
  let by_demand = Array.make ndemands [] in
  Array.iteri
    (fun p tr ->
      by_demand.(tr.Instance.t_demand) <-
        (p, tr.Instance.t_volume) :: by_demand.(tr.Instance.t_demand))
    inst.Instance.traffics;
  Array.iteri
    (fun t paths ->
      if pb.h.(t) > 0.0 && paths <> [] then begin
        let vol = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 paths in
        Model.add_constr m
          ~name:(Printf.sprintf "demand_%d" t)
          (List.map (fun (p, v) -> (v, delta.(p))) paths)
          Model.Ge (pb.h.(t) *. vol)
      end)
    by_demand;
  (* global coverage *)
  let terms =
    Array.to_list
      (Array.mapi (fun p tr -> (tr.Instance.t_volume, delta.(p))) inst.Instance.traffics)
  in
  Model.add_constr m ~name:"global" terms Model.Ge
    (pb.k *. inst.Instance.total_volume);
  (m, rvar, xvar, delta)

let assemble pb ~rvar ~delta ~optimal x =
  let inst = pb.instance in
  let nedges = Graph.num_edges inst.Instance.graph in
  let rates = Array.make nedges 0.0 in
  Hashtbl.iter
    (fun e r ->
      let v = x.(Model.var_index r) in
      rates.(e) <- (if v < 1e-9 then 0.0 else v))
    rvar;
  let installed =
    List.filter (fun e -> rates.(e) > 1e-9) (List.init nedges Fun.id)
  in
  let path_fractions =
    Array.map (fun d -> x.(Model.var_index d)) delta
  in
  let install_cost =
    List.fold_left (fun acc e -> acc +. pb.costs.install e) 0.0 installed
  in
  let exploit_cost =
    List.fold_left
      (fun acc e -> acc +. (pb.costs.exploit e *. rates.(e)))
      0.0 installed
  in
  let monitored =
    Monpos_util.Stats.sum
      (Array.mapi
         (fun p tr -> tr.Instance.t_volume *. path_fractions.(p))
         inst.Instance.traffics)
  in
  {
    installed;
    rates;
    path_fractions;
    install_cost;
    exploit_cost;
    total_cost = install_cost +. exploit_cost;
    fraction =
      (if inst.Instance.total_volume <= 0.0 then 1.0
       else monitored /. inst.Instance.total_volume);
    optimal;
  }

(* LP3's relaxation is weak (install variables ride on x_e >= r_e), so
   proving the last fraction of a percent of optimality can dominate
   runtime. Default to a 1% relative gap under a 6s budget — callers
   needing proofs pass their own options. *)
let default_milp_options =
  {
    Mip.default_options with
    Mip.time_limit = 6.0;
    gap_tolerance = 0.01;
  }

let solve_milp ?(options = default_milp_options) pb =
  Span.run "sampling.milp" @@ fun () ->
  let candidates = used_edges pb.instance in
  let m, rvar, _xvar, delta = build pb ~candidates ~with_binaries:true in
  let x, optimal = Mip.solve_or_fail ~options ~stage:"Sampling.solve_milp" m in
  assemble pb ~rvar ~delta ~optimal x

let reoptimize pb ~installed =
  Span.run "sampling.reoptimize" @@ fun () ->
  let usable =
    List.filter (fun e -> pb.instance.Instance.loads.(e) > 0.0) installed
  in
  let m, rvar, _xvar, delta = build pb ~candidates:usable ~with_binaries:false in
  let sol = Simplex.solve_model m in
  match sol.Simplex.status with
  | Simplex.Optimal ->
    let s = assemble pb ~rvar ~delta ~optimal:true sol.Simplex.primal in
    (* installation is sunk cost here; report it for the fixed set *)
    let install_cost =
      List.fold_left (fun acc e -> acc +. pb.costs.install e) 0.0 usable
    in
    { s with install_cost; total_cost = install_cost +. s.exploit_cost }
  | Simplex.Infeasible ->
    Error.infeasible
      "Sampling.reoptimize: targets unreachable with this placement"
  | _ ->
    Error.numerical ~stage:"sampling.reoptimize" ~detail:"relaxation not solved"

(* Min-cost-flow PPME*: S -> w_e (installed) -> w_p -> w_t -> T.
   Arc (S, w_e) has capacity load(e) and cost coste(e)/load(e);
   (w_e, w_p) exists when path p crosses e, capacity v_p;
   (w_p, w_t) capacity v_p; (w_t, T) has bounds [h_t V_t, V_t].
   Exactly k V units are routed from the source.

   The network's shape depends only on the topology and the traffic
   routes, not on the drifting volumes, so a handle built once can
   replay §5.4 drift ticks by rewriting arc bounds/costs/supplies in
   place and warm-starting the network-simplex basis. *)
type flow_net = {
  fn_algo : Mincost.algo;
  fn_net : Mincost.t;
  fn_usable : Graph.edge list;
  fn_s_arc : (Graph.edge, Mincost.arc) Hashtbl.t;
  fn_vol_arcs : (Mincost.arc * int) list;
      (* (w_e, w_p) and (w_p, w_t) arcs whose capacity tracks the
         volume of traffic [p] *)
  fn_dem_arcs : (Mincost.arc * int) array;  (* (w_t, T): [h_t V_t, V_t] *)
  fn_source : int;
  fn_sink : int;
  fn_ntraffics : int;
  fn_ndemands : int;
}

let demand_volumes inst =
  let vols = Array.make (Array.length inst.Instance.demands) 0.0 in
  Array.iter
    (fun tr ->
      vols.(tr.Instance.t_demand) <-
        vols.(tr.Instance.t_demand) +. tr.Instance.t_volume)
    inst.Instance.traffics;
  vols

let flow_build ~algo pb ~installed =
  let inst = pb.instance in
  let usable =
    List.filter (fun e -> inst.Instance.loads.(e) > 0.0) installed
    |> List.sort_uniq compare
  in
  let ntraffics = Array.length inst.Instance.traffics in
  let ndemands = Array.length inst.Instance.demands in
  (* node numbering *)
  let source = 0 and sink = 1 in
  let edge_node = Hashtbl.create 16 in
  let next = ref 2 in
  List.iter
    (fun e ->
      Hashtbl.replace edge_node e !next;
      incr next)
    usable;
  let path_node = Array.init ntraffics (fun _ -> let v = !next in incr next; v) in
  let demand_node = Array.init ndemands (fun _ -> let v = !next in incr next; v) in
  let net = Mincost.create !next in
  let s_arc = Hashtbl.create 16 in
  List.iter
    (fun e ->
      let load = inst.Instance.loads.(e) in
      Hashtbl.replace s_arc e
        (Mincost.add_arc net ~src:source ~dst:(Hashtbl.find edge_node e)
           ~capacity:load
           ~cost:(pb.costs.exploit e /. load)))
    usable;
  let vol_arcs = ref [] in
  Array.iteri
    (fun p tr ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt edge_node e with
          | None -> ()
          | Some we ->
            vol_arcs :=
              ( Mincost.add_arc net ~src:we ~dst:path_node.(p)
                  ~capacity:tr.Instance.t_volume ~cost:0.0,
                p )
              :: !vol_arcs)
        tr.Instance.t_edges;
      vol_arcs :=
        ( Mincost.add_arc net ~src:path_node.(p)
            ~dst:demand_node.(tr.Instance.t_demand)
            ~capacity:tr.Instance.t_volume ~cost:0.0,
          p )
        :: !vol_arcs)
    inst.Instance.traffics;
  let demand_volume = demand_volumes inst in
  let dem_arcs =
    Array.mapi
      (fun t dn ->
        let lower = pb.h.(t) *. demand_volume.(t) in
        ( Mincost.add_arc ~lower net ~src:dn ~dst:sink
            ~capacity:demand_volume.(t) ~cost:0.0,
          t ))
      demand_node
  in
  let request = pb.k *. inst.Instance.total_volume in
  Mincost.set_supply net source request;
  Mincost.set_supply net sink (-.request);
  {
    fn_algo = algo;
    fn_net = net;
    fn_usable = usable;
    fn_s_arc = s_arc;
    fn_vol_arcs = !vol_arcs;
    fn_dem_arcs = dem_arcs;
    fn_source = source;
    fn_sink = sink;
    fn_ntraffics = ntraffics;
    fn_ndemands = ndemands;
  }

(* Push a drifted instance's loads/volumes into the already-built
   network: bounds, costs and supplies change, the shape never does. *)
let flow_sync fn pb =
  let inst = pb.instance in
  List.iter
    (fun e ->
      let load = inst.Instance.loads.(e) in
      if load > 0.0 then
        Mincost.update_arc ~capacity:load
          ~cost:(pb.costs.exploit e /. load)
          fn.fn_net
          (Hashtbl.find fn.fn_s_arc e)
      else
        Mincost.update_arc ~capacity:0.0 ~cost:0.0 fn.fn_net
          (Hashtbl.find fn.fn_s_arc e))
    fn.fn_usable;
  List.iter
    (fun (a, p) ->
      Mincost.update_arc
        ~capacity:inst.Instance.traffics.(p).Instance.t_volume fn.fn_net a)
    fn.fn_vol_arcs;
  let vols = demand_volumes inst in
  Array.iter
    (fun (a, t) ->
      Mincost.update_arc
        ~lower:(pb.h.(t) *. vols.(t))
        ~capacity:vols.(t) fn.fn_net a)
    fn.fn_dem_arcs;
  let request = pb.k *. inst.Instance.total_volume in
  Mincost.set_supply fn.fn_net fn.fn_source request;
  Mincost.set_supply fn.fn_net fn.fn_sink (-.request)

let flow_extract fn pb =
  let inst = pb.instance in
  (match Mincost.solve ~algo:fn.fn_algo fn.fn_net with
  | Mincost.Optimal -> ()
  | Mincost.Infeasible ->
    Error.infeasible
      "Sampling.reoptimize_flow: targets unreachable with this placement");
  let nedges = Graph.num_edges inst.Instance.graph in
  let rates = Array.make nedges 0.0 in
  List.iter
    (fun e ->
      let load = inst.Instance.loads.(e) in
      if load > 0.0 then begin
        let f = Mincost.flow fn.fn_net (Hashtbl.find fn.fn_s_arc e) in
        rates.(e) <- min 1.0 (f /. load)
      end)
    fn.fn_usable;
  let exploit_cost = Mincost.total_cost fn.fn_net in
  let install_cost =
    List.fold_left (fun acc e -> acc +. pb.costs.install e) 0.0 fn.fn_usable
  in
  let monitored = pb.k *. inst.Instance.total_volume in
  {
    installed = List.filter (fun e -> rates.(e) > 1e-9) fn.fn_usable;
    rates;
    path_fractions =
      Array.map (fun _ -> 0.0) inst.Instance.traffics
      (* per-path fractions are implicit in the flow; not extracted *);
    install_cost;
    exploit_cost;
    total_cost = install_cost +. exploit_cost;
    fraction =
      (if inst.Instance.total_volume <= 0.0 then 1.0
       else monitored /. inst.Instance.total_volume);
    optimal = true;
  }

let reoptimize_flow ?(algo = Mincost.Ssp) pb ~installed =
  Span.run "sampling.reoptimize_flow" @@ fun () ->
  let fn = flow_build ~algo pb ~installed in
  flow_extract fn pb

type reopt = {
  rp_algo : Mincost.algo;
  rp_installed : Graph.edge list;
  mutable rp_fn : flow_net;
}

let reopt_create ?(algo = Mincost.Net_simplex) pb ~installed =
  { rp_algo = algo; rp_installed = installed;
    rp_fn = flow_build ~algo pb ~installed }

let reopt_solve rp pb =
  Span.run "sampling.reoptimize_flow" @@ fun () ->
  let inst = pb.instance in
  let fn = rp.rp_fn in
  let fn =
    if
      fn.fn_ntraffics <> Array.length inst.Instance.traffics
      || fn.fn_ndemands <> Array.length inst.Instance.demands
    then begin
      (* different matrix shape: the cached network no longer matches,
         rebuild from scratch (cold start) *)
      let fn' = flow_build ~algo:rp.rp_algo pb ~installed:rp.rp_installed in
      rp.rp_fn <- fn';
      fn'
    end
    else fn
  in
  flow_sync fn pb;
  flow_extract fn pb

let reopt_check_tree rp = Mincost.check_tree rp.rp_fn.fn_net

let coverage_with_rates pb ~rates =
  let inst = pb.instance in
  let monitored =
    Monpos_util.Stats.sum
      (Array.map
         (fun tr ->
           let sum =
             List.fold_left (fun acc e -> acc +. rates.(e)) 0.0 tr.Instance.t_edges
           in
           tr.Instance.t_volume *. min 1.0 sum)
         inst.Instance.traffics)
  in
  if inst.Instance.total_volume <= 0.0 then 1.0
  else monitored /. inst.Instance.total_volume

type tick = {
  step : int;
  fraction_before : float;
  reoptimized : bool;
  fraction_after : float;
  exploit_cost : float;
  stale : bool;
}

let exploit_of pb rates =
  let acc = ref 0.0 in
  Array.iteri
    (fun e r -> if r > 0.0 then acc := !acc +. (pb.costs.exploit e *. r))
    rates;
  !acc

let saturate_rates nedges installed =
  let rates = Array.make nedges 0.0 in
  List.iter (fun e -> rates.(e) <- 1.0) installed;
  rates

(* The ladder's terminal PPME rung: every installed device at rate
   1.0. Pure arithmetic, no LP — cannot fail, only under-cover. *)
let saturated pb ~installed =
  let inst = pb.instance in
  let installed = List.sort_uniq compare installed in
  let rates = saturate_rates (Graph.num_edges inst.Instance.graph) installed in
  let path_fractions =
    Array.map
      (fun tr ->
        min 1.0
          (List.fold_left
             (fun acc e -> acc +. rates.(e))
             0.0 tr.Instance.t_edges))
      inst.Instance.traffics
  in
  let install_cost =
    List.fold_left (fun acc e -> acc +. pb.costs.install e) 0.0 installed
  in
  let exploit_cost = exploit_of pb rates in
  let monitored =
    Monpos_util.Stats.sum
      (Array.mapi
         (fun p tr -> tr.Instance.t_volume *. path_fractions.(p))
         inst.Instance.traffics)
  in
  {
    installed;
    rates;
    path_fractions;
    install_cost;
    exploit_cost;
    total_cost = install_cost +. exploit_cost;
    fraction =
      (if inst.Instance.total_volume <= 0.0 then 1.0
       else monitored /. inst.Instance.total_volume);
    optimal = false;
  }

type kernel = Lp | Flow of Mincost.algo

(* A re-solve attempt for the control loop. Runs inside a chaos
   protect scope with its own injection site, so the fault harness can
   make any individual re-optimization fail and prove the loop serves
   the previous placement instead of crashing (§5.4's operational
   requirement). *)
let try_rates pb ~installed ~solve =
  match
    Chaos.protect (fun () ->
        if Chaos.fire ~site:"sampling.reopt_fail" ~p:0.15 () then
          Error.numerical ~stage:"sampling.reoptimize"
            ~detail:"injected re-optimization fault"
        else solve ())
  with
  | sol -> Ok sol.rates
  | exception Error.Error e -> (
    Metrics.incr (Lazy.force m_fallbacks);
    match e with
    | Error.Infeasible_model _ ->
      (* even rate 1.0 everywhere cannot reach the target: saturating
         is exact, not stale *)
      Ok (saturate_rates (Graph.num_edges pb.instance.Instance.graph) installed)
    | e -> Stdlib.Error e)

let run_dynamic ?(kernel = Lp) pb ~installed ~threshold ~steps ~sigma ~seed =
  let nedges = Graph.num_edges pb.instance.Instance.graph in
  let rng = Monpos_util.Prng.create seed in
  let sink = Trace.current () in
  let stale_descent reason =
    Metrics.incr (Lazy.force m_stale);
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Ladder_descent
           { solver = "ppme-dynamic"; from_rung = "reoptimize";
             to_rung = "previous_placement"; reason });
    Monpos_obs.Flightrec.trigger ~reason:"ladder_descent"
  in
  (* With a flow kernel the network is built once here and every tick
     re-solves it in place — under Net_simplex each re-solve warm
     starts from the previous spanning-tree basis (§5.4). *)
  let reopt =
    match kernel with
    | Lp -> None
    | Flow algo -> Some (reopt_create ~algo pb ~installed)
  in
  let attempt pb' =
    match reopt with
    | None -> try_rates pb' ~installed ~solve:(fun () -> reoptimize pb' ~installed)
    | Some rp -> try_rates pb' ~installed ~solve:(fun () -> reopt_solve rp pb')
  in
  let rates =
    ref
      (match attempt pb with
      | Ok rates -> rates
      | Stdlib.Error e ->
        (* no previous placement to serve yet: saturation is the only
           safe answer at start-up *)
        stale_descent (Error.to_string e);
        saturate_rates nedges installed)
  in
  let demands = ref pb.instance.Instance.demands in
  let ticks = ref [] in
  for step = 1 to steps do
    let drift_seed = Int64.to_int (Monpos_util.Prng.bits64 rng) land 0xFFFFFF in
    demands := Monpos_traffic.Traffic.drift !demands ~seed:drift_seed ~sigma;
    let inst' = Instance.replace_demands pb.instance !demands in
    let pb' = { pb with instance = inst' } in
    let before = coverage_with_rates pb' ~rates:!rates in
    let reoptimized = before < threshold in
    let stale =
      reoptimized
      &&
      match attempt pb' with
      | Ok fresh ->
        rates := fresh;
        false
      | Stdlib.Error e ->
        (* keep serving the previous placement with a staleness
           warning instead of crashing the campaign *)
        stale_descent (Error.to_string e);
        true
    in
    let after = coverage_with_rates pb' ~rates:!rates in
    ticks :=
      {
        step;
        fraction_before = before;
        reoptimized;
        fraction_after = after;
        exploit_cost = exploit_of pb' !rates;
        stale;
      }
      :: !ticks
  done;
  List.rev !ticks

let pp ppf s =
  Format.fprintf ppf "%d devices, cov %.1f%%, cost %.2f = %.2f + %.2f"
    (List.length s.installed) (100.0 *. s.fraction) s.total_cost s.install_cost
    s.exploit_cost
