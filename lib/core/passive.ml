module Graph = Monpos_graph.Graph
module Cover = Monpos_cover.Cover
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Simplex = Monpos_lp.Simplex
module Span = Monpos_obs.Span
module Error = Monpos_resilience.Error
module Deadline = Monpos_resilience.Deadline

type solution = {
  monitors : Graph.edge list;
  coverage : float;
  fraction : float;
  count : int;
  optimal : bool;
  method_name : string;
}

let mk_solution inst ~optimal ~method_name monitors =
  let monitors = List.sort_uniq compare monitors in
  let coverage = Instance.coverage inst monitors in
  {
    monitors;
    coverage;
    fraction = Instance.coverage_fraction inst monitors;
    count = List.length monitors;
    optimal;
    method_name;
  }

let validate ?(k = 1.0) inst monitors =
  Instance.coverage_fraction inst monitors >= k -. 1e-9

let target_of inst k = k *. inst.Instance.total_volume

let greedy ?(k = 1.0) inst =
  Span.run "passive.greedy" @@ fun () ->
  let cover = Instance.cover_view inst in
  let chosen = Cover.greedy ~target:(target_of inst k) cover in
  mk_solution inst ~optimal:false ~method_name:"greedy" chosen

let greedy_static ?(k = 1.0) inst =
  Span.run "passive.greedy_static" @@ fun () ->
  let ne = Graph.num_edges inst.Instance.graph in
  let order =
    List.sort
      (fun a b -> compare inst.Instance.loads.(b) inst.Instance.loads.(a))
      (List.init ne Fun.id)
  in
  let target = target_of inst k in
  let covered = Array.make (Array.length inst.Instance.traffics) false in
  let covered_w = ref 0.0 in
  let uses = Array.make ne [] in
  Array.iteri
    (fun t tr -> List.iter (fun e -> uses.(e) <- t :: uses.(e)) tr.Instance.t_edges)
    inst.Instance.traffics;
  let rec go acc = function
    | [] ->
      if !covered_w >= target -. 1e-9 then acc
      else Error.infeasible "Passive.greedy_static: target unreachable"
    | e :: rest ->
      if !covered_w >= target -. 1e-9 then acc
      else begin
        List.iter
          (fun t ->
            if not covered.(t) then begin
              covered.(t) <- true;
              covered_w := !covered_w +. inst.Instance.traffics.(t).Instance.t_volume
            end)
          uses.(e);
        go (e :: acc) rest
      end
  in
  let chosen = go [] order in
  mk_solution inst ~optimal:false ~method_name:"greedy-static" chosen

let solve_exact ?(k = 1.0) ?node_limit inst =
  Span.run "passive.exact" @@ fun () ->
  let cover = Instance.cover_view inst in
  let r = Cover.exact_detailed ~target:(target_of inst k) ?node_limit cover in
  mk_solution inst ~optimal:r.Cover.proven_optimal ~method_name:"exact"
    r.Cover.chosen

(* Edges that carry at least one traffic; others can never help. *)
let used_edges inst =
  List.filter
    (fun e -> inst.Instance.loads.(e) > 0.0)
    (List.init (Graph.num_edges inst.Instance.graph) Fun.id)

(* Linear program 2: min sum x_e
     s.t. sum_{e in p_t} x_e >= delta_t        (for all t)
          sum_t delta_t v_t >= k sum_t v_t
          delta_t in [0,1], x_e in {0,1} *)
let build_lp2 ?(k = 1.0) ?(installed = []) ?budget ~maximize_coverage inst =
  let m =
    Model.create
      (if maximize_coverage then Model.Maximize else Model.Minimize)
      ~name:"ppm-lp2"
  in
  let edges = used_edges inst in
  let installed_flags = Array.make (Graph.num_edges inst.Instance.graph) false in
  List.iter (fun e -> installed_flags.(e) <- true) installed;
  let xvar = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let obj =
        if maximize_coverage then 0.0
        else if installed_flags.(e) then 0.0
        else 1.0
      in
      let v = Model.add_var m ~name:(Printf.sprintf "x_%d" e) ~obj Model.Binary in
      if installed_flags.(e) then Model.fix m v 1.0;
      Hashtbl.replace xvar e v)
    edges;
  let total = inst.Instance.total_volume in
  let coverage_terms = ref [] in
  Array.iteri
    (fun t tr ->
      let obj =
        if maximize_coverage then tr.Instance.t_volume /. max total 1e-9
        else 0.0
      in
      let d =
        Model.add_var m ~name:(Printf.sprintf "delta_%d" t) ~ub:1.0 ~obj
          Model.Continuous
      in
      let terms =
        (1.0, d)
        :: List.filter_map
             (fun e ->
               Option.map (fun x -> (-1.0, x)) (Hashtbl.find_opt xvar e))
             tr.Instance.t_edges
      in
      Model.add_constr m ~name:(Printf.sprintf "cov_%d" t) terms Model.Le 0.0;
      coverage_terms := (tr.Instance.t_volume, d) :: !coverage_terms)
    inst.Instance.traffics;
  if not maximize_coverage then
    Model.add_constr m ~name:"global" !coverage_terms Model.Ge (k *. total);
  (match budget with
  | None -> ()
  | Some b ->
    let terms = Hashtbl.fold (fun _ v acc -> (1.0, v) :: acc) xvar [] in
    Model.add_constr m ~name:"budget" terms Model.Le (float_of_int b));
  (m, xvar)

(* Linear program 1: arc-path flow formulation. Variables f_t^e for
   every (traffic, edge of its path), plus binary x_e. *)
let build_lp1 ?(k = 1.0) inst =
  let m = Model.create Model.Minimize ~name:"ppm-lp1" in
  let edges = used_edges inst in
  let xvar = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace xvar e
        (Model.add_var m ~name:(Printf.sprintf "x_%d" e) ~obj:1.0 Model.Binary))
    edges;
  (* f vars grouped per edge for the first constraint family *)
  let per_edge = Hashtbl.create 64 in
  let flow_terms = ref [] in
  Array.iteri
    (fun t tr ->
      let fvars =
        List.map
          (fun e ->
            let f =
              Model.add_var m ~name:(Printf.sprintf "f_%d_%d" t e)
                Model.Continuous
            in
            let cur = try Hashtbl.find per_edge e with Not_found -> [] in
            Hashtbl.replace per_edge e (f :: cur);
            flow_terms := (1.0, f) :: !flow_terms;
            (e, f))
          tr.Instance.t_edges
      in
      (* sum_e f_t^e <= v_t *)
      Model.add_constr m
        ~name:(Printf.sprintf "vol_%d" t)
        (List.map (fun (_, f) -> (1.0, f)) fvars)
        Model.Le tr.Instance.t_volume)
    inst.Instance.traffics;
  (* sum_{t in pi_e} f_t^e <= x_e * load_e *)
  Hashtbl.iter
    (fun e fs ->
      match Hashtbl.find_opt xvar e with
      | None -> ()
      | Some x ->
        Model.add_constr m
          ~name:(Printf.sprintf "open_%d" e)
          ((-.inst.Instance.loads.(e), x) :: List.map (fun f -> (1.0, f)) fs)
          Model.Le 0.0)
    per_edge;
  (* total monitored flow >= k V *)
  Model.add_constr m ~name:"global" !flow_terms Model.Ge
    (k *. inst.Instance.total_volume);
  (m, xvar)

let extract_monitors xvar solution =
  Hashtbl.fold
    (fun e v acc ->
      if solution.(Model.var_index v) > 0.5 then e :: acc else acc)
    xvar []

let solve_mip ?(k = 1.0) ?(formulation = `Lp2) ?options inst =
  Span.run "passive.mip" @@ fun () ->
  let m, xvar =
    match formulation with
    | `Lp2 -> build_lp2 ~k ~maximize_coverage:false inst
    | `Lp1 -> build_lp1 ~k inst
  in
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Passive.solve_mip" m in
  let name = match formulation with `Lp2 -> "mip-lp2" | `Lp1 -> "mip-lp1" in
  mk_solution inst ~optimal ~method_name:name (extract_monitors xvar x)

(* The LP2 relaxation at [k], solved to optimality for the phase
   [Passive.<phase>], or the typed error its status calls for. The
   deadline is checked before building: constructing LP2 for a large
   instance is itself a visible fraction of a small budget. *)
let solve_lp2_relaxation ~phase ~k ?deadline inst =
  let fn = "Passive." ^ phase in
  Option.iter (Deadline.check ~phase:fn) deadline;
  let m, xvar = build_lp2 ~k ~maximize_coverage:false inst in
  let sol = Simplex.solve_model ?deadline m in
  match sol.Simplex.status with
  | Simplex.Optimal -> (sol, xvar)
  | Simplex.Infeasible ->
    Error.infeasible (fn ^ ": no fractional placement reaches k")
  | Simplex.Deadline_reached ->
    Error.deadline_exceeded ~phase:fn
      ~elapsed:
        (match deadline with None -> 0.0 | Some d -> Deadline.elapsed d)
  | _ ->
    Error.numerical ~stage:("passive." ^ phase)
      ~detail:"relaxation not solved"

let lp_bound ?(k = 1.0) ?deadline inst =
  Span.run "passive.lp_bound" @@ fun () ->
  let sol, _ = solve_lp2_relaxation ~phase:"lp_bound" ~k ?deadline inst in
  sol.Simplex.objective

let randomized_rounding ?(k = 1.0) ?(trials = 32) ?(seed = 1) ?deadline inst =
  Span.run "passive.randomized_rounding" @@ fun () ->
  let sol, xvar =
    solve_lp2_relaxation ~phase:"randomized_rounding" ~k ?deadline inst
  in
  let fractional =
    Hashtbl.fold
      (fun e v acc -> (e, sol.Simplex.primal.(Model.var_index v)) :: acc)
      xvar []
  in
  let rng = Monpos_util.Prng.create seed in
  let target = target_of inst k in
  let prune chosen =
    (* drop picks that are redundant for the target, lightest first *)
    let keep = ref (List.sort_uniq compare chosen) in
    List.iter
      (fun e ->
        let without = List.filter (( <> ) e) !keep in
        if Instance.coverage inst without >= target -. 1e-9 then keep := without)
      (List.sort
         (fun a b -> compare inst.Instance.loads.(a) inst.Instance.loads.(b))
         (List.sort_uniq compare chosen));
    !keep
  in
  let best = ref None in
  let out_of_time () =
    match deadline with None -> false | Some d -> Deadline.expired d
  in
  (try
     for _ = 1 to trials do
       (* a sampled-and-pruned placement is already an answer, so on
          expiry keep the best trial so far instead of failing *)
       if out_of_time () then raise Exit;
       (* escalate the inclusion scale until the sample is feasible *)
       let rec attempt alpha =
      if alpha > 64.0 then List.map fst fractional
      else begin
        let chosen =
          List.filter_map
            (fun (e, x) ->
              let p = min 1.0 (alpha *. x) in
              if p > 0.0 && Monpos_util.Prng.float rng 1.0 < p then Some e
              else None)
            fractional
        in
        if Instance.coverage inst chosen >= target -. 1e-9 then chosen
         else attempt (alpha *. 1.6)
       end
       in
       let chosen = prune (attempt 1.0) in
       match !best with
       | Some b when List.length b <= List.length chosen -> ()
       | _ -> best := Some chosen
     done
   with Exit -> ());
  (match (!best, deadline) with
  | None, Some d ->
    Error.deadline_exceeded ~phase:"Passive.randomized_rounding"
      ~elapsed:(Deadline.elapsed d)
  | _ -> ());
  mk_solution inst ~optimal:false ~method_name:"randomized-rounding"
    (Option.get !best)

let incremental ?(k = 1.0) ?options ~installed inst =
  Span.run "passive.incremental" @@ fun () ->
  let m, xvar = build_lp2 ~k ~installed ~maximize_coverage:false inst in
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Passive.incremental" m in
  let all = extract_monitors xvar x in
  let installed_set = List.sort_uniq compare installed in
  let fresh = List.filter (fun e -> not (List.mem e installed_set)) all in
  let sol = mk_solution inst ~optimal ~method_name:"incremental" fresh in
  (* coverage must account for the installed devices as well *)
  let covered = Instance.coverage inst (fresh @ installed_set) in
  {
    sol with
    coverage = covered;
    fraction =
      (if inst.Instance.total_volume <= 0.0 then 1.0
       else covered /. inst.Instance.total_volume);
  }

let budgeted ~budget ?options inst =
  Span.run "passive.budgeted" @@ fun () ->
  let m, xvar =
    build_lp2 ~budget ~maximize_coverage:true inst
  in
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Passive.budgeted" m in
  mk_solution inst ~optimal ~method_name:"budgeted" (extract_monitors xvar x)

let marginal_gains ?(max_budget = 8) ?options inst =
  let limit = min max_budget (List.length (used_edges inst)) in
  List.map
    (fun b -> (b, (budgeted ~budget:b ?options inst).fraction))
    (List.init limit (fun i -> i + 1))

let pp ppf s =
  Format.fprintf ppf "%s: %d devices, cov %.1f%%%s" s.method_name s.count
    (100.0 *. s.fraction)
    (if s.optimal then " (optimal)" else "")
