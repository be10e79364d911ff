(* Randomized differential harness for the min-cost-flow kernels.

   Generates small random MCF instances (mixed multi-node supplies,
   lower bounds, negative costs on DAGs, deliberately starved
   infeasible families) with the deterministic Monpos_util.Prng and
   checks, instance by instance, that

   - the successive-shortest-paths kernel, the network simplex kernel
     and the LP formulation of the same instance agree on status and
     objective within 1e-6 relative,
   - on every Optimal network simplex result the complementary
     slackness certificate holds for the exposed node potentials
     (reduced cost >= 0 on arcs at their lower bound, <= 0 on
     saturated arcs, ~ 0 strictly in between),
   - after perturbing capacities, costs and supplies in place the
     warm-started network simplex re-solve agrees with cold SSP,
     cold network simplex and the LP on the perturbed instance,
   - with one supply then moved off balance (supply over demand or
     demand over supply) both kernels and the LP answer Infeasible,
   - the raw Netsimplex warm start always reuses the basis (flag set,
     zero pivots on an unchanged replay), also when drifted supplies,
     capacities and lower bounds push the old tree's flows off their
     bounds, and never changes answers,
   - after every network simplex solve, cold or warm, the spanning-tree
     basis passes [Netsimplex.check_tree] (thread, depths, potentials,
     arc orientation, flow bounds).

   Negative costs are confined to DAG instances: SSP never cancels
   cycles, so on a general digraph with negative arcs it would not be
   an oracle. The base seed comes from MONPOS_PROP_SEED (default 1) so
   CI can replay the same 200 instances under several seeds. *)

module Mincost = Monpos_flow.Mincost
module Netsimplex = Monpos_flow.Netsimplex
module Model = Monpos_lp.Model
module Simplex = Monpos_lp.Simplex
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 200

type inst = {
  n : int;
  arcs : (int * int * float * float * float) array;
      (* src, dst, lower, capacity, cost *)
  supply : float array;
}

(* families rotate with [case mod 5]:
   0 - general digraph, costs >= 0, one source/sink pair
   1 - DAG, mixed-sign costs, one source/sink pair
   2 - general digraph, costs >= 0, lower bounds on ~1/3 of the arcs
   3 - DAG, mixed-sign costs, lower bounds, multiple supply pairs
   4 - starved: tiny backbone capacities under a large demand, so a
       good share of instances is infeasible (all solvers must agree
       either way) *)
let random_instance rng mode =
  let n = 3 + Prng.int rng 5 in
  let dag = mode = 1 || mode = 3 in
  let with_lower = mode >= 2 in
  let cost () =
    if dag then Prng.float rng 8.0 -. 4.0 else Prng.float rng 4.0
  in
  let arcs = ref [] in
  let add u v cap =
    let lower =
      if with_lower && Prng.int rng 3 = 0 then Prng.float rng (cap *. 0.5)
      else 0.0
    in
    arcs := (u, v, lower, cap, cost ()) :: !arcs
  in
  (* backbone 0 -> 1 -> ... -> n-1 keeps most instances connected *)
  for v = 0 to n - 2 do
    let cap =
      if mode = 4 then 0.2 +. Prng.float rng 0.5 else 2.0 +. Prng.float rng 6.0
    in
    add v (v + 1) cap
  done;
  let extra = n + Prng.int rng (2 * n) in
  for _ = 1 to extra do
    if dag then begin
      let u = Prng.int rng (n - 1) in
      let v = u + 1 + Prng.int rng (n - 1 - u) in
      add u v (Prng.float rng 8.0)
    end
    else begin
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then add u v (Prng.float rng 8.0)
    end
  done;
  let supply = Array.make n 0.0 in
  let demand () =
    if mode = 4 then 5.0 +. Prng.float rng 5.0 else 1.0 +. Prng.float rng 3.0
  in
  if mode = 3 then
    for _ = 1 to 2 do
      let u = Prng.int rng n and v = Prng.int rng n in
      if u <> v then begin
        let d = demand () in
        supply.(u) <- supply.(u) +. d;
        supply.(v) <- supply.(v) -. d
      end
    done
  else begin
    let d = demand () in
    supply.(0) <- supply.(0) +. d;
    supply.(n - 1) <- supply.(n - 1) -. d
  end;
  { n; arcs = Array.of_list (List.rev !arcs); supply }

(* ------------------------------------------------------------------ *)

let build_mincost inst =
  let net = Mincost.create inst.n in
  let handles =
    Array.map
      (fun (u, v, lower, cap, cost) ->
        Mincost.add_arc net ~lower ~src:u ~dst:v ~capacity:cap ~cost)
      inst.arcs
  in
  Array.iteri
    (fun v b -> if b <> 0.0 then Mincost.set_supply net v b)
    inst.supply;
  (net, handles)

let solve_lp inst =
  let m = Model.create Model.Minimize in
  let xs =
    Array.map
      (fun (_, _, lower, cap, cost) ->
        Model.add_var m ~lb:lower ~ub:cap ~obj:cost Model.Continuous)
      inst.arcs
  in
  for v = 0 to inst.n - 1 do
    let terms = ref [] in
    Array.iteri
      (fun i (u, w, _, _, _) ->
        if u = v then terms := (1.0, xs.(i)) :: !terms;
        if w = v then terms := (-1.0, xs.(i)) :: !terms)
      inst.arcs;
    if !terms <> [] then Model.add_constr m !terms Model.Eq inst.supply.(v)
    else if inst.supply.(v) <> 0.0 then
      Model.add_constr m [] Model.Eq inst.supply.(v)
  done;
  let sol = Simplex.solve_model m in
  match sol.Simplex.status with
  | Simplex.Optimal -> (Mincost.Optimal, sol.Simplex.objective)
  | Simplex.Infeasible -> (Mincost.Infeasible, nan)
  | st ->
    Alcotest.failf "LP oracle returned %s"
      (match st with
      | Simplex.Unbounded -> "unbounded"
      | Simplex.Iteration_limit -> "iteration_limit"
      | Simplex.Deadline_reached -> "deadline_reached"
      | _ -> "?")

let check_tree ~case ~what = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "case %d (%s): broken basis: %s" case what msg

let status_name = function
  | Mincost.Optimal -> "optimal"
  | Mincost.Infeasible -> "infeasible"

let check_three_way ~case ~what (st_ssp, c_ssp) (st_ns, c_ns) (st_lp, c_lp) =
  if st_ssp <> st_ns || st_ssp <> st_lp then
    Alcotest.failf "case %d (%s): status ssp=%s netsimplex=%s lp=%s" case what
      (status_name st_ssp) (status_name st_ns) (status_name st_lp);
  if st_ssp = Mincost.Optimal then begin
    let scale = 1.0 +. abs_float c_lp in
    if abs_float (c_ssp -. c_lp) > 1e-6 *. scale then
      Alcotest.failf "case %d (%s): objective ssp=%.9f lp=%.9f" case what c_ssp
        c_lp;
    if abs_float (c_ns -. c_lp) > 1e-6 *. scale then
      Alcotest.failf "case %d (%s): objective netsimplex=%.9f lp=%.9f" case
        what c_ns c_lp
  end

(* complementary slackness of potentials [pi] for the user arc flows
   [flow i] *)
let check_certificate ~case ~what inst ~flow ~pi =
  let maxc =
    Array.fold_left
      (fun acc (_, _, _, _, c) -> max acc (abs_float c))
      0.0 inst.arcs
  in
  let ctol = 1e-6 *. (1.0 +. maxc) in
  let ftol = 1e-6 in
  Array.iteri
    (fun i (u, v, lower, cap, cost) ->
      let f = flow i in
      let rc = cost +. pi u -. pi v in
      let at_lo = f <= lower +. ftol in
      let at_cap = f >= cap -. ftol in
      if at_lo && at_cap then () (* fixed arc: any reduced cost is fine *)
      else if at_lo then begin
        if rc < -.ctol then
          Alcotest.failf
            "case %d (%s): arc %d at lower bound with reduced cost %.9f" case
            what i rc
      end
      else if at_cap then begin
        if rc > ctol then
          Alcotest.failf "case %d (%s): arc %d saturated with reduced cost %.9f"
            case what i rc
      end
      else if abs_float rc > ctol then
        Alcotest.failf "case %d (%s): arc %d interior with reduced cost %.9f"
          case what i rc)
    inst.arcs

let check_mincost_certificate ~case ~what inst net handles =
  match Mincost.potentials net with
  | None -> Alcotest.failf "case %d (%s): no potentials after Optimal" case what
  | Some pi ->
    check_certificate ~case ~what inst
      ~flow:(fun i -> Mincost.flow net handles.(i))
      ~pi:(fun v -> pi.(v))

(* in-place perturbation: drift-tick shaped (bounds, costs and
   supplies all move, network shape fixed). Costs stay non-negative
   off DAGs, as in the base instances. *)
let perturb rng ~dag inst =
  let arcs =
    Array.map
      (fun (u, v, lower, cap, cost) ->
        let f = 0.8 +. Prng.float rng 0.5 in
        let cap' = lower +. ((cap -. lower) *. f) in
        let cost' = cost +. (Prng.float rng 0.4 -. 0.2) in
        (u, v, lower, cap', if dag then cost' else Float.max 0.0 cost'))
      inst.arcs
  in
  let g = 0.7 +. Prng.float rng 0.6 in
  let supply = Array.map (fun b -> b *. g) inst.supply in
  { inst with arcs; supply }

let test_differential () =
  let optimal = ref 0 in
  let infeasible = ref 0 in
  let negative_cost = ref 0 in
  let lower_bounded = ref 0 in
  let warm_resolves = ref 0 in
  let unbalanced = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 2_000_003) + case) in
    let inst = random_instance rng (case mod 5) in
    if Array.exists (fun (_, _, _, _, c) -> c < 0.0) inst.arcs then
      incr negative_cost;
    if Array.exists (fun (_, _, l, _, _) -> l > 0.0) inst.arcs then
      incr lower_bounded;
    let net_ssp, _ = build_mincost inst in
    let net_ns, handles = build_mincost inst in
    let st_ssp = Mincost.solve ~algo:Mincost.Ssp net_ssp in
    let st_ns = Mincost.solve ~algo:Mincost.Net_simplex net_ns in
    check_tree ~case ~what:"cold" (Mincost.check_tree net_ns);
    let lp = solve_lp inst in
    check_three_way ~case ~what:"cold"
      (st_ssp, Mincost.total_cost net_ssp)
      (st_ns, Mincost.total_cost net_ns)
      lp;
    (match st_ns with
    | Mincost.Optimal ->
      incr optimal;
      check_mincost_certificate ~case ~what:"cold" inst net_ns handles
    | Mincost.Infeasible -> incr infeasible);
    (* perturb the same network in place; the netsimplex instance
       keeps its basis, so this re-solve exercises the warm path *)
    let inst' = perturb rng ~dag:(case mod 5 = 1 || case mod 5 = 3) inst in
    Array.iteri
      (fun i (_, _, lower, cap, cost) ->
        Mincost.update_arc ~lower ~capacity:cap ~cost net_ns handles.(i);
        Mincost.update_arc ~lower ~capacity:cap ~cost net_ssp handles.(i))
      inst'.arcs;
    Array.iteri
      (fun v b ->
        if b <> 0.0 || inst.supply.(v) <> 0.0 then begin
          Mincost.set_supply net_ns v b;
          Mincost.set_supply net_ssp v b
        end)
      inst'.supply;
    let st_ssp' = Mincost.solve ~algo:Mincost.Ssp net_ssp in
    let st_warm = Mincost.solve ~algo:Mincost.Net_simplex net_ns in
    check_tree ~case ~what:"perturbed" (Mincost.check_tree net_ns);
    let lp' = solve_lp inst' in
    incr warm_resolves;
    check_three_way ~case ~what:"perturbed"
      (st_ssp', Mincost.total_cost net_ssp)
      (st_warm, Mincost.total_cost net_ns)
      lp';
    if st_warm = Mincost.Optimal then
      check_mincost_certificate ~case ~what:"perturbed" inst' net_ns handles;
    (* knock one supply off balance, alternately leaving supply and
       demand over: no flow routes every supply, so both kernels and
       the LP must answer Infeasible *)
    let v = Prng.int rng inst.n in
    let d = (0.5 +. Prng.float rng 2.0) *. if case mod 2 = 0 then 1.0 else -1.0 in
    let supply = Array.copy inst'.supply in
    supply.(v) <- supply.(v) +. d;
    Mincost.set_supply net_ns v supply.(v);
    Mincost.set_supply net_ssp v supply.(v);
    let st_ssp'' = Mincost.solve ~algo:Mincost.Ssp net_ssp in
    let st_ns'' = Mincost.solve ~algo:Mincost.Net_simplex net_ns in
    let lp'' = solve_lp { inst' with supply } in
    check_three_way ~case ~what:"unbalanced"
      (st_ssp'', Mincost.total_cost net_ssp)
      (st_ns'', Mincost.total_cost net_ns)
      lp'';
    if st_ns'' = Mincost.Infeasible then incr unbalanced
  done;
  (* the harness must actually exercise the machinery it tests *)
  Alcotest.(check bool)
    (Printf.sprintf "enough optimal instances (%d)" !optimal)
    true
    (!optimal > cases / 4);
  Alcotest.(check bool)
    (Printf.sprintf "enough infeasible instances (%d)" !infeasible)
    true
    (!infeasible > cases / 20);
  Alcotest.(check bool)
    (Printf.sprintf "enough negative-cost instances (%d)" !negative_cost)
    true
    (!negative_cost > cases / 8);
  Alcotest.(check bool)
    (Printf.sprintf "enough lower-bounded instances (%d)" !lower_bounded)
    true
    (!lower_bounded > cases / 8);
  Alcotest.(check bool)
    (Printf.sprintf "warm re-solves ran (%d)" !warm_resolves)
    true
    (!warm_resolves = cases);
  Alcotest.(check int) "unbalanced re-solves all infeasible" cases !unbalanced

(* Drift of the raw kernel's data away from [base] that pushes the old
   tree's flows off their bounds: supplies rescale by [scale] and
   shift between a random pair, capacities shrink or grow (some to 0,
   some to infinity), lower bounds move and costs drift. Costs stay
   non-negative off DAGs, so no uncapacitated negative cycle appears. *)
let drift_data rng ~dag ~scale base =
  let arcs =
    Array.map
      (fun (u, v, lower, cap, cost) ->
        let cap =
          match Prng.int rng 12 with
          | 0 -> 0.0
          | 1 -> infinity
          | _ -> cap *. (0.5 +. Prng.float rng 1.0)
        in
        let lower =
          if cap > 0.0 && Prng.int rng 4 = 0 then
            Prng.float rng (0.3 *. Float.min cap 4.0)
          else Float.min lower cap
        in
        let cost = cost +. (Prng.float rng 1.0 -. 0.5) in
        (u, v, lower, cap, if dag then cost else Float.max 0.0 cost))
      base.arcs
  in
  let supply = Array.map (fun b -> b *. scale) base.supply in
  if Prng.int rng 2 = 0 then begin
    let u = Prng.int rng base.n and v = Prng.int rng base.n in
    let d = Prng.float rng 2.0 in
    supply.(u) <- supply.(u) +. d;
    supply.(v) <- supply.(v) -. d
  end;
  { base with arcs; supply }

(* The raw kernel warm start. An unchanged replay must reuse the basis
   and pivot zero times. Then a walk of drifts that move supplies,
   capacities (some to 0) and lower bounds, with a starved tick that
   is mostly infeasible followed by feasible ones: every re-solve must
   warm start, agree with a cold solve of the same data on status and
   objective, and leave potentials that certify its flow. *)
let test_netsimplex_warm_basis () =
  let resolves = ref 0 in
  let optimal = ref 0 in
  let infeasible = ref 0 in
  let recovered = ref 0 in
  for case = 0 to 49 do
    let rng = Prng.create ((prop_seed * 4_111_141) + case) in
    let mode = case mod 4 in
    let inst = random_instance rng mode in
    let dag = mode = 1 || mode = 3 in
    let build inst =
      let ns = Netsimplex.create inst.n in
      Array.iter
        (fun (u, v, lower, cap, cost) ->
          ignore
            (Netsimplex.add_arc ns ~lower ~src:u ~dst:v ~capacity:cap ~cost))
        inst.arcs;
      Array.iteri (fun v b -> Netsimplex.set_supply ns v b) inst.supply;
      ns
    in
    let ns = build inst in
    let st = Netsimplex.solve ns in
    check_tree ~case ~what:"first solve" (Netsimplex.check_tree ns);
    Alcotest.(check bool)
      (Printf.sprintf "case %d: first solve is cold" case)
      false
      (Netsimplex.warm_started ns);
    (* unchanged replay: warm, and already optimal *)
    let st2 = Netsimplex.solve ns in
    check_tree ~case ~what:"replay" (Netsimplex.check_tree ns);
    Alcotest.(check bool)
      (Printf.sprintf "case %d: replay status agrees" case)
      true (st = st2);
    Alcotest.(check bool)
      (Printf.sprintf "case %d: replay is warm" case)
      true
      (Netsimplex.warm_started ns);
    Alcotest.(check int)
      (Printf.sprintf "case %d: warm replay needs no pivots" case)
      0 (Netsimplex.pivots ns);
    let prev = ref st in
    List.iteri
      (fun step scale ->
        let what = Printf.sprintf "case %d step %d" case step in
        let data = drift_data rng ~dag ~scale inst in
        Array.iteri
          (fun i (_, _, lower, capacity, cost) ->
            Netsimplex.set_arc ns i ~lower ~capacity ~cost)
          data.arcs;
        Array.iteri (fun v b -> Netsimplex.set_supply ns v b) data.supply;
        let st_warm = Netsimplex.solve ns in
        check_tree ~case ~what:(what ^ " warm") (Netsimplex.check_tree ns);
        incr resolves;
        Alcotest.(check bool) (what ^ ": warm started") true
          (Netsimplex.warm_started ns);
        let cold = build data in
        let st_cold = Netsimplex.solve ~warm:false cold in
        check_tree ~case ~what:(what ^ " cold") (Netsimplex.check_tree cold);
        Alcotest.(check bool) (what ^ ": warm vs cold status") true
          (st_warm = st_cold);
        if st_cold = Netsimplex.Optimal then begin
          incr optimal;
          let scale = 1.0 +. abs_float (Netsimplex.objective cold) in
          Alcotest.(check bool) (what ^ ": warm vs cold objective") true
            (abs_float (Netsimplex.objective ns -. Netsimplex.objective cold)
            <= 1e-6 *. scale);
          check_certificate ~case ~what:"warm drift" data
            ~flow:(Netsimplex.flow ns) ~pi:(Netsimplex.potential ns);
          if !prev = Netsimplex.Infeasible then incr recovered
        end
        else incr infeasible;
        prev := st_warm)
      [ 1.0; 1.3; 30.0; 0.8; 1.1 ]
  done;
  (* the walk must exercise what it tests *)
  Alcotest.(check int) "warm re-solves ran" 250 !resolves;
  Alcotest.(check bool)
    (Printf.sprintf "enough optimal ticks (%d)" !optimal)
    true (!optimal > 75);
  Alcotest.(check bool)
    (Printf.sprintf "enough infeasible ticks (%d)" !infeasible)
    true (!infeasible > 25);
  Alcotest.(check bool)
    (Printf.sprintf "enough infeasible-then-feasible ticks (%d)" !recovered)
    true (!recovered > 15)

(* SSP cannot route across a negative-cost cycle: on a 3-cycle of
   cost -1 arcs its path search would relax forever, so it must stop
   with the typed numerical error instead. *)
let test_ssp_negative_cycle () =
  let net = Mincost.create 3 in
  List.iter
    (fun (src, dst) ->
      ignore (Mincost.add_arc net ~src ~dst ~capacity:5.0 ~cost:(-1.0)))
    [ (0, 1); (1, 2); (2, 0) ];
  Mincost.set_supply net 0 1.0;
  Mincost.set_supply net 2 (-1.0);
  match Mincost.solve ~algo:Mincost.Ssp net with
  | _ -> Alcotest.fail "expected a Numerical error"
  | exception
      Monpos_resilience.Error.Error
        (Monpos_resilience.Error.Numerical { stage; _ }) ->
    Alcotest.(check string) "stage" "Mincost.solve_ssp" stage

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "ssp vs netsimplex vs lp differential (seed %d)"
         prop_seed)
      `Quick test_differential;
    Alcotest.test_case
      (Printf.sprintf "netsimplex warm basis reuse (seed %d)" prop_seed)
      `Quick test_netsimplex_warm_basis;
    Alcotest.test_case "ssp negative cycle raises" `Quick
      test_ssp_negative_cycle;
  ]
