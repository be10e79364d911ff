(* Flow substrate tests: Dinic max-flow against known values and
   min-cut duality; min-cost flow against brute-force LP solutions and
   structural properties (lower bounds, negative costs, infeasibility). *)

module Maxflow = Monpos_flow.Maxflow
module Mincost = Monpos_flow.Mincost
module Netsimplex = Monpos_flow.Netsimplex
module Metrics = Monpos_obs.Metrics
module Model = Monpos_lp.Model
module Simplex = Monpos_lp.Simplex
module Prng = Monpos_util.Prng

let test_maxflow_textbook () =
  (* CLRS-style: s=0, t=5, max flow 23 *)
  let t = Maxflow.create 6 in
  let add u v c = ignore (Maxflow.add_arc t ~src:u ~dst:v ~capacity:c) in
  add 0 1 16.0;
  add 0 2 13.0;
  add 1 2 10.0;
  add 2 1 4.0;
  add 1 3 12.0;
  add 3 2 9.0;
  add 2 4 14.0;
  add 4 3 7.0;
  add 3 5 20.0;
  add 4 5 4.0;
  let v = Maxflow.solve t ~source:0 ~sink:5 in
  Alcotest.(check (float 1e-9)) "max flow" 23.0 v

let test_maxflow_disconnected () =
  let t = Maxflow.create 4 in
  ignore (Maxflow.add_arc t ~src:0 ~dst:1 ~capacity:5.0);
  ignore (Maxflow.add_arc t ~src:2 ~dst:3 ~capacity:5.0);
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Maxflow.solve t ~source:0 ~sink:3)

let test_maxflow_repeat_solve () =
  let t = Maxflow.create 3 in
  let a = Maxflow.add_arc t ~src:0 ~dst:1 ~capacity:3.0 in
  ignore (Maxflow.add_arc t ~src:1 ~dst:2 ~capacity:2.0);
  let v1 = Maxflow.solve t ~source:0 ~sink:2 in
  let v2 = Maxflow.solve t ~source:0 ~sink:2 in
  Alcotest.(check (float 1e-9)) "repeatable" v1 v2;
  Alcotest.(check (float 1e-9)) "bottleneck" 2.0 v2;
  Alcotest.(check (float 1e-9)) "arc flow" 2.0 (Maxflow.flow t a)

let test_maxflow_min_cut () =
  let t = Maxflow.create 4 in
  ignore (Maxflow.add_arc t ~src:0 ~dst:1 ~capacity:1.0);
  ignore (Maxflow.add_arc t ~src:0 ~dst:2 ~capacity:10.0);
  ignore (Maxflow.add_arc t ~src:1 ~dst:3 ~capacity:10.0);
  ignore (Maxflow.add_arc t ~src:2 ~dst:3 ~capacity:1.0);
  let v = Maxflow.solve t ~source:0 ~sink:3 in
  Alcotest.(check (float 1e-9)) "flow 2" 2.0 v;
  let side = Maxflow.min_cut_side t ~source:0 in
  Alcotest.(check bool) "source in" true side.(0);
  Alcotest.(check bool) "sink out" false side.(3)

let test_mincost_simple () =
  (* two parallel routes, cheap one saturates first *)
  let t = Mincost.create 2 in
  let cheap = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0 in
  let costly = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:10.0 ~cost:3.0 in
  Mincost.set_supply t 0 8.0;
  Mincost.set_supply t 1 (-8.0);
  Alcotest.(check bool) "optimal" true (Mincost.solve t = Mincost.Optimal);
  Alcotest.(check (float 1e-9)) "cheap full" 5.0 (Mincost.flow t cheap);
  Alcotest.(check (float 1e-9)) "rest costly" 3.0 (Mincost.flow t costly);
  Alcotest.(check (float 1e-9)) "cost" 14.0 (Mincost.total_cost t)

let test_mincost_prefers_cheap_path () =
  (* 0 -> 1 -> 3 cost 2, 0 -> 2 -> 3 cost 5; capacity forces split *)
  let t = Mincost.create 4 in
  let a01 = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:4.0 ~cost:1.0 in
  let _a13 = Mincost.add_arc t ~src:1 ~dst:3 ~capacity:4.0 ~cost:1.0 in
  let a02 = Mincost.add_arc t ~src:0 ~dst:2 ~capacity:10.0 ~cost:2.0 in
  let _a23 = Mincost.add_arc t ~src:2 ~dst:3 ~capacity:10.0 ~cost:3.0 in
  Mincost.set_supply t 0 6.0;
  Mincost.set_supply t 3 (-6.0);
  Alcotest.(check bool) "optimal" true (Mincost.solve t = Mincost.Optimal);
  Alcotest.(check (float 1e-9)) "cheap route" 4.0 (Mincost.flow t a01);
  Alcotest.(check (float 1e-9)) "overflow route" 2.0 (Mincost.flow t a02);
  Alcotest.(check (float 1e-9)) "cost" (8.0 +. 10.0) (Mincost.total_cost t)

let test_mincost_lower_bounds () =
  (* force 3 units over the expensive arc via a lower bound *)
  let t = Mincost.create 2 in
  let cheap = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:10.0 ~cost:1.0 in
  let forced =
    Mincost.add_arc ~lower:3.0 t ~src:0 ~dst:1 ~capacity:10.0 ~cost:5.0
  in
  Mincost.set_supply t 0 8.0;
  Mincost.set_supply t 1 (-8.0);
  Alcotest.(check bool) "optimal" true (Mincost.solve t = Mincost.Optimal);
  Alcotest.(check (float 1e-9)) "forced at lower" 3.0 (Mincost.flow t forced);
  Alcotest.(check (float 1e-9)) "cheap rest" 5.0 (Mincost.flow t cheap);
  Alcotest.(check (float 1e-9)) "cost" 20.0 (Mincost.total_cost t)

let test_mincost_infeasible_capacity () =
  let t = Mincost.create 2 in
  ignore (Mincost.add_arc t ~src:0 ~dst:1 ~capacity:2.0 ~cost:1.0);
  Mincost.set_supply t 0 5.0;
  Mincost.set_supply t 1 (-5.0);
  Alcotest.(check bool) "infeasible" true (Mincost.solve t = Mincost.Infeasible)

let test_mincost_infeasible_lower_bound () =
  (* lower bound with no way to route it back *)
  let t = Mincost.create 3 in
  ignore (Mincost.add_arc ~lower:2.0 t ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0);
  (* node 1 must forward 2 units but has no outgoing arc and no demand *)
  Mincost.set_supply t 0 0.0;
  Alcotest.(check bool) "infeasible" true (Mincost.solve t = Mincost.Infeasible)

let test_mincost_negative_cost () =
  (* a negative-cost arc should be used even if a zero-cost route exists *)
  let t = Mincost.create 3 in
  let neg = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:4.0 ~cost:(-2.0) in
  let _mid = Mincost.add_arc t ~src:1 ~dst:2 ~capacity:4.0 ~cost:1.0 in
  let direct = Mincost.add_arc t ~src:0 ~dst:2 ~capacity:4.0 ~cost:0.0 in
  Mincost.set_supply t 0 4.0;
  Mincost.set_supply t 2 (-4.0);
  Alcotest.(check bool) "optimal" true (Mincost.solve t = Mincost.Optimal);
  Alcotest.(check (float 1e-9)) "neg arc used" 4.0 (Mincost.flow t neg);
  Alcotest.(check (float 1e-9)) "direct unused" 0.0 (Mincost.flow t direct);
  Alcotest.(check (float 1e-9)) "cost" (-4.0) (Mincost.total_cost t)

(* Regression: the lower-bound/supply transformation combined with
   negative arc costs. The shift moves supply off the endpoints of the
   bounded arc, and the path search must still price the negative arcs
   correctly (the SPFA/Bellman-Ford initialization path); run under
   both kernels so they pin each other down. *)
let both_algos f =
  List.iter
    (fun (name, algo) -> f name algo)
    [ ("ssp", Mincost.Ssp); ("netsimplex", Mincost.Net_simplex) ]

let test_mincost_lower_bound_negative_cost () =
  both_algos (fun name algo ->
      let t = Mincost.create 3 in
      let neg =
        Mincost.add_arc ~lower:2.0 t ~src:0 ~dst:1 ~capacity:6.0 ~cost:(-3.0)
      in
      let alt = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0 in
      let mid = Mincost.add_arc t ~src:1 ~dst:2 ~capacity:10.0 ~cost:0.5 in
      Mincost.set_supply t 0 4.0;
      Mincost.set_supply t 2 (-4.0);
      Alcotest.(check bool)
        (name ^ ": optimal") true
        (Mincost.solve ~algo t = Mincost.Optimal);
      (* all 4 units take the negative arc: 4*(-3) + 4*0.5 = -10 *)
      Alcotest.(check (float 1e-9)) (name ^ ": neg arc") 4.0 (Mincost.flow t neg);
      Alcotest.(check (float 1e-9)) (name ^ ": alt unused") 0.0 (Mincost.flow t alt);
      Alcotest.(check (float 1e-9)) (name ^ ": mid") 4.0 (Mincost.flow t mid);
      Alcotest.(check (float 1e-9)) (name ^ ": cost") (-10.0) (Mincost.total_cost t))

let test_mincost_lower_bound_negative_cost_diamond () =
  (* diamond DAG: the bounded branch is also the one ending in a
     negative arc, so the shifted supplies ride on negative costs *)
  both_algos (fun name algo ->
      let t = Mincost.create 4 in
      let a = Mincost.add_arc t ~src:0 ~dst:1 ~capacity:10.0 ~cost:2.0 in
      let _b = Mincost.add_arc t ~src:1 ~dst:3 ~capacity:10.0 ~cost:0.0 in
      let c =
        Mincost.add_arc ~lower:3.0 t ~src:0 ~dst:2 ~capacity:10.0 ~cost:1.0
      in
      let d = Mincost.add_arc t ~src:2 ~dst:3 ~capacity:10.0 ~cost:(-2.0) in
      Mincost.set_supply t 0 5.0;
      Mincost.set_supply t 3 (-5.0);
      Alcotest.(check bool)
        (name ^ ": optimal") true
        (Mincost.solve ~algo t = Mincost.Optimal);
      (* branch via 2 costs -1/unit vs 2/unit via 1: everything takes it *)
      Alcotest.(check (float 1e-9)) (name ^ ": top unused") 0.0 (Mincost.flow t a);
      Alcotest.(check (float 1e-9)) (name ^ ": bounded branch") 5.0 (Mincost.flow t c);
      Alcotest.(check (float 1e-9)) (name ^ ": neg arc") 5.0 (Mincost.flow t d);
      Alcotest.(check (float 1e-9)) (name ^ ": cost") (-5.0) (Mincost.total_cost t))

let test_mincost_lower_bound_overcommits_infeasible () =
  (* the lower bound alone exceeds what conservation allows: any flow
     assignment needs a negative value on the parallel arc *)
  both_algos (fun name algo ->
      let t = Mincost.create 2 in
      ignore
        (Mincost.add_arc ~lower:3.0 t ~src:0 ~dst:1 ~capacity:6.0 ~cost:(-1.0));
      ignore (Mincost.add_arc t ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0);
      Mincost.set_supply t 0 2.0;
      Mincost.set_supply t 1 (-2.0);
      Alcotest.(check bool)
        (name ^ ": infeasible") true
        (Mincost.solve ~algo t = Mincost.Infeasible))

let test_mincost_potentials_exposure () =
  (* potentials are a Net_simplex-only certificate *)
  let t = Mincost.create 2 in
  ignore (Mincost.add_arc t ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0);
  Mincost.set_supply t 0 2.0;
  Mincost.set_supply t 1 (-2.0);
  Alcotest.(check bool)
    "ssp optimal" true
    (Mincost.solve ~algo:Mincost.Ssp t = Mincost.Optimal);
  Alcotest.(check bool) "no potentials after ssp" true (Mincost.potentials t = None);
  Alcotest.(check bool)
    "netsimplex optimal" true
    (Mincost.solve ~algo:Mincost.Net_simplex t = Mincost.Optimal);
  match Mincost.potentials t with
  | None -> Alcotest.fail "potentials missing after netsimplex"
  | Some pi ->
    Alcotest.(check int) "one per node" 2 (Array.length pi);
    (* the arc carries interior flow, so its reduced cost vanishes *)
    Alcotest.(check (float 1e-9)) "tight arc prices out" 0.0 (1.0 +. pi.(0) -. pi.(1))

(* The network simplex's work counters on two hand-traced 4-node
   solves. Every pricing call scans all [m + n] arcs (one block), so
   [flow.priced_arcs] is (pivots + 1) (m + n). [flow.tree_nodes]
   counts the forward walk to the moved subtree's end plus the relabel
   pass over it, per pivot. The basis must pass [check_tree] after
   each solve. *)
let test_netsimplex_work_counters () =
  let work f =
    let count name = Metrics.sum_counter (Metrics.snapshot Metrics.default) name in
    let p0 = count "flow.priced_arcs" and t0 = count "flow.tree_nodes" in
    f ();
    (count "flow.priced_arcs" - p0, count "flow.tree_nodes" - t0)
  in
  let check_basis what ns =
    match Netsimplex.check_tree ns with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "%s: broken basis: %s" what msg
  in
  (* one unit from 0 to 1: node 1 leaves the root for node 0 in one
     pivot (walk 1 node, relabel 1) *)
  let ns = Netsimplex.create 4 in
  ignore (Netsimplex.add_arc ns ~src:0 ~dst:1 ~capacity:5.0 ~cost:1.0);
  Netsimplex.set_supply ns 0 1.0;
  Netsimplex.set_supply ns 1 (-1.0);
  let priced, tree = work (fun () -> ignore (Netsimplex.solve ns)) in
  check_basis "one arc" ns;
  Alcotest.(check int) "one arc: pivots" 1 (Netsimplex.pivots ns);
  Alcotest.(check int) "one arc: priced arcs" 10 priced;
  Alcotest.(check int) "one arc: tree nodes" 2 tree;
  (* two units along the path 0 -> 1 -> 2 -> 3 (cost 3 a unit) beside
     a dearer shortcut 0 -> 3. Two degenerate pivots hang 2 under 3
     and 1 under 2 (2 nodes each); the third reverses the stem
     1, 2, 3 under 0 (walk 1 node, relabel 3). *)
  let ns = Netsimplex.create 4 in
  List.iter
    (fun (src, dst, cost) ->
      ignore (Netsimplex.add_arc ns ~src ~dst ~capacity:5.0 ~cost))
    [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (0, 3, 5.0) ];
  Netsimplex.set_supply ns 0 2.0;
  Netsimplex.set_supply ns 3 (-2.0);
  let priced, tree = work (fun () -> ignore (Netsimplex.solve ns)) in
  check_basis "path" ns;
  Alcotest.(check (float 1e-12)) "path: objective" 6.0 (Netsimplex.objective ns);
  Alcotest.(check int) "path: pivots" 3 (Netsimplex.pivots ns);
  Alcotest.(check int) "path: priced arcs" 32 priced;
  Alcotest.(check int) "path: tree nodes" 8 tree

(* Cross-check: min-cost flow equals the LP optimum computed by our
   simplex on the node-arc incidence formulation. *)
let prop_mincost_matches_lp =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"min-cost flow matches LP optimum" ~count:60 gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 4 in
      let arcs = ref [] in
      (* random arcs; ensure a 0 -> n-1 backbone exists *)
      for v = 0 to n - 2 do
        arcs := (v, v + 1, 2.0 +. Prng.float rng 6.0, Prng.float rng 4.0) :: !arcs
      done;
      for _ = 1 to n do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v then
          arcs := (u, v, Prng.float rng 8.0, Prng.float rng 4.0) :: !arcs
      done;
      let arcs = List.rev !arcs in
      let demand = 1.0 +. Prng.float rng 2.0 in
      (* mincost solver *)
      let net = Mincost.create n in
      let handles =
        List.map
          (fun (u, v, cap, cost) ->
            Mincost.add_arc net ~src:u ~dst:v ~capacity:cap ~cost)
          arcs
      in
      ignore handles;
      Mincost.set_supply net 0 demand;
      Mincost.set_supply net (n - 1) (-.demand);
      let st = Mincost.solve net in
      (* LP formulation *)
      let m = Model.create Model.Minimize in
      let xs =
        List.map
          (fun (_, _, cap, cost) -> Model.add_var m ~ub:cap ~obj:cost Model.Continuous)
          arcs
      in
      let pairs = List.combine arcs xs in
      for v = 0 to n - 1 do
        let terms =
          List.concat_map
            (fun ((u, w, _, _), x) ->
              (if u = v then [ (1.0, x) ] else [])
              @ if w = v then [ (-1.0, x) ] else [])
            pairs
        in
        let rhs = if v = 0 then demand else if v = n - 1 then -.demand else 0.0 in
        if terms <> [] then Model.add_constr m terms Model.Eq rhs
        else if rhs <> 0.0 then Model.add_constr m [] Model.Eq rhs
      done;
      let lp = Simplex.solve_model m in
      match (st, lp.Simplex.status) with
      | Mincost.Infeasible, Simplex.Infeasible -> true
      | Mincost.Optimal, Simplex.Optimal ->
        abs_float (Mincost.total_cost net -. lp.Simplex.objective) < 1e-6
      | _ -> false)

(* Flow conservation holds on every solved instance. *)
let prop_flow_conservation =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"min-cost flow conserves flow" ~count:60 gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 5 in
      let net = Mincost.create n in
      let arcs = ref [] in
      for v = 0 to n - 2 do
        let cap = 3.0 +. Prng.float rng 5.0 in
        let h = Mincost.add_arc net ~src:v ~dst:(v + 1) ~capacity:cap ~cost:(Prng.float rng 3.0) in
        arcs := (v, v + 1, h) :: !arcs
      done;
      for _ = 1 to n do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v then begin
          let h =
            Mincost.add_arc net ~src:u ~dst:v ~capacity:(Prng.float rng 5.0)
              ~cost:(Prng.float rng 3.0)
          in
          arcs := (u, v, h) :: !arcs
        end
      done;
      let demand = 1.0 +. Prng.float rng 2.0 in
      Mincost.set_supply net 0 demand;
      Mincost.set_supply net (n - 1) (-.demand);
      match Mincost.solve net with
      | Mincost.Infeasible -> true
      | Mincost.Optimal ->
        let balance = Array.make n 0.0 in
        List.iter
          (fun (u, v, h) ->
            let f = Mincost.flow net h in
            balance.(u) <- balance.(u) -. f;
            balance.(v) <- balance.(v) +. f)
          !arcs;
        let ok = ref true in
        for v = 0 to n - 1 do
          let expected =
            if v = 0 then -.demand else if v = n - 1 then demand else 0.0
          in
          if abs_float (balance.(v) -. expected) > 1e-6 then ok := false
        done;
        !ok)

let suite =
  [
    Alcotest.test_case "maxflow textbook" `Quick test_maxflow_textbook;
    Alcotest.test_case "maxflow disconnected" `Quick test_maxflow_disconnected;
    Alcotest.test_case "maxflow repeat solve" `Quick test_maxflow_repeat_solve;
    Alcotest.test_case "maxflow min cut" `Quick test_maxflow_min_cut;
    Alcotest.test_case "mincost simple" `Quick test_mincost_simple;
    Alcotest.test_case "mincost cheap path" `Quick test_mincost_prefers_cheap_path;
    Alcotest.test_case "mincost lower bounds" `Quick test_mincost_lower_bounds;
    Alcotest.test_case "mincost infeasible capacity" `Quick test_mincost_infeasible_capacity;
    Alcotest.test_case "mincost infeasible lower bound" `Quick test_mincost_infeasible_lower_bound;
    Alcotest.test_case "mincost negative cost" `Quick test_mincost_negative_cost;
    Alcotest.test_case "mincost lower bound + negative cost" `Quick
      test_mincost_lower_bound_negative_cost;
    Alcotest.test_case "mincost lower bound + negative cost diamond" `Quick
      test_mincost_lower_bound_negative_cost_diamond;
    Alcotest.test_case "mincost overcommitted lower bound infeasible" `Quick
      test_mincost_lower_bound_overcommits_infeasible;
    Alcotest.test_case "mincost potentials exposure" `Quick
      test_mincost_potentials_exposure;
    QCheck_alcotest.to_alcotest prop_mincost_matches_lp;
    QCheck_alcotest.to_alcotest prop_flow_conservation;
    Alcotest.test_case "netsimplex work counters" `Quick
      test_netsimplex_work_counters;
  ]
