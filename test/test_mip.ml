(* Branch-and-bound tests: exact agreement with brute force on random
   0-1 programs, statuses, and integer (non-binary) variables. *)

module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip

let check_float = Alcotest.(check (float 1e-6))

let status_name = function
  | Mip.Optimal -> "optimal"
  | Mip.Feasible -> "feasible"
  | Mip.Infeasible -> "infeasible"
  | Mip.Unbounded -> "unbounded"
  | Mip.No_solution -> "no_solution"

let check_status expected got =
  Alcotest.(check string) "status" (status_name expected) (status_name got)

let test_knapsack () =
  (* classic: values 60,100,120 weights 10,20,30 cap 50 -> 220 *)
  let m = Model.create Model.Maximize in
  let x1 = Model.add_var m ~obj:60.0 Model.Binary in
  let x2 = Model.add_var m ~obj:100.0 Model.Binary in
  let x3 = Model.add_var m ~obj:120.0 Model.Binary in
  Model.add_constr m [ (10.0, x1); (20.0, x2); (30.0, x3) ] Model.Le 50.0;
  let r = Mip.solve m in
  check_status Mip.Optimal r.status;
  check_float "obj" 220.0 r.objective;
  let sol = Option.get r.solution in
  check_float "x1" 0.0 sol.(0);
  check_float "x2" 1.0 sol.(1);
  check_float "x3" 1.0 sol.(2)

let test_integer_rounding_is_not_enough () =
  (* LP relaxation optimum rounds to an infeasible point; B&B must
     still find the true optimum. max x + y st -2x + 2y >= 1,
     2x + 2y <= 7, ints -> LP opt (1.5, 2) ; MIP opt (1, 2) -> 3 *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1.0 ~ub:10.0 Model.Integer in
  let y = Model.add_var m ~obj:1.0 ~ub:10.0 Model.Integer in
  Model.add_constr m [ (-2.0, x); (2.0, y) ] Model.Ge 1.0;
  Model.add_constr m [ (2.0, x); (2.0, y) ] Model.Le 7.0;
  let r = Mip.solve m in
  check_status Mip.Optimal r.status;
  check_float "obj" 3.0 r.objective

let test_infeasible_integer () =
  let check m =
    let r = Mip.solve m in
    check_status Mip.Infeasible r.status;
    Alcotest.(check bool) "bound = +inf" true (r.Mip.bound = infinity)
  in
  (* 2x = 1 has no integer solution: the root LP is feasible and
     branching closes both children *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 ~ub:10.0 Model.Integer in
  Model.add_constr m [ (2.0, x) ] Model.Eq 1.0;
  check m;
  (* x <= 2 and x >= 5 contradict each other: the root LP is
     infeasible *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~ub:2.0 ~obj:1.0 Model.Integer in
  Model.add_constr m [ (1.0, x) ] Model.Ge 5.0;
  check m

let test_unbounded_integer () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1.0 Model.Integer in
  ignore x;
  let r = Mip.solve m in
  check_status Mip.Unbounded r.status

let test_mixed_integer_continuous () =
  (* min 3b + y st y >= 2.5 - 10 b, y >= 0, b binary.
     b=0 -> y=2.5 cost 2.5 ; b=1 -> y=0 cost 3. Optimum 2.5. *)
  let m = Model.create Model.Minimize in
  let b = Model.add_var m ~obj:3.0 Model.Binary in
  let y = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, y); (10.0, b) ] Model.Ge 2.5;
  let r = Mip.solve m in
  check_status Mip.Optimal r.status;
  check_float "obj" 2.5 r.objective

let test_equality_binary () =
  (* exactly 2 of 4 picked, minimize weighted sum *)
  let m = Model.create Model.Minimize in
  let costs = [| 5.0; 1.0; 3.0; 2.0 |] in
  let xs = Array.map (fun c -> Model.add_var m ~obj:c Model.Binary) costs in
  Model.add_constr m (Array.to_list (Array.map (fun x -> (1.0, x)) xs)) Model.Eq 2.0;
  let r = Mip.solve m in
  check_status Mip.Optimal r.status;
  check_float "obj" 3.0 r.objective

let test_vertex_cover_c5 () =
  (* minimum vertex cover of a 5-cycle is 3 *)
  let m = Model.create Model.Minimize in
  let xs = Array.init 5 (fun _ -> Model.add_var m ~obj:1.0 Model.Binary) in
  for i = 0 to 4 do
    Model.add_constr m [ (1.0, xs.(i)); (1.0, xs.((i + 1) mod 5)) ] Model.Ge 1.0
  done;
  let r = Mip.solve m in
  check_status Mip.Optimal r.status;
  check_float "obj" 3.0 r.objective

let test_solve_or_fail () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 ~lb:2.0 ~ub:9.0 Model.Integer in
  ignore x;
  let sol, proven = Mip.solve_or_fail ~stage:"test" m in
  Alcotest.(check bool) "proven" true proven;
  check_float "x" 2.0 sol.(0);
  (* no integer point: the error names the caller's stage *)
  let bad = Model.create Model.Minimize in
  let y = Model.add_var bad ~obj:1.0 Model.Binary in
  Model.add_constr bad [ (2.0, y) ] Model.Eq 1.0;
  match Mip.solve_or_fail ~stage:"test.stage" bad with
  | _ -> Alcotest.fail "expected Infeasible_model"
  | exception
      Monpos_resilience.Error.Error
        (Monpos_resilience.Error.Infeasible_model { what }) ->
    Alcotest.(check bool) "stage named" true
      (String.starts_with ~prefix:"test.stage" what)

(* the wave scheduler is the only one: asking for another is refused *)
let test_nondeterministic_refused () =
  let m = Model.create Model.Minimize in
  ignore (Model.add_var m ~obj:1.0 ~lb:1.0 Model.Binary);
  let options = { Mip.default_options with Mip.deterministic = false } in
  Alcotest.check_raises "solve"
    (Invalid_argument "Mip.solve: deterministic = false is not supported")
    (fun () -> ignore (Mip.solve ~options m));
  Alcotest.check_raises "resume"
    (Invalid_argument "Mip.resume: deterministic = false is not supported")
    (fun () -> ignore (Mip.resume ~options "unused.ckpt"))

(* Brute force a random 0-1 program and compare. *)
let brute_force_binary model n =
  let best = ref None in
  let x = Array.make n 0.0 in
  let rec go i =
    if i = n then begin
      if Model.value_feasible model x then begin
        let v = Model.objective_value model x in
        let better =
          match (!best, Model.direction model) with
          | None, _ -> true
          | Some b, Model.Minimize -> v < b -. 1e-12
          | Some b, Model.Maximize -> v > b +. 1e-12
        in
        if better then best := Some v
      end
    end
    else begin
      x.(i) <- 0.0;
      go (i + 1);
      x.(i) <- 1.0;
      go (i + 1);
      x.(i) <- 0.0
    end
  in
  go 0;
  !best

(* The solver against a brute-force optimum [best] (None when
   infeasible), at several wave sizes: the wave changes which tree is
   explored, never the answer. A node-capped solve must stop with a
   sound, finite bound whenever it holds an incumbent: bound <= best
   <= objective in the minimization sense. *)
let brute_force_waves = [ 1; 16; 64 ]

let agrees_with_brute_force m best =
  let minimize = Model.direction m = Model.Minimize in
  let le a b = if minimize then a <= b +. 1e-6 else a >= b -. 1e-6 in
  List.for_all
    (fun wave ->
      let options = { Mip.default_options with Mip.wave } in
      let r = Mip.solve ~options m in
      let capped = Mip.solve ~options:{ options with Mip.max_nodes = 3 } m in
      let full_ok =
        match best with
        | None -> r.Mip.status = Mip.Infeasible
        | Some best ->
          r.Mip.status = Mip.Optimal && abs_float (r.Mip.objective -. best) < 1e-6
      in
      let capped_ok =
        match (capped.Mip.solution, best) with
        | Some _, Some best ->
          Float.is_finite capped.Mip.bound
          && le capped.Mip.bound best
          && le best capped.Mip.objective
        | Some _, None -> false
        | None, _ -> capped.Mip.status <> Mip.Optimal
      in
      full_ok && capped_ok)
    brute_force_waves

let prop_matches_brute_force =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"mip matches brute force on random 0-1 programs"
    ~count:80 gen (fun seed ->
      let rng = Monpos_util.Prng.create seed in
      let n = 3 + Monpos_util.Prng.int rng 6 in
      let rows = 1 + Monpos_util.Prng.int rng 5 in
      let dir =
        if Monpos_util.Prng.bool rng then Model.Minimize else Model.Maximize
      in
      let m = Model.create dir in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~obj:(float_of_int (Monpos_util.Prng.range rng (-10) 10))
              Model.Binary)
      in
      for _ = 1 to rows do
        let terms =
          Array.to_list
            (Array.map
               (fun x -> (float_of_int (Monpos_util.Prng.range rng (-5) 5), x))
               xs)
        in
        let sense =
          match Monpos_util.Prng.int rng 3 with
          | 0 -> Model.Le
          | 1 -> Model.Ge
          | _ -> Model.Le
        in
        let rhs = float_of_int (Monpos_util.Prng.range rng (-6) 12) in
        Model.add_constr m terms sense rhs
      done;
      agrees_with_brute_force m (brute_force_binary m n))

(* Trees of the random programs above (n <= 8) are too small to fill a
   wave past a prunable node. These covering programs (10-16 binaries,
   integer costs 1-9, 5-10 rows each demanding half its own weight)
   grow trees of dozens of nodes, where a wave can still hold live
   nodes when the heap top becomes prunable — the case in which the
   search once stopped with those nodes' children unexplored and
   reported Optimal above the true optimum. The brute force walks all
   assignments in Gray-code order, updating row activities and cost
   one flipped variable at a time. *)
let covering_cases = 400

let covering_program rng =
  let module Prng = Monpos_util.Prng in
  let n = 10 + Prng.int rng 7 in
  let m = Model.create Model.Minimize in
  let costs = Array.init n (fun _ -> 1 + Prng.int rng 9) in
  let xs =
    Array.map (fun c -> Model.add_var m ~obj:(float_of_int c) Model.Binary) costs
  in
  let rows =
    List.init
      (5 + Prng.int rng 6)
      (fun _ ->
        let coefs =
          Array.init n (fun _ -> if Prng.bool rng then 1 + Prng.int rng 9 else 0)
        in
        (coefs, max 1 (Array.fold_left ( + ) 0 coefs / 2)))
    |> List.filter (fun (coefs, _) -> Array.exists (fun c -> c > 0) coefs)
    |> Array.of_list
  in
  Array.iter
    (fun (coefs, rhs) ->
      let terms =
        List.filter_map
          (fun v ->
            if coefs.(v) > 0 then Some (float_of_int coefs.(v), xs.(v)) else None)
          (List.init n Fun.id)
      in
      Model.add_constr m terms Model.Ge (float_of_int rhs))
    rows;
  let activity = Array.make (Array.length rows) 0 in
  let x = Array.make n false in
  let cost = ref 0 and best = ref max_int in
  for step = 1 to (1 lsl n) - 1 do
    (* Gray code: step k flips the variable at k's lowest set bit *)
    let rec low v = if step land (1 lsl v) <> 0 then v else low (v + 1) in
    let v = low 0 in
    let sign = if x.(v) then -1 else 1 in
    x.(v) <- not x.(v);
    cost := !cost + (sign * costs.(v));
    Array.iteri
      (fun r (coefs, _) -> activity.(r) <- activity.(r) + (sign * coefs.(v)))
      rows;
    if
      !cost < !best
      && Array.for_all2 (fun a (_, rhs) -> a >= rhs) activity rows
    then best := !cost
  done;
  (m, float_of_int !best)

let test_covering_matches_brute_force () =
  let rng = Monpos_util.Prng.create 7 in
  for case = 0 to covering_cases - 1 do
    let m, best = covering_program rng in
    if not (agrees_with_brute_force m (Some best)) then
      Alcotest.failf "covering case %d: solver disagrees with brute force %g"
        case best
  done

let prop_solution_is_feasible =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"mip incumbents are feasible and integral" ~count:80
    gen (fun seed ->
      let rng = Monpos_util.Prng.create seed in
      let n = 2 + Monpos_util.Prng.int rng 8 in
      let m = Model.create Model.Maximize in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~obj:(1.0 +. Monpos_util.Prng.float rng 9.0)
              Model.Binary)
      in
      let weights = Array.map (fun _ -> 1.0 +. Monpos_util.Prng.float rng 9.0) xs in
      let cap = 1.0 +. Monpos_util.Prng.float rng (float_of_int n *. 4.0) in
      Model.add_constr m
        (List.init n (fun i -> (weights.(i), xs.(i))))
        Model.Le cap;
      let r = Mip.solve m in
      match (r.status, r.solution) with
      | Mip.Optimal, Some x -> Model.value_feasible m x
      | _ -> false)

let prop_branching_rules_agree =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"pseudocost and most-fractional find the same optimum"
    ~count:40 gen (fun seed ->
      let rng = Monpos_util.Prng.create seed in
      let n = 3 + Monpos_util.Prng.int rng 6 in
      let m = Model.create Model.Minimize in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~obj:(1.0 +. Monpos_util.Prng.float rng 9.0)
              Model.Binary)
      in
      (* covering constraints *)
      for _ = 1 to 2 + Monpos_util.Prng.int rng 4 do
        let terms =
          Array.to_list
            (Array.map
               (fun x ->
                 ((if Monpos_util.Prng.bool rng then 1.0 else 0.0), x))
               xs)
        in
        if List.exists (fun (c, _) -> c > 0.0) terms then
          Model.add_constr m terms Model.Ge 1.0
      done;
      let a =
        Mip.solve ~options:{ Mip.default_options with Mip.branching = Mip.Pseudocost } m
      in
      let b =
        Mip.solve
          ~options:{ Mip.default_options with Mip.branching = Mip.Most_fractional }
          m
      in
      match (a.Mip.status, b.Mip.status) with
      | Mip.Infeasible, Mip.Infeasible -> true
      | Mip.Optimal, Mip.Optimal -> abs_float (a.Mip.objective -. b.Mip.objective) < 1e-6
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* warm-start determinism on the paper's seed instances                *)

module Pop = Monpos_topo.Pop
module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Active = Monpos.Active

(* Warm starts must be a pure accelerator: on the seed PPM, PPME and
   beacon instances the solve with warm starts on and off must agree
   on status and objective (device count, coverage, cost), and each
   configuration must reproduce its own selected sets exactly when
   re-run. The two configurations may legitimately return different
   optimal vertices when alternative optima exist (they explore
   different trees), so cross-configuration set identity is asserted
   on the objective-defining quantities and on the independent
   validity of both sets, not on the raw index lists. *)
let test_warm_start_determinism () =
  let opts warm = { Mip.default_options with Mip.warm_start = warm } in
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  (* under MONPOS_CHAOS the unscoped singular-pivot site draws from a
     per-seed stream; rewinding it before each solve makes the fault
     schedule part of the reproducibility contract instead of noise *)
  let module Chaos = Monpos_resilience.Chaos in
  let solve ~k ~options =
    Chaos.set_seed (Chaos.seed ());
    Passive.solve_mip ~k ~options inst
  in
  (* PPM(1) and PPM(0.8) through Linear program 2 *)
  List.iter
    (fun k ->
      let cold = solve ~k ~options:(opts false) in
      let warm = solve ~k ~options:(opts true) in
      let warm' = solve ~k ~options:(opts true) in
      let name tag = Printf.sprintf "ppm k=%.1f %s" k tag in
      Alcotest.(check bool) (name "optimal") cold.Passive.optimal warm.Passive.optimal;
      (* the MIP objective is the device count; coverage beyond k is
         incidental and may differ between alternative optima *)
      Alcotest.(check int) (name "devices") cold.Passive.count warm.Passive.count;
      (* re-running the same configuration reproduces the edge set *)
      Alcotest.(check (list int))
        (name "warm edge set reproducible")
        (List.sort compare warm.Passive.monitors)
        (List.sort compare warm'.Passive.monitors);
      (* both edge sets independently reach the coverage target *)
      List.iter
        (fun (tag, (sol : Passive.solution)) ->
          Alcotest.(check bool)
            (name (tag ^ " meets target"))
            true
            (Instance.coverage_fraction inst sol.Passive.monitors
             >= (k *. (1.0 -. 1e-9)) -. 1e-9))
        [ ("cold", cold); ("warm", warm) ])
    [ 1.0; 0.8 ];
  (* PPME through LP3, solved to proof quality so the comparison is
     not at the mercy of a wall-clock budget *)
  let milp warm =
    {
      Sampling.default_milp_options with
      Mip.warm_start = warm;
      gap_tolerance = 1e-9;
      time_limit = 120.0;
    }
  in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let cold = Sampling.solve_milp ~options:(milp false) pb in
  let warm = Sampling.solve_milp ~options:(milp true) pb in
  let warm' = Sampling.solve_milp ~options:(milp true) pb in
  Alcotest.(check bool) "ppme optimal" cold.Sampling.optimal warm.Sampling.optimal;
  check_float "ppme total cost" cold.Sampling.total_cost warm.Sampling.total_cost;
  check_float "ppme coverage" cold.Sampling.fraction warm.Sampling.fraction;
  Alcotest.(check (list int))
    "ppme edge set reproducible"
    (List.sort compare warm.Sampling.installed)
    (List.sort compare warm'.Sampling.installed);
  (* beacon placement ILP *)
  let pop15 = Pop.make_preset `Pop15 ~seed:1 in
  let routers = Array.of_list (Pop.routers pop15) in
  let rng = Monpos_util.Prng.create 7 in
  Monpos_util.Prng.shuffle rng routers;
  let vb = List.sort compare (Array.to_list (Array.sub routers 0 10)) in
  let probes = Active.compute_probes ~targets:vb pop15.Pop.graph ~candidates:vb in
  let cold = Beacon_oracle.place ~options:(opts false) probes ~candidates:vb in
  let warm = Beacon_oracle.place ~options:(opts true) probes ~candidates:vb in
  let warm' = Beacon_oracle.place ~options:(opts true) probes ~candidates:vb in
  Alcotest.(check int) "beacon count"
    (List.length cold.Active.beacons)
    (List.length warm.Active.beacons);
  Alcotest.(check (list int))
    "beacon set reproducible"
    (List.sort compare warm.Active.beacons)
    (List.sort compare warm'.Active.beacons);
  List.iter
    (fun (tag, (placement : Active.placement)) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s beacons valid" tag)
        true
        (Active.validate probes ~beacons:placement.Active.beacons
           ~candidates:vb))
    [ ("cold", cold); ("warm", warm) ]

(* ------------------------------------------------------------------ *)
(* a pinned Linear program 2 search tree                               *)

(* The node LPs' pivot sequence is a function of the LU's pivot
   choices and of the dual simplex's pricing: a factorization change
   that alters one Markowitz tie, or reduced costs that differ in the
   last bits, can change the simplex path, hence the branching and the
   tree, while every objective stays the same. Pin one small branching LP2 solve
   (Pop10 seed 1, traffic seed 131) by its node count and its primal
   and dual pivot counts, read as deltas of the [mip.nodes] and
   [simplex.iterations{phase}] counters. One job and chaos suppressed:
   the pin is of the fault-free tree. *)
let test_lp2_tree_pinned () =
  let module Metrics = Monpos_obs.Metrics in
  let module Chaos = Monpos_resilience.Chaos in
  let counter ?labels name = Metrics.counter ?labels Metrics.default name in
  let nodes = counter "mip.nodes" in
  let primal = counter ~labels:[ ("phase", "primal") ] "simplex.iterations" in
  let dual = counter ~labels:[ ("phase", "dual") ] "simplex.iterations" in
  let inst = Instance.of_pop (Pop.make_preset `Pop10 ~seed:1) ~seed:131 in
  let options = { Mip.default_options with Mip.jobs = 1 } in
  List.iter
    (fun (k, devices, want_nodes, want_primal, want_dual) ->
      let read () =
        ( Metrics.counter_value nodes,
          Metrics.counter_value primal,
          Metrics.counter_value dual )
      in
      let n0, p0, d0 = read () in
      let sol =
        Chaos.suppress (fun () ->
            Passive.solve_mip ~k ~formulation:`Lp2 ~options inst)
      in
      let n1, p1, d1 = read () in
      let name what = Printf.sprintf "k=%.2f %s" k what in
      Alcotest.(check bool) (name "optimal") true sol.Passive.optimal;
      Alcotest.(check int) (name "devices") devices sol.Passive.count;
      Alcotest.(check int) (name "nodes") want_nodes (n1 - n0);
      Alcotest.(check int) (name "primal pivots") want_primal (p1 - p0);
      Alcotest.(check int) (name "dual pivots") want_dual (d1 - d0))
    [ (0.9, 6, 3, 453, 223); (0.95, 7, 107, 419, 3493) ]

(* The /statusz watermarks end on the answer: after a solve the
   [mip.incumbent], [mip.bound] and [mip.gap] gauges read the result's
   objective, bound and gap, not the last expanded node's. Six disjoint
   5-cycles as a vertex cover (LP bound 15, optimum 18) need branching,
   so a two-node budget stops with a gap. *)
let test_watermarks_match_result () =
  let module Metrics = Monpos_obs.Metrics in
  let module Chaos = Monpos_resilience.Chaos in
  let gauge name = Metrics.gauge_value (Metrics.gauge Metrics.default name) in
  let m = Model.create Model.Minimize in
  for _ = 1 to 6 do
    let xs = Array.init 5 (fun _ -> Model.add_var m ~obj:1.0 Model.Binary) in
    for i = 0 to 4 do
      Model.add_constr m
        [ (1.0, xs.(i)); (1.0, xs.((i + 1) mod 5)) ]
        Model.Ge 1.0
    done
  done;
  List.iter
    (fun (what, max_nodes, want) ->
      let options = { Mip.default_options with Mip.max_nodes } in
      let r = Chaos.suppress (fun () -> Mip.solve ~options m) in
      check_status want r.Mip.status;
      Alcotest.(check (float 0.0)) (what ^ " incumbent") r.Mip.objective
        (gauge "mip.incumbent");
      Alcotest.(check (float 0.0)) (what ^ " bound") r.Mip.bound
        (gauge "mip.bound");
      Alcotest.(check (float 0.0)) (what ^ " gap") r.Mip.gap (gauge "mip.gap"))
    [
      ("optimal", Mip.default_options.Mip.max_nodes, Mip.Optimal);
      ("node limit", 2, Mip.Feasible);
    ]

(* ------------------------------------------------------------------ *)
(* loosened integrality tolerance (pseudocost denominator clamp)       *)

(* With the default tolerance the fractional part recorded at a branch
   always sits in (itol, 1 - itol); loosening the tolerance pushes it
   toward the clamp. The solver must stay finite and sane: incumbents
   are re-checked feasible before acceptance, so any claimed optimum
   is a genuinely feasible point at least as bad as the true one. *)
let test_loose_integrality_tol () =
  (* deterministic case first: the classic knapsack must survive a
     loose tolerance intact (its LP corners round to feasible points) *)
  let loose =
    {
      Mip.default_options with
      Mip.integrality_tol = 0.2;
      branching = Mip.Pseudocost;
    }
  in
  let m = Model.create Model.Maximize in
  let x1 = Model.add_var m ~obj:60.0 Model.Binary in
  let x2 = Model.add_var m ~obj:100.0 Model.Binary in
  let x3 = Model.add_var m ~obj:120.0 Model.Binary in
  Model.add_constr m [ (10.0, x1); (20.0, x2); (30.0, x3) ] Model.Le 50.0;
  let r = Mip.solve ~options:loose m in
  check_status Mip.Optimal r.status;
  check_float "knapsack obj under loose tol" 220.0 r.objective;
  (* random covering programs: every incumbent must be feasible and no
     claimed objective may beat the brute-force optimum *)
  for seed = 1 to 25 do
    let rng = Monpos_util.Prng.create (seed * 2_654_435) in
    let n = 3 + Monpos_util.Prng.int rng 5 in
    let m = Model.create Model.Minimize in
    let xs =
      Array.init n (fun _ ->
          Model.add_var m
            ~obj:(1.0 +. Monpos_util.Prng.float rng 9.0)
            Model.Binary)
    in
    for _ = 1 to 2 + Monpos_util.Prng.int rng 4 do
      let terms =
        Array.to_list
          (Array.map
             (fun x -> ((if Monpos_util.Prng.bool rng then 1.0 else 0.0), x))
             xs)
      in
      if List.exists (fun (c, _) -> c > 0.0) terms then
        Model.add_constr m terms Model.Ge 1.0
    done;
    let r = Mip.solve ~options:loose m in
    (match (r.Mip.status, r.Mip.solution) with
    | (Mip.Optimal | Mip.Feasible), Some x ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: loose-tol incumbent feasible" seed)
        true
        (Model.value_feasible m x);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: objective is finite" seed)
        true
        (Float.is_finite r.Mip.objective);
      (match brute_force_binary m n with
      | Some best ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: no better than brute force" seed)
          true
          (r.Mip.objective >= best -. 1e-6)
      | None -> Alcotest.failf "seed %d: brute force found nothing" seed)
    | Mip.Infeasible, _ ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: infeasible confirmed" seed)
        true
        (brute_force_binary m n = None)
    | _ -> Alcotest.failf "seed %d: unexpected loose-tol outcome" seed)
  done

let suite =
  [
    Alcotest.test_case "knapsack" `Quick test_knapsack;
    Alcotest.test_case "rounding not enough" `Quick test_integer_rounding_is_not_enough;
    Alcotest.test_case "infeasible integer" `Quick test_infeasible_integer;
    Alcotest.test_case "unbounded integer" `Quick test_unbounded_integer;
    Alcotest.test_case "mixed integer continuous" `Quick test_mixed_integer_continuous;
    Alcotest.test_case "equality on binaries" `Quick test_equality_binary;
    Alcotest.test_case "vertex cover C5" `Quick test_vertex_cover_c5;
    Alcotest.test_case "solve_or_fail" `Quick test_solve_or_fail;
    Alcotest.test_case "deterministic = false is refused" `Quick
      test_nondeterministic_refused;
    Alcotest.test_case "warm-start determinism (seed instances)" `Quick
      test_warm_start_determinism;
    Alcotest.test_case "loosened integrality tolerance stays sane" `Quick
      test_loose_integrality_tol;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
    Alcotest.test_case "mip matches brute force on covering programs" `Quick
      test_covering_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_branching_rules_agree;
    QCheck_alcotest.to_alcotest prop_solution_is_feasible;
    Alcotest.test_case "LP2 search tree pinned (Pop10 seed 1)" `Quick
      test_lp2_tree_pinned;
    Alcotest.test_case "watermarks match the result at solve end" `Quick
      test_watermarks_match_result;
  ]
