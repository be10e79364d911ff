(* Simplex solver tests: textbook LPs with known optima, boundary
   statuses, duals, and randomized feasibility/optimality properties. *)

module Model = Monpos_lp.Model
module Simplex = Monpos_lp.Simplex

let check_float = Alcotest.(check (float 1e-6))

let status_name = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration_limit"
  | Simplex.Deadline_reached -> "deadline_reached"

let check_status expected got =
  Alcotest.(check string) "status" (status_name expected) (status_name got)

(* max 3x + 5y st x <= 4; 2y <= 12; 3x + 2y <= 18 -> 36 at (2, 6) *)
let test_textbook_max () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:3.0 Model.Continuous in
  let y = Model.add_var m ~obj:5.0 Model.Continuous in
  Model.add_constr m [ (1.0, x) ] Model.Le 4.0;
  Model.add_constr m [ (2.0, y) ] Model.Le 12.0;
  Model.add_constr m [ (3.0, x); (2.0, y) ] Model.Le 18.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 36.0 sol.objective;
  check_float "x" 2.0 sol.primal.(Model.var_index x);
  check_float "y" 6.0 sol.primal.(Model.var_index y)

(* min 2x + 3y st x + y >= 10 -> 20 at (10, 0) *)
let test_textbook_min () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:2.0 Model.Continuous in
  let y = Model.add_var m ~obj:3.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge 10.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 20.0 sol.objective;
  check_float "x" 10.0 sol.primal.(Model.var_index x)

let test_equality () =
  (* min x + y st x + 2y = 6; x - y = 0 -> x = y = 2, obj 4 *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  let y = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (2.0, y) ] Model.Eq 6.0;
  Model.add_constr m [ (1.0, x); (-1.0, y) ] Model.Eq 0.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 4.0 sol.objective;
  check_float "x" 2.0 sol.primal.(0);
  check_float "y" 2.0 sol.primal.(1)

let test_infeasible () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x) ] Model.Ge 5.0;
  Model.add_constr m [ (1.0, x) ] Model.Le 3.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Infeasible sol.status

let test_unbounded () =
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (-1.0, x) ] Model.Le 0.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Unbounded sol.status

let test_bounded_vars () =
  (* max x + y, x in [0,2], y in [0,3], x + y <= 4 -> 4 *)
  let m = Model.create Model.Maximize in
  let x = Model.add_var m ~ub:2.0 ~obj:1.0 Model.Continuous in
  let y = Model.add_var m ~ub:3.0 ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Le 4.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 4.0 sol.objective

let test_negative_lower_bounds () =
  (* min x with x in [-5, 5] and x + y >= -2, y in [0, 1] -> x = -3 *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:(-5.0) ~ub:5.0 ~obj:1.0 Model.Continuous in
  let y = Model.add_var m ~ub:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge (-2.0);
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" (-3.0) sol.objective

let test_free_variable () =
  (* min y st y >= x - 4, y >= -x + 2, x free -> y = -1 at x = 3 *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:neg_infinity ~ub:infinity Model.Continuous in
  let y = Model.add_var m ~lb:neg_infinity ~ub:infinity ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, y); (-1.0, x) ] Model.Ge (-4.0);
  Model.add_constr m [ (1.0, y); (1.0, x) ] Model.Ge 2.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" (-1.0) sol.objective

let test_fixed_variable () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  let y = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.fix m x 3.0;
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge 5.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 5.0 sol.objective;
  check_float "x" 3.0 sol.primal.(0);
  check_float "y" 2.0 sol.primal.(1)

let test_degenerate () =
  (* Klee-Minty-flavoured degenerate corner; checks anti-cycling. *)
  let m = Model.create Model.Maximize in
  let x1 = Model.add_var m ~obj:100.0 Model.Continuous in
  let x2 = Model.add_var m ~obj:10.0 Model.Continuous in
  let x3 = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x1) ] Model.Le 1.0;
  Model.add_constr m [ (20.0, x1); (1.0, x2) ] Model.Le 100.0;
  Model.add_constr m [ (200.0, x1); (20.0, x2); (1.0, x3) ] Model.Le 10000.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 10000.0 sol.objective

let test_duals_weak_duality () =
  (* min c.x st Ax >= b, x >= 0: any dual y >= 0 gives y.b <= c.x. At
     the optimum, strong duality holds. *)
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:12.0 Model.Continuous in
  let y = Model.add_var m ~obj:16.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (2.0, y) ] Model.Ge 40.0;
  Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge 30.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  let dual_obj = (sol.duals.(0) *. 40.0) +. (sol.duals.(1) *. 30.0) in
  check_float "strong duality" sol.objective dual_obj;
  Alcotest.(check bool) "dual signs" true (sol.duals.(0) >= -1e-9 && sol.duals.(1) >= -1e-9)

let test_zero_constraints () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~lb:2.0 ~ub:7.0 ~obj:3.0 Model.Continuous in
  ignore x;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 6.0 sol.objective

let test_redundant_rows () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  for _ = 1 to 5 do
    Model.add_constr m [ (1.0, x) ] Model.Ge 2.0
  done;
  Model.add_constr m [ (2.0, x) ] Model.Ge 4.0;
  let sol = Simplex.solve_model m in
  check_status Simplex.Optimal sol.status;
  check_float "obj" 2.0 sol.objective

(* Randomized: continuous knapsack-style LPs where a greedy solution is
   provably optimal; the simplex must match it. *)
let prop_fractional_knapsack =
  let gen =
    QCheck2.Gen.(
      let* n = int_range 1 12 in
      let* values = list_repeat n (int_range 1 50) in
      let* weights = list_repeat n (int_range 1 20) in
      let* cap = int_range 5 80 in
      return (values, weights, cap))
  in
  QCheck2.Test.make ~name:"simplex matches greedy on fractional knapsack"
    ~count:200 gen (fun (values, weights, cap) ->
      let n = List.length values in
      let values = Array.of_list (List.map float_of_int values) in
      let weights = Array.of_list (List.map float_of_int weights) in
      let cap = float_of_int cap in
      (* greedy by density *)
      let order = Array.init n (fun i -> i) in
      Array.sort
        (fun a b ->
          compare (values.(b) /. weights.(b)) (values.(a) /. weights.(a)))
        order;
      let remaining = ref cap and greedy = ref 0.0 in
      Array.iter
        (fun i ->
          let take = min 1.0 (!remaining /. weights.(i)) in
          if take > 0.0 then begin
            greedy := !greedy +. (take *. values.(i));
            remaining := !remaining -. (take *. weights.(i))
          end)
        order;
      let m = Model.create Model.Maximize in
      let xs =
        Array.init n (fun i ->
            Model.add_var m ~ub:1.0 ~obj:values.(i) Model.Continuous)
      in
      Model.add_constr m
        (List.init n (fun i -> (weights.(i), xs.(i))))
        Model.Le cap;
      let sol = Simplex.solve_model m in
      sol.status = Simplex.Optimal && abs_float (sol.objective -. !greedy) < 1e-6)

(* Randomized: optimal solutions are feasible and no sampled feasible
   point beats them. *)
let prop_optimal_dominates_samples =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"simplex optimum dominates random feasible points"
    ~count:120 gen (fun seed ->
      let rng = Monpos_util.Prng.create seed in
      let n = 2 + Monpos_util.Prng.int rng 4 in
      let rows = 1 + Monpos_util.Prng.int rng 5 in
      let m = Model.create Model.Maximize in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~ub:(1.0 +. Monpos_util.Prng.float rng 9.0)
              ~obj:(Monpos_util.Prng.float rng 10.0)
              Model.Continuous)
      in
      let coef = Array.make_matrix rows n 0.0 in
      for r = 0 to rows - 1 do
        let terms = ref [] in
        for i = 0 to n - 1 do
          let c = Monpos_util.Prng.float rng 5.0 in
          coef.(r).(i) <- c;
          terms := (c, xs.(i)) :: !terms
        done;
        Model.add_constr m !terms Model.Le (5.0 +. Monpos_util.Prng.float rng 20.0)
      done;
      let sol = Simplex.solve_model m in
      if sol.status <> Simplex.Optimal then false
      else begin
        if not (Model.value_feasible m sol.primal) then false
        else begin
          (* rejection-sample feasible points; none may beat optimum *)
          let ok = ref true in
          for _ = 1 to 200 do
            let pt =
              Array.init n (fun i ->
                  Monpos_util.Prng.float rng
                    (max 1e-9 (Model.var_ub m (Model.var_of_index m i))))
            in
            let feasible = Model.value_feasible m pt in
            if feasible then begin
              let v = Model.objective_value m pt in
              if v > sol.objective +. 1e-6 then ok := false
            end
          done;
          !ok
        end
      end)

let test_model_rejects_bad_data () =
  let m = Model.create Model.Minimize in
  Alcotest.check_raises "nan objective"
    (Invalid_argument "Model: NaN objective coefficient") (fun () ->
      ignore (Model.add_var m ~obj:Float.nan Model.Continuous));
  Alcotest.check_raises "infinite objective"
    (Invalid_argument "Model: infinite objective coefficient") (fun () ->
      ignore (Model.add_var m ~obj:infinity Model.Continuous));
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  Alcotest.check_raises "nan rhs" (Invalid_argument "Model: NaN right-hand side")
    (fun () -> Model.add_constr m [ (1.0, x) ] Model.Le Float.nan);
  Alcotest.check_raises "nan coefficient"
    (Invalid_argument "Model: NaN constraint coefficient") (fun () ->
      Model.add_constr m [ (Float.nan, x) ] Model.Le 1.0);
  Alcotest.check_raises "infinite coefficient"
    (Invalid_argument "Model: infinite constraint coefficient") (fun () ->
      Model.add_constr m [ (infinity, x) ] Model.Le 1.0);
  (* infinite bounds remain legal *)
  ignore (Model.add_var m ~lb:neg_infinity ~ub:infinity Model.Continuous)

let test_duplicate_terms_merged () =
  let m = Model.create Model.Minimize in
  let x = Model.add_var m ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1.0, x); (2.0, x); (-3.0, x); (1.0, x) ] Model.Ge 2.0;
  Alcotest.(check (list (pair (float 1e-12) int))) "merged to 1x"
    [ (1.0, Model.var_index x) ]
    (Model.constr_terms m 0)

(* Internal consistency of the simplex certificates: with reduced
   costs d = c - y A (minimization form), the identity
   c.x = y.b - y.s + d.x holds (s = row slacks), and complementary
   slackness links nonzero multipliers to tight rows and nonzero
   reduced costs to variables at their bounds. *)
let prop_duality_certificates =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"simplex certificates: duality identity + slackness"
    ~count:80 gen (fun seed ->
      let rng = Monpos_util.Prng.create seed in
      let n = 2 + Monpos_util.Prng.int rng 4 in
      let rows = 1 + Monpos_util.Prng.int rng 4 in
      let m = Model.create Model.Minimize in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~ub:(1.0 +. Monpos_util.Prng.float rng 9.0)
              ~obj:(Monpos_util.Prng.float rng 10.0 -. 3.0)
              Model.Continuous)
      in
      let coefs = Array.make_matrix rows n 0.0 in
      let rhs = Array.make rows 0.0 in
      let senses = Array.make rows Model.Le in
      for r = 0 to rows - 1 do
        let terms = ref [] in
        for i = 0 to n - 1 do
          let c = Monpos_util.Prng.float rng 4.0 in
          coefs.(r).(i) <- c;
          terms := (c, xs.(i)) :: !terms
        done;
        rhs.(r) <- 2.0 +. Monpos_util.Prng.float rng 15.0;
        senses.(r) <- (if Monpos_util.Prng.bool rng then Model.Le else Model.Ge);
        (* keep Ge rows satisfiable: x=ub gives max lhs *)
        if senses.(r) = Model.Ge then begin
          let max_lhs = ref 0.0 in
          for i = 0 to n - 1 do
            max_lhs := !max_lhs +. (coefs.(r).(i) *. Model.var_ub m xs.(i))
          done;
          rhs.(r) <- min rhs.(r) (0.8 *. !max_lhs)
        end;
        Model.add_constr m !terms senses.(r) rhs.(r)
      done;
      let sol = Simplex.solve_model m in
      match sol.Simplex.status with
      | Simplex.Infeasible -> true (* nothing to certify *)
      | Simplex.Unbounded | Simplex.Iteration_limit
      | Simplex.Deadline_reached ->
        false
      | Simplex.Optimal ->
        let x = sol.Simplex.primal in
        let y = sol.Simplex.duals in
        let d = sol.Simplex.reduced_costs in
        (* row activities and slacks *)
        let ok = ref true in
        let ys_dot_slack = ref 0.0 in
        for r = 0 to rows - 1 do
          let lhs = ref 0.0 in
          for i = 0 to n - 1 do
            lhs := !lhs +. (coefs.(r).(i) *. x.(i))
          done;
          let slack = rhs.(r) -. !lhs in
          ys_dot_slack := !ys_dot_slack +. (y.(r) *. slack);
          (* complementary slackness: nonzero dual => tight row *)
          if abs_float y.(r) > 1e-6 && abs_float slack > 1e-5 then ok := false
        done;
        (* nonzero reduced cost => variable at a bound *)
        for i = 0 to n - 1 do
          if abs_float d.(i) > 1e-6 then begin
            let lb = Model.var_lb m xs.(i) and ub = Model.var_ub m xs.(i) in
            if abs_float (x.(i) -. lb) > 1e-5 && abs_float (x.(i) -. ub) > 1e-5
            then ok := false
          end
        done;
        (* duality identity: c.x = y.b - y.s + d.x *)
        let cx = Model.objective_value m x in
        let yb = ref 0.0 in
        for r = 0 to rows - 1 do
          yb := !yb +. (y.(r) *. rhs.(r))
        done;
        let dx = ref 0.0 in
        for i = 0 to n - 1 do
          dx := !dx +. (d.(i) *. x.(i))
        done;
        !ok
        && abs_float (cx -. (!yb -. !ys_dot_slack +. !dx))
           < 1e-5 *. (1.0 +. abs_float cx))

(* Full certificate check in the model's own direction, for Minimize
   and Maximize alike. With y the reported row duals, d the reported
   reduced costs (minimization form, per the interface) and sgn = +1
   for Minimize / -1 for Maximize:

   - recomputing d from scratch as c_min - y_min A (with c_min, y_min
     the minimization-form cost vector and multipliers) must
     reproduce [reduced_costs];
   - complementary slackness: |y_r| > 0 forces row r tight, |d_j| > 0
     forces x_j onto a bound;
   - the dual objective y_min.b + sum_j d_j * (bound x_j sits on)
     equals the minimization-form optimum — i.e. duals and reduced
     costs certify the objective, weak duality holding with equality
     at the optimum. *)
let prop_certificates_both_directions =
  let gen =
    QCheck2.Gen.(pair bool (int_range 0 1_000_000))
  in
  QCheck2.Test.make
    ~name:"duality certificates hold for Minimize and Maximize" ~count:120 gen
    (fun (maximize, seed) ->
      let rng = Monpos_util.Prng.create seed in
      let n = 2 + Monpos_util.Prng.int rng 4 in
      let rows = 1 + Monpos_util.Prng.int rng 4 in
      let m =
        Model.create (if maximize then Model.Maximize else Model.Minimize)
      in
      let xs =
        Array.init n (fun _ ->
            Model.add_var m
              ~ub:(1.0 +. Monpos_util.Prng.float rng 9.0)
              ~obj:(Monpos_util.Prng.float rng 10.0 -. 4.0)
              Model.Continuous)
      in
      let coefs = Array.make_matrix rows n 0.0 in
      let rhs = Array.make rows 0.0 in
      let senses = Array.make rows Model.Le in
      for r = 0 to rows - 1 do
        let terms = ref [] in
        for i = 0 to n - 1 do
          let c = Monpos_util.Prng.float rng 4.0 in
          coefs.(r).(i) <- c;
          terms := (c, xs.(i)) :: !terms
        done;
        rhs.(r) <- 2.0 +. Monpos_util.Prng.float rng 15.0;
        senses.(r) <- (if Monpos_util.Prng.bool rng then Model.Le else Model.Ge);
        if senses.(r) = Model.Ge then begin
          (* keep Ge rows satisfiable: x = ub maximizes the lhs *)
          let max_lhs = ref 0.0 in
          for i = 0 to n - 1 do
            max_lhs := !max_lhs +. (coefs.(r).(i) *. Model.var_ub m xs.(i))
          done;
          rhs.(r) <- min rhs.(r) (0.8 *. !max_lhs)
        end;
        Model.add_constr m !terms senses.(r) rhs.(r)
      done;
      let sol = Simplex.solve_model m in
      match sol.Simplex.status with
      | Simplex.Infeasible -> true (* nothing to certify *)
      | Simplex.Unbounded | Simplex.Iteration_limit
      | Simplex.Deadline_reached ->
        false (* impossible: boxed variables, satisfiable Ge rows *)
      | Simplex.Optimal ->
        let sgn = if maximize then -1.0 else 1.0 in
        let x = sol.Simplex.primal in
        let d = sol.Simplex.reduced_costs in
        (* minimization-form multipliers and costs *)
        let y_min = Array.map (fun y -> sgn *. y) sol.Simplex.duals in
        let ok = ref true in
        (* 1. reduced costs recompute from the multipliers *)
        for j = 0 to n - 1 do
          let c_min = sgn *. Model.var_obj m xs.(j) in
          let d_hat = ref c_min in
          for r = 0 to rows - 1 do
            d_hat := !d_hat -. (y_min.(r) *. coefs.(r).(j))
          done;
          if abs_float (!d_hat -. d.(j)) > 1e-5 *. (1.0 +. abs_float !d_hat)
          then ok := false
        done;
        (* 2. complementary slackness + multiplier signs (min form:
           y <= 0 on Le rows, y >= 0 on Ge rows) *)
        for r = 0 to rows - 1 do
          let lhs = ref 0.0 in
          for j = 0 to n - 1 do
            lhs := !lhs +. (coefs.(r).(j) *. x.(j))
          done;
          let slack = rhs.(r) -. !lhs in
          if abs_float y_min.(r) > 1e-6 && abs_float slack > 1e-5 then
            ok := false;
          (match senses.(r) with
          | Model.Le -> if y_min.(r) > 1e-6 then ok := false
          | Model.Ge -> if y_min.(r) < -1e-6 then ok := false
          | Model.Eq -> ())
        done;
        (* 3. the certificate prices the optimum: dual objective =
           y_min.b + d . (active bounds) = minimization optimum *)
        let obj_min = sgn *. sol.Simplex.objective in
        let dual_obj = ref 0.0 in
        for r = 0 to rows - 1 do
          dual_obj := !dual_obj +. (y_min.(r) *. rhs.(r))
        done;
        for j = 0 to n - 1 do
          if d.(j) > 1e-6 then
            dual_obj := !dual_obj +. (d.(j) *. Model.var_lb m xs.(j))
          else if d.(j) < -1e-6 then
            dual_obj := !dual_obj +. (d.(j) *. Model.var_ub m xs.(j))
        done;
        !ok && abs_float (!dual_obj -. obj_min) < 1e-5 *. (1.0 +. abs_float obj_min))

(* The dual phase's work counters on hand-traced warm solves. Each of
   [k] blocks is min x + 2y st x + y >= 2, x, y in [0, 10], warm
   started from the basis {x of every block} (y = 1 a row, so y's
   reduced cost is 1 and the surplus slack's -1: dual feasible). Cutting
   every x to [0, 1.5] makes each row violate once; its pivot row is
   (x 1, y 1, slack 1), three entries, y enters (ratio 1) and the block
   ends at x = 1.5, y = 0.5. The basis stays the identity, so every eta
   holds just its pivot: 32 etas trigger a refactorization (m <= 64),
   and [k] = 40 crosses one, refreshing the reduced costs a second
   time. A cold solve refreshes nothing and forms no pivot row. *)
let test_dual_work_counters () =
  let module Metrics = Monpos_obs.Metrics in
  let count name = Metrics.counter_value (Metrics.counter Metrics.default name) in
  let blocks k =
    let m = Model.create Model.Minimize in
    for _ = 1 to k do
      let x = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:1.0 Model.Continuous in
      let y = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:2.0 Model.Continuous in
      Model.add_constr m [ (1.0, x); (1.0, y) ] Model.Ge 2.0
    done;
    m
  in
  let work f =
    let e0 = count "simplex.row_entries" and r0 = count "simplex.dj_refreshes" in
    let sol = Monpos_resilience.Chaos.suppress f in
    (sol, count "simplex.row_entries" - e0, count "simplex.dj_refreshes" - r0)
  in
  List.iter
    (fun (k, want_entries, want_refreshes) ->
      let p = Simplex.of_model (blocks k) in
      let name what = Printf.sprintf "k=%d %s" k what in
      let _, entries, refreshes = work (fun () -> Simplex.solve p) in
      Alcotest.(check int) (name "cold row entries") 0 entries;
      Alcotest.(check int) (name "cold refreshes") 0 refreshes;
      let upper = Array.init (2 * k) (fun j -> if j mod 2 = 0 then 1.5 else 10.0) in
      let basis = Array.init k (fun b -> 2 * b) in
      let sol, entries, refreshes =
        work (fun () -> Simplex.solve ~upper ~basis p)
      in
      check_status Simplex.Optimal sol.Simplex.status;
      check_float (name "objective") (2.5 *. float_of_int k) sol.Simplex.objective;
      Alcotest.(check int) (name "dual pivots") k sol.Simplex.dual_iterations;
      Alcotest.(check int) (name "primal pivots") 0
        (sol.Simplex.iterations - sol.Simplex.dual_iterations);
      Alcotest.(check int) (name "row entries") want_entries entries;
      Alcotest.(check int) (name "refreshes") want_refreshes refreshes)
    [ (1, 3, 1); (40, 120, 2) ]

let suite =
  [
    Alcotest.test_case "textbook max" `Quick test_textbook_max;
    Alcotest.test_case "textbook min" `Quick test_textbook_min;
    Alcotest.test_case "equality rows" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "bounded vars" `Quick test_bounded_vars;
    Alcotest.test_case "negative lower bounds" `Quick test_negative_lower_bounds;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "fixed variable" `Quick test_fixed_variable;
    Alcotest.test_case "degenerate corner" `Quick test_degenerate;
    Alcotest.test_case "strong duality" `Quick test_duals_weak_duality;
    Alcotest.test_case "no constraints" `Quick test_zero_constraints;
    Alcotest.test_case "redundant rows" `Quick test_redundant_rows;
    Alcotest.test_case "model validation" `Quick test_model_rejects_bad_data;
    Alcotest.test_case "duplicate terms merged" `Quick test_duplicate_terms_merged;
    Alcotest.test_case "dual work counters" `Quick test_dual_work_counters;
    QCheck_alcotest.to_alcotest prop_fractional_knapsack;
    QCheck_alcotest.to_alcotest prop_duality_certificates;
    QCheck_alcotest.to_alcotest prop_certificates_both_directions;
    QCheck_alcotest.to_alcotest prop_optimal_dominates_samples;
  ]
