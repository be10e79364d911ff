(* Randomized differential harness for the dual-simplex warm starts.

   Generates small random LPs (mixed <=/>=/= rows; boxed, one-sided
   and free variables) with the deterministic Monpos_util.Prng and
   checks, instance by instance, that

   - re-solving from the final basis with unchanged bounds reproduces
     the cold solve,
   - after random branching-style bound flips the warm-started
     re-solve (dual simplex from the parent basis) agrees with a cold
     primal solve on status and objective within 1e-6,
   - on larger LPs (20-60 structurals, 15-40 rows) with many flips at
     once, so that the dual simplex keeps its reduced costs over many
     pivots and across refactorizations, the warm re-solve still
     agrees with the cold one and its reported reduced costs have
     optimality signs,
   - a malformed warm basis silently degrades to the cold answer,
   - a singular, ill-conditioned or mixed-scale warm basis never
     crashes the LU factorization: it either factorizes stably or
     falls back to the cold slack start, same answer either way.

   The LU factorization itself is checked against a dense
   elimination oracle in test_lu.ml.

   The base seed comes from MONPOS_PROP_SEED (default 1) so CI can run
   the same 200 instances under several seeds. *)

module Model = Monpos_lp.Model
module Simplex = Monpos_lp.Simplex
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 200

let status_name = function
  | Simplex.Optimal -> "optimal"
  | Simplex.Infeasible -> "infeasible"
  | Simplex.Unbounded -> "unbounded"
  | Simplex.Iteration_limit -> "iteration_limit"
  | Simplex.Deadline_reached -> "deadline_reached"

(* random LP: 2-6 structural variables of every bound shape, 1-5 rows
   of every sense, signed coefficients and objective *)
let random_model rng =
  let n = 2 + Prng.int rng 5 in
  let rows = 1 + Prng.int rng 5 in
  let dir = if Prng.bool rng then Model.Minimize else Model.Maximize in
  let m = Model.create dir in
  let xs =
    Array.init n (fun _ ->
        (* boxed most of the time so a useful share of instances is
           bounded and optimal; every shape still appears *)
        let lb, ub =
          match Prng.int rng 8 with
          | 0 | 1 | 2 | 3 | 4 -> (0.0, 1.0 +. Prng.float rng 9.0)
          | 5 -> (0.0, infinity)
          | 6 -> (neg_infinity, Prng.float rng 10.0)
          | _ -> (neg_infinity, infinity)
        in
        Model.add_var m ~lb ~ub
          ~obj:(Prng.float rng 10.0 -. 5.0)
          Model.Continuous)
  in
  for _ = 1 to rows do
    let nterms = 1 + Prng.int rng n in
    let terms =
      List.init nterms (fun _ ->
          (Prng.float rng 8.0 -. 4.0, xs.(Prng.int rng n)))
    in
    let sense =
      match Prng.int rng 5 with
      | 0 | 1 -> Model.Le
      | 2 | 3 -> Model.Ge
      | _ -> Model.Eq
    in
    Model.add_constr m terms sense (Prng.float rng 16.0 -. 8.0)
  done;
  m

let check_agree ~case ~what model cold warm =
  if cold.Simplex.status <> warm.Simplex.status then
    Alcotest.failf "case %d (%s): status cold=%s warm=%s" case what
      (status_name cold.Simplex.status)
      (status_name warm.Simplex.status);
  if cold.Simplex.status = Simplex.Optimal then begin
    let scale = 1.0 +. abs_float cold.Simplex.objective in
    if
      abs_float (cold.Simplex.objective -. warm.Simplex.objective)
      > 1e-6 *. scale
    then
      Alcotest.failf "case %d (%s): objective cold=%.9f warm=%.9f" case what
        cold.Simplex.objective warm.Simplex.objective;
    (* each reported objective must be the objective of its own primal
       point (guards against a stale objective riding on a warm basis) *)
    List.iter
      (fun (name, (sol : Simplex.solution)) ->
        let v = Model.objective_value model sol.Simplex.primal in
        if abs_float (v -. sol.Simplex.objective) > 1e-5 *. scale then
          Alcotest.failf "case %d (%s): %s objective %.9f but primal scores %.9f"
            case what name sol.Simplex.objective v)
      [ ("cold", cold); ("warm", warm) ]
  end

(* branching-style flips: tighten a bound to cut off the current
   optimal value of a random variable, one to three times *)
let flip_bounds rng (cold : Simplex.solution) lower upper =
  let n = Array.length lower in
  let flips = 1 + Prng.int rng 2 in
  for _ = 1 to flips do
    let v = Prng.int rng n in
    let x = cold.Simplex.primal.(v) in
    if Prng.bool rng then begin
      let new_ub = x -. (0.1 +. Prng.float rng 2.0) in
      if new_ub >= lower.(v) then upper.(v) <- min upper.(v) new_ub
    end
    else begin
      let new_lb = x +. (0.1 +. Prng.float rng 2.0) in
      if new_lb <= upper.(v) then lower.(v) <- max lower.(v) new_lb
    end
  done

(* larger LPs in the shape of branch-and-bound node LPs: 20-60 mostly
   boxed structurals, 15-40 sparse rows of every sense. The right-hand
   sides are set around a random point inside the bounds, so every
   instance is feasible. *)
let random_large_model rng =
  let n = 20 + Prng.int rng 41 in
  let rows = 15 + Prng.int rng 26 in
  let dir = if Prng.bool rng then Model.Minimize else Model.Maximize in
  let m = Model.create dir in
  let bounds =
    Array.init n (fun _ ->
        match Prng.int rng 10 with
        | 0 -> (0.0, infinity)
        | 1 -> (-5.0 -. Prng.float rng 5.0, 5.0 +. Prng.float rng 5.0)
        | _ -> (0.0, 1.0 +. Prng.float rng 9.0))
  in
  let xs =
    Array.map
      (fun (lb, ub) ->
        Model.add_var m ~lb ~ub ~obj:(Prng.float rng 10.0 -. 5.0) Model.Continuous)
      bounds
  in
  let point =
    Array.map
      (fun (lb, ub) ->
        let hi = if ub < infinity then ub else lb +. 10.0 in
        lb +. Prng.float rng (hi -. lb))
      bounds
  in
  for _ = 1 to rows do
    let terms =
      List.init
        (2 + Prng.int rng 7)
        (fun _ -> (Prng.float rng 8.0 -. 4.0, Prng.int rng n))
    in
    let lhs = List.fold_left (fun acc (a, v) -> acc +. (a *. point.(v))) 0.0 terms in
    let terms = List.map (fun (a, v) -> (a, xs.(v))) terms in
    match Prng.int rng 5 with
    | 0 | 1 -> Model.add_constr m terms Model.Le (lhs +. Prng.float rng 4.0)
    | 2 | 3 -> Model.add_constr m terms Model.Ge (lhs -. Prng.float rng 4.0)
    | _ -> Model.add_constr m terms Model.Eq lhs
  done;
  m

(* Optimality signs of the reported reduced costs (minimization form)
   against the bounds of the solve: a variable above its lower bound
   may not have a positive reduced cost, one below its upper bound not
   a negative one. *)
let check_reduced_cost_signs ~case (sol : Simplex.solution) lower upper =
  Array.iteri
    (fun j d ->
      let x = sol.Simplex.primal.(j) in
      let tol = 1e-6 *. (1.0 +. abs_float sol.Simplex.objective) in
      if (x > lower.(j) +. 1e-6 && d > tol) || (x < upper.(j) -. 1e-6 && d < -.tol)
      then
        Alcotest.failf
          "case %d (large): variable %d at %.9f in [%g, %g] has reduced cost %.3g"
          case j x lower.(j) upper.(j) d)
    sol.Simplex.reduced_costs

let large_cases = 100

type large_tally = {
  mutable flipped : int; (* optimal instances re-solved after flips *)
  mutable reoptimal : int; (* of those, optimal after the flips *)
  mutable pivots : int; (* dual pivots of the warm re-solves *)
  mutable crossed : int; (* warm dual runs that refactorized *)
}

(* The large family: each optimal instance gets a quarter to a half of
   its variables cut off their optimal values at once, like a deep
   dive in branch and bound. Besides agreeing with the cold solve, a
   warm re-solve that pivoted in the dual phase and ends optimal must
   take no primal pivot: its dual phase stopped primal feasible on a
   basis it kept dual feasible, so the primal phases only confirm it.
   Kept reduced costs that drift from the true ones break exactly
   that. Run fault-free: an injected singular basis restarts the solve
   cold under the primal simplex. *)
let large_differential () =
  let module Metrics = Monpos_obs.Metrics in
  let refreshes = Metrics.counter Metrics.default "simplex.dj_refreshes" in
  let tally = { flipped = 0; reoptimal = 0; pivots = 0; crossed = 0 } in
  for case = 0 to large_cases - 1 do
    let rng = Prng.create ((prop_seed * 2_750_159) + case) in
    let m = random_large_model rng in
    let p = Simplex.of_model m in
    let n = Simplex.num_structural p in
    let cold = Simplex.solve p in
    if cold.Simplex.status = Simplex.Optimal then begin
      let lower = Array.init n (fun v -> Model.var_lb m (Model.var_of_index m v)) in
      let upper = Array.init n (fun v -> Model.var_ub m (Model.var_of_index m v)) in
      for _ = 1 to (n / 4) + Prng.int rng (n / 4) do
        let v = Prng.int rng n in
        let x = cold.Simplex.primal.(v) in
        if Prng.bool rng then begin
          let new_ub = x -. (0.05 +. Prng.float rng 0.5) in
          if new_ub >= lower.(v) then upper.(v) <- min upper.(v) new_ub
        end
        else begin
          let new_lb = x +. (0.05 +. Prng.float rng 0.5) in
          if new_lb <= upper.(v) then lower.(v) <- max lower.(v) new_lb
        end
      done;
      let cold2 = Simplex.solve ~lower ~upper p in
      let r0 = Metrics.counter_value refreshes in
      let warm2 = Simplex.solve ~lower ~upper ~basis:cold.Simplex.basis p in
      (* the warm start refreshes the reduced costs once; every further
         refresh follows a refactorization inside the dual phase *)
      if Metrics.counter_value refreshes - r0 > 1 then
        tally.crossed <- tally.crossed + 1;
      tally.flipped <- tally.flipped + 1;
      tally.pivots <- tally.pivots + warm2.Simplex.dual_iterations;
      check_agree ~case ~what:"large bound flip" m cold2 warm2;
      if warm2.Simplex.status = Simplex.Optimal then begin
        tally.reoptimal <- tally.reoptimal + 1;
        check_reduced_cost_signs ~case warm2 lower upper;
        if
          warm2.Simplex.dual_iterations > 0
          && warm2.Simplex.iterations > warm2.Simplex.dual_iterations
        then
          Alcotest.failf
            "case %d (large): %d primal pivots after %d dual pivots" case
            (warm2.Simplex.iterations - warm2.Simplex.dual_iterations)
            warm2.Simplex.dual_iterations
      end
    end
  done;
  tally

let test_differential () =
  let bound_flip_cases = ref 0 in
  let dual_pivots = ref 0 in
  for case = 0 to cases - 1 do
    let rng = Prng.create ((prop_seed * 1_000_003) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let n = Simplex.num_structural p in
    let cold = Simplex.solve p in
    (* same bounds, final basis back in: nothing may change *)
    let replay = Simplex.solve ~basis:cold.Simplex.basis p in
    check_agree ~case ~what:"replay" m cold replay;
    if cold.Simplex.status = Simplex.Optimal then begin
      let lower =
        Array.init n (fun v -> Model.var_lb m (Model.var_of_index m v))
      in
      let upper =
        Array.init n (fun v -> Model.var_ub m (Model.var_of_index m v))
      in
      flip_bounds rng cold lower upper;
      let cold2 = Simplex.solve ~lower ~upper p in
      let warm2 = Simplex.solve ~lower ~upper ~basis:cold.Simplex.basis p in
      incr bound_flip_cases;
      dual_pivots := !dual_pivots + warm2.Simplex.dual_iterations;
      check_agree ~case ~what:"bound flip" m cold2 warm2
    end
  done;
  (* the harness must actually exercise the machinery it tests *)
  Alcotest.(check bool)
    (Printf.sprintf "enough optimal instances (%d)" !bound_flip_cases)
    true
    (!bound_flip_cases > cases / 8);
  Alcotest.(check bool)
    (Printf.sprintf "dual simplex pivoted (%d pivots)" !dual_pivots)
    true (!dual_pivots > 0);
  let t = Monpos_resilience.Chaos.suppress large_differential in
  Printf.printf
    "large family: %d of %d instances flipped (%d optimal after the flips), \
     %d dual pivots, %d warm runs crossed a refactorization\n"
    t.flipped large_cases t.reoptimal t.pivots t.crossed;
  Alcotest.(check bool)
    (Printf.sprintf "large family: enough optimal instances (%d)" t.flipped)
    true
    (t.flipped > large_cases / 2 && t.reoptimal > large_cases / 5);
  Alcotest.(check bool)
    (Printf.sprintf "large family: warm runs crossed a refactorization (%d)"
       t.crossed)
    true (t.crossed > 0)

let test_malformed_basis_degrades () =
  for case = 0 to 29 do
    let rng = Prng.create ((prop_seed * 7_368_787) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let rows = Simplex.num_rows p in
    let cold = Simplex.solve p in
    let garbage =
      [
        [||];
        Array.make rows 0 (* duplicates *);
        Array.init rows (fun r -> r * 1_000_000) (* out of range *);
        Array.init (rows + 3) (fun r -> r) (* wrong length *);
      ]
    in
    List.iter
      (fun basis ->
        let warm = Simplex.solve ~basis p in
        check_agree ~case ~what:"malformed basis" m cold warm)
      garbage
  done

(* the slack basis passed explicitly must behave exactly like the
   implicit cold start *)
let test_explicit_slack_basis () =
  for case = 0 to 29 do
    let rng = Prng.create ((prop_seed * 15_485_863) + case) in
    let m = random_model rng in
    let p = Simplex.of_model m in
    let slack =
      Array.init (Simplex.num_rows p) (fun r -> Simplex.num_structural p + r)
    in
    let cold = Simplex.solve p in
    let warm = Simplex.solve ~basis:slack p in
    check_agree ~case ~what:"slack basis" m cold warm
  done

(* A structurally singular warm basis (two identical columns) must be
   rejected by the factorization and degrade to the cold answer. *)
let test_singular_basis_fallback () =
  let m = Model.create Model.Minimize in
  let x0 = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:1.0 Model.Continuous in
  let x1 = Model.add_var m ~lb:0.0 ~ub:10.0 ~obj:2.0 Model.Continuous in
  (* both rows use both variables with coefficient 1, so the columns
     of x0 and x1 are identical: basis [x0; x1] is singular *)
  Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Le 4.0;
  Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Ge 1.0;
  let p = Simplex.of_model m in
  let singular = [| Model.var_index x0; Model.var_index x1 |] in
  let cold = Simplex.solve p in
  let warm = Simplex.solve ~basis:singular p in
  check_agree ~case:0 ~what:"singular" m cold warm;
  Alcotest.(check bool) "singular: solved to optimality" true
    (cold.Simplex.status = Simplex.Optimal)

(* Nearly dependent columns and wild coefficient scales: the LU's
   threshold pivoting must either factorize stably or raise internally
   and fall back — never return a wrong optimum. *)
let test_ill_conditioned_basis () =
  let eps_list = [ 1e-6; 1e-9; 1e-11; 1e-13 ] in
  List.iter
    (fun eps ->
      let m = Model.create Model.Minimize in
      let x0 = Model.add_var m ~lb:0.0 ~ub:100.0 ~obj:1.0 Model.Continuous in
      let x1 = Model.add_var m ~lb:0.0 ~ub:100.0 ~obj:1.0 Model.Continuous in
      Model.add_constr m [ (1.0, x0); (1.0, x1) ] Model.Ge 2.0;
      Model.add_constr m [ (1.0, x0); (1.0 +. eps, x1) ] Model.Le 50.0;
      let p = Simplex.of_model m in
      let near_singular = [| Model.var_index x0; Model.var_index x1 |] in
      let cold = Simplex.solve p in
      let warm = Simplex.solve ~basis:near_singular p in
      check_agree ~case:0
        ~what:(Printf.sprintf "ill-conditioned eps=%g" eps)
        m cold warm)
    eps_list;
  (* mixed huge/tiny coefficients in one basis *)
  let m = Model.create Model.Maximize in
  let x0 = Model.add_var m ~lb:0.0 ~ub:1e6 ~obj:1.0 Model.Continuous in
  let x1 = Model.add_var m ~lb:0.0 ~ub:1e6 ~obj:1.0 Model.Continuous in
  Model.add_constr m [ (1e8, x0); (1e-8, x1) ] Model.Le 1e8;
  Model.add_constr m [ (1e-8, x0); (1e8, x1) ] Model.Le 1e8;
  let p = Simplex.of_model m in
  let basis = [| Model.var_index x0; Model.var_index x1 |] in
  let cold = Simplex.solve p in
  let warm = Simplex.solve ~basis p in
  check_agree ~case:0 ~what:"mixed scales" m cold warm;
  Alcotest.(check bool) "mixed scales: solved to optimality" true
    (cold.Simplex.status = Simplex.Optimal)

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "warm vs cold differential (seed %d)" prop_seed)
      `Quick test_differential;
    Alcotest.test_case "malformed basis degrades to cold" `Quick
      test_malformed_basis_degrades;
    Alcotest.test_case "explicit slack basis = cold start" `Quick
      test_explicit_slack_basis;
    Alcotest.test_case "singular warm basis falls back (to the cold answer)"
      `Quick test_singular_basis_fallback;
    Alcotest.test_case "ill-conditioned bases stay exact (vs cold)" `Quick
      test_ill_conditioned_basis;
  ]
