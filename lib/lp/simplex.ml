(* Bounded-variable revised primal and dual simplex over a sparse LU
   basis representation.

   Conventions: the problem is solved as a minimization; a Maximize
   model has its costs negated on input and its objective and duals
   negated on output. Every row [a.x {<=,>=,=} b] becomes
   [a.x + s = b] with slack bounds [0,inf) / (-inf,0] / [0,0], so the
   initial slack basis is the identity.

   Basis: a Markowitz LU factorization plus a product-form eta file
   ({!Lu}); FTRAN/BTRAN and the dual phase's row extraction run on
   sparse, indexed work vectors, so a pivot costs O(nonzeros) and a
   refactorization O(nonzeros + fill). Refactorization is adaptive:
   the basis is refactorized when the eta file outgrows the
   factorization (eta count or accumulated fill).

   The constraint matrix is stored twice, column-wise for FTRAN and
   pricing and row-wise for the dual phase's pivot row. The pivot
   loops pass no float to a function or closure: vectors are written
   through [Sparse_vec.raw] after an int-only [Sparse_vec.touch] and
   walked with index loops, so a pivot allocates only its eta.

   Warm starts: [solve ?basis] installs a caller-supplied basic set
   (typically the parent branch-and-bound node's optimal basis)
   through the same LU factorization as any other basis, parks
   each nonbasic variable on the bound its reduced-cost sign asks for,
   and — when the result is dual feasible, which it always is after a
   pure bound change on an optimal basis — runs the dual simplex to
   primal feasibility. The primal phases then run from wherever the
   dual phase stopped, so the final status and objective are always
   produced by the same primal machinery as a cold solve; the dual
   phase is purely an accelerator. *)

module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Span = Monpos_obs.Span
module Deadline = Monpos_resilience.Deadline
module Chaos = Monpos_resilience.Chaos

(* pivot work is one metric family split by phase label; summing the
   label sets recovers the historical total *)
let m_recoveries =
  lazy
    (Metrics.counter
       ~labels:[ ("solver", "simplex") ]
       Metrics.default "resilience.recoveries")

let m_primal_iterations =
  lazy
    (Metrics.counter
       ~labels:[ ("phase", "primal") ]
       Metrics.default "simplex.iterations")

let m_warm_starts =
  lazy (Metrics.counter Metrics.default "simplex.warm_starts")

let m_dual_iterations =
  lazy
    (Metrics.counter
       ~labels:[ ("phase", "dual") ]
       Metrics.default "simplex.iterations")

(* the label of the [simplex.solves] counter and the [kernel] field of
   [warm_start] trace events, kept stable for trace and bench readers *)
let kernel_name = "sparse_lu"

let m_solves =
  lazy
    (Metrics.counter
       ~labels:[ ("kernel", kernel_name) ]
       Metrics.default "simplex.solves")

let m_refactorizations =
  lazy (Metrics.counter Metrics.default "simplex.refactorizations")

(* dual phase work, counted per solve: pivot-row entries formed, and
   full reduced-cost refreshes (a BTRAN plus a pricing pass over every
   column) *)
let m_row_entries = lazy (Metrics.counter Metrics.default "simplex.row_entries")

let m_dj_refreshes =
  lazy (Metrics.counter Metrics.default "simplex.dj_refreshes")

(* length of the eta file when a factorization is retired *)
let m_eta_len =
  lazy
    (Metrics.histogram
       ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64.; 128.; 256.; 512.; 1024. |]
       Metrics.default "simplex.eta_len")

(* nnz(L+U) / nnz(B) of each fresh LU factorization *)
let m_lu_fill =
  lazy
    (Metrics.histogram
       ~buckets:[| 1.0; 1.25; 1.5; 2.0; 3.0; 5.0; 10.0 |]
       Metrics.default "simplex.lu_fill")

(* nnz(alpha) / m of each entering-column FTRAN *)
let m_ftran_nnz =
  lazy
    (Metrics.histogram
       ~buckets:[| 0.01; 0.02; 0.05; 0.1; 0.2; 0.3; 0.5; 0.7; 0.9; 1.0 |]
       Metrics.default "simplex.ftran_nnz_ratio")

(* a sparse line of the constraint matrix: a column (indices are rows)
   or a row (indices are structural columns) *)
type line = { idx : int array; coefs : float array }

type problem = {
  n : int; (* structural variables *)
  m : int; (* rows *)
  cols : line array; (* structural sparse columns, length n *)
  rows : line array; (* the same matrix row-wise, length m *)
  cost : float array; (* structural costs, minimization form *)
  base_lb : float array; (* structural bounds from the model *)
  base_ub : float array;
  slack_lb : float array; (* per-row slack bounds *)
  slack_ub : float array;
  b : float array;
  maximize : bool;
}

type status =
  | Optimal
  | Infeasible
  | Unbounded
  | Iteration_limit
  | Deadline_reached

type basis = int array

type solution = {
  status : status;
  objective : float;
  primal : float array;
  duals : float array;
  reduced_costs : float array;
  iterations : int;
  dual_iterations : int;
  basis : basis;
}

let num_rows p = p.m

let num_structural p = p.n

let of_model model =
  let n = Model.num_vars model in
  let m = Model.num_constrs model in
  let cols =
    Array.map (fun (idx, coefs) -> { idx; coefs }) (Model.columns model)
  in
  (* transpose: size each row, then fill in column order *)
  let rows =
    let len = Array.make m 0 in
    Array.iter (fun c -> Array.iter (fun i -> len.(i) <- len.(i) + 1) c.idx) cols;
    let rows =
      Array.map (fun k -> { idx = Array.make k 0; coefs = Array.make k 0.0 }) len
    in
    let fill = Array.make m 0 in
    Array.iteri
      (fun j c ->
        Array.iteri
          (fun k i ->
            let r = rows.(i) in
            r.idx.(fill.(i)) <- j;
            r.coefs.(fill.(i)) <- c.coefs.(k);
            fill.(i) <- fill.(i) + 1)
          c.idx)
      cols;
    rows
  in
  let b = Array.make (max m 1) 0.0 in
  let slack_lb = Array.make (max m 1) 0.0 in
  let slack_ub = Array.make (max m 1) 0.0 in
  Model.iter_constrs model (fun i _terms sense rhs ->
      b.(i) <- rhs;
      match sense with
      | Model.Le ->
        slack_lb.(i) <- 0.0;
        slack_ub.(i) <- infinity
      | Model.Ge ->
        slack_lb.(i) <- neg_infinity;
        slack_ub.(i) <- 0.0
      | Model.Eq ->
        slack_lb.(i) <- 0.0;
        slack_ub.(i) <- 0.0);
  let maximize = Model.direction model = Model.Maximize in
  let cost =
    Array.init n (fun v ->
        let c = Model.var_obj model (Model.var_of_index model v) in
        if maximize then -.c else c)
  in
  let base_lb =
    Array.init n (fun v -> Model.var_lb model (Model.var_of_index model v))
  in
  let base_ub =
    Array.init n (fun v -> Model.var_ub model (Model.var_of_index model v))
  in
  { n; m; cols; rows; cost; base_lb; base_ub; slack_lb; slack_ub; b; maximize }

(* --- solver state ------------------------------------------------------ *)

type vstatus = Basic | At_lower | At_upper | Free_nb

type state = {
  p : problem;
  nn : int; (* n + m total columns *)
  lb : float array; (* length nn *)
  ub : float array;
  x : float array; (* current value per column *)
  vstat : vstatus array;
  basic_var : int array; (* row -> column *)
  in_row : int array; (* column -> row or -1 *)
  mutable fact : Lu.t option; (* factorization + eta file; None before
                                 the first factor *)
  alpha : Sparse_vec.t; (* FTRAN result, indexed by basis position *)
  y : Sparse_vec.t; (* BTRAN result, indexed by constraint row *)
  work : Sparse_vec.t; (* FTRAN/BTRAN right-hand-side scratch *)
  rho : Sparse_vec.t; (* dual phase: row r of B^-1 *)
  prow : Sparse_vec.t; (* dual phase: rho.A over the structurals *)
  d : float array;
      (* reduced costs, length nn: kept pivot to pivot by the dual phase
         (see [refresh_reduced_costs]), re-priced every pivot by the
         primal phases *)
  deadline : Deadline.t;
  (* work counters, added to the metrics once per solve *)
  mutable row_entries : int; (* pivot-row entries formed *)
  mutable dj_refreshes : int; (* full reduced-cost refreshes *)
  mutable iters : int;
  mutable degenerate_run : int;
  mutable bland : bool;
  mutable refactor_override : int option;
}

let feas_tol = 1e-7

let dj_tol = 1e-7

let piv_tol = 1e-8

let zero_tol = 1e-11

(* Column access treating slacks as unit columns, for the LU
   factorization's column callback. *)
let col_iter st j f =
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    for k = 0 to Array.length c.idx - 1 do
      f c.idx.(k) c.coefs.(k)
    done
  end
  else f (j - st.p.n) 1.0

(* --- basis solves ------------------------------------------------------ *)

(* alpha := B^-1 work. The work vector is consumed. *)
let lu_ftran st =
  match st.fact with
  | Some f -> Lu.ftran f ~rhs:st.work ~into:st.alpha
  | None -> Sparse_vec.clear st.alpha

(* y := B^-T work. The work vector is consumed. *)
let lu_btran st =
  match st.fact with
  | Some f -> Lu.btran f ~rhs:st.work ~into:st.y
  | None -> Sparse_vec.clear st.y

(* rho := row [r] of B^-1 (equivalently B^-T e_r). *)
let lu_row st r =
  Sparse_vec.clear st.work;
  Sparse_vec.set st.work r 1.0;
  match st.fact with
  | Some f -> Lu.btran f ~rhs:st.work ~into:st.rho
  | None -> Sparse_vec.clear st.rho

(* alpha := B^-1 A_j *)
let ftran st j =
  Sparse_vec.clear st.work;
  let wv = Sparse_vec.raw st.work in
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    for k = 0 to Array.length c.idx - 1 do
      let a = c.coefs.(k) in
      if a <> 0.0 then begin
        let i = c.idx.(k) in
        Sparse_vec.touch st.work i;
        wv.(i) <- wv.(i) +. a
      end
    done
  end
  else Sparse_vec.set st.work (j - st.p.n) 1.0;
  lu_ftran st;
  if st.p.m > 0 then
    Metrics.observe (Lazy.force m_ftran_nnz)
      (float_of_int (Sparse_vec.nnz st.alpha) /. float_of_int st.p.m)

(* work := per-row basic costs for the current phase objective *)
let load_phase_costs st ~phase1 =
  Sparse_vec.clear st.work;
  let wv = Sparse_vec.raw st.work in
  for r = 0 to st.p.m - 1 do
    let v = st.basic_var.(r) in
    let c =
      if phase1 then begin
        let x = st.x.(v) in
        if x < st.lb.(v) -. feas_tol then -1.0
        else if x > st.ub.(v) +. feas_tol then 1.0
        else 0.0
      end
      else if v < st.p.n then st.p.cost.(v)
      else 0.0
    in
    if c <> 0.0 then begin
      Sparse_vec.touch st.work r;
      wv.(r) <- c
    end
  done

(* d_j := c_j - y.A_j, summed in column order, for the phase objective
   (every nonbasic phase-1 cost is zero); the slack of row r is the
   unit column e_r. *)
let price st ~phase1 j =
  let yv = Sparse_vec.raw st.y in
  let cost_j = if phase1 || j >= st.p.n then 0.0 else st.p.cost.(j) in
  if j < st.p.n then begin
    let c = st.p.cols.(j) in
    let acc = ref cost_j in
    for k = 0 to Array.length c.idx - 1 do
      acc := !acc -. (yv.(c.idx.(k)) *. c.coefs.(k))
    done;
    st.d.(j) <- !acc
  end
  else st.d.(j) <- cost_j -. yv.(j - st.p.n)

(* Recompute basic variable values from nonbasic values. *)
let recompute_basics st =
  let m = st.p.m and n = st.p.n in
  Sparse_vec.clear st.work;
  let wv = Sparse_vec.raw st.work in
  for i = 0 to m - 1 do
    if st.p.b.(i) <> 0.0 then begin
      Sparse_vec.touch st.work i;
      wv.(i) <- st.p.b.(i)
    end
  done;
  for j = 0 to st.nn - 1 do
    let xj = st.x.(j) in
    if st.vstat.(j) <> Basic && xj <> 0.0 then
      if j < n then begin
        let c = st.p.cols.(j) in
        for k = 0 to Array.length c.idx - 1 do
          let i = c.idx.(k) in
          if wv.(i) = 0.0 then Sparse_vec.touch st.work i;
          wv.(i) <- wv.(i) +. (-.c.coefs.(k) *. xj)
        done
      end
      else begin
        let i = j - n in
        Sparse_vec.touch st.work i;
        wv.(i) <- wv.(i) +. -.xj
      end
  done;
  lu_ftran st;
  let av = Sparse_vec.raw st.alpha in
  for r = 0 to m - 1 do
    st.x.(st.basic_var.(r)) <- av.(r)
  done

exception Singular_basis

(* Rebuild the basis factorization from scratch (Markowitz LU). The
   basic values are left to the caller ([refactorize] recomputes
   them). *)
let factorize st =
  let m = st.p.m in
  if m > 0 then begin
    Option.iter
      (fun f ->
        Metrics.observe (Lazy.force m_eta_len) (float_of_int (Lu.eta_count f)))
      st.fact;
    let fact =
      Span.run "lu_factor" @@ fun () ->
      try Lu.factor ~m ~col:(fun r f -> col_iter st st.basic_var.(r) f)
      with Lu.Singular -> raise Singular_basis
    in
    let s = Lu.stats fact in
    Metrics.observe (Lazy.force m_lu_fill)
      (float_of_int s.Lu.factor_nnz /. float_of_int (max 1 s.Lu.basis_nnz));
    st.fact <- Some fact;
    Metrics.incr (Lazy.force m_refactorizations)
  end

let refactorize st =
  factorize st;
  if st.p.m > 0 then recompute_basics st

(* Refactorization cadence: the eta file decides (count and
   accumulated fill). [refactor_override], set by the
   numerical-recovery path, caps the eta count. *)
let need_refactor st =
  match st.fact with
  | Some f -> Lu.should_refactor ?eta_limit:st.refactor_override f
  | None -> true

let violation st j =
  let x = st.x.(j) in
  if x < st.lb.(j) -. feas_tol then st.lb.(j) -. x
  else if x > st.ub.(j) +. feas_tol then x -. st.ub.(j)
  else 0.0

let total_infeasibility st =
  let acc = ref 0.0 in
  for r = 0 to st.p.m - 1 do
    acc := !acc +. violation st st.basic_var.(r)
  done;
  !acc

(* Entering-variable selection. [phase1] switches the costs: nonbasic
   phase-1 costs are zero, so d_j = -y.A_j. Returns (j, dir). *)
let choose_entering st ~phase1 =
  let best = ref (-1) and best_score = ref 0.0 and best_dir = ref 1.0 in
  for j = 0 to st.nn - 1 do
    match st.vstat.(j) with
    | Basic -> ()
    | (At_lower | At_upper | Free_nb) as vs ->
      if st.ub.(j) -. st.lb.(j) > zero_tol || vs = Free_nb then begin
        price st ~phase1 j;
        let d = st.d.(j) in
        (* the direction in which j improves the objective, 0 for none *)
        let dir =
          match vs with
          | At_lower -> if d < -.dj_tol then 1.0 else 0.0
          | At_upper -> if d > dj_tol then -1.0 else 0.0
          | Free_nb ->
            if d < -.dj_tol then 1.0 else if d > dj_tol then -1.0 else 0.0
          | Basic -> 0.0
        in
        let score = abs_float d in
        if
          dir <> 0.0 && score > dj_tol
          && if st.bland then !best = -1 else score > !best_score
        then begin
          best := j;
          best_score := score;
          best_dir := dir
        end
      end
  done;
  if !best = -1 then None else Some (!best, !best_dir)

type leave = Bound_flip | Leave of int * [ `Lower | `Upper ]

(* Ratio test over the nonzeros of the ftran'd entering column. In
   phase 1 infeasible basics may travel to the bound they violate and
   leave there. Returns (t, leave) or None when the direction is
   unbounded. Ties within [tie] are broken by the largest pivot
   magnitude (stability) or, in Bland mode, by the smallest
   leaving-variable index (anti-cycling). *)
let ratio_test st j dir ~phase1 =
  let tie = 1e-9 in
  let flip_limit =
    let span = st.ub.(j) -. st.lb.(j) in
    if span < 0.0 then 0.0 else span
  in
  let t_best = ref flip_limit in
  let leave_row = ref (-1) and leave_upper = ref false in
  let best_piv = ref 0.0 in
  let leave_var = ref max_int in
  let av = Sparse_vec.raw st.alpha and pat = Sparse_vec.pattern st.alpha in
  for k = 0 to Sparse_vec.nnz st.alpha - 1 do
    let r = pat.(k) in
    let a = av.(r) in
    if abs_float a > piv_tol then begin
      let v = st.basic_var.(r) in
      let delta = -.dir *. a in
      let xr = st.x.(v) and lr = st.lb.(v) and ur = st.ub.(v) in
      let below = xr < lr -. feas_tol and above = xr > ur +. feas_tol in
      (* the bound v leaves at: 0 none, 1 lower, 2 upper *)
      let side =
        if (not below) && not above then
          if delta < 0.0 && lr > neg_infinity then 1
          else if delta > 0.0 && ur < infinity then 2
          else 0
        else if phase1 && below && delta > 0.0 then 1
        else if phase1 && above && delta < 0.0 then 2
        else 0
      in
      if side > 0 then begin
        let t =
          if below then (lr -. xr) /. delta
          else if above then (xr -. ur) /. -.delta
          else if side = 1 then (xr -. lr) /. -.delta
          else (ur -. xr) /. delta
        in
        let t = if t < 0.0 then 0.0 else t in
        let strictly_less = t < !t_best -. tie in
        let tied = (not strictly_less) && t <= !t_best +. tie in
        let wins_tie =
          tied
          && if st.bland then v < !leave_var else abs_float a > !best_piv
        in
        if strictly_less || wins_tie then begin
          if t < !t_best then t_best := t;
          leave_row := r;
          leave_upper := side = 2;
          best_piv := abs_float a;
          leave_var := v
        end
      end
    end
  done;
  if !t_best = infinity then None
  else if !leave_row < 0 then Some (!t_best, Bound_flip)
  else
    Some (!t_best, Leave (!leave_row, if !leave_upper then `Upper else `Lower))

(* Apply a step of length t along entering variable j / direction dir. *)
let apply_step st j dir t leave =
  (* move basics along the nonzeros of alpha *)
  let av = Sparse_vec.raw st.alpha and pat = Sparse_vec.pattern st.alpha in
  for k = 0 to Sparse_vec.nnz st.alpha - 1 do
    let r = pat.(k) in
    let a = av.(r) in
    if a <> 0.0 then begin
      let v = st.basic_var.(r) in
      st.x.(v) <- st.x.(v) -. (a *. dir *. t)
    end
  done;
  match leave with
  | Bound_flip ->
    (match st.vstat.(j) with
    | At_lower ->
      st.vstat.(j) <- At_upper;
      st.x.(j) <- st.ub.(j)
    | At_upper ->
      st.vstat.(j) <- At_lower;
      st.x.(j) <- st.lb.(j)
    | Free_nb | Basic ->
      (* a free variable has no opposite bound: a flip step of finite
         length can only come from a finite bound, so this is
         unreachable for Free_nb; keep the value consistent anyway. *)
      st.x.(j) <- st.x.(j) +. (dir *. t))
  | Leave (r, side) ->
    let v = st.basic_var.(r) in
    (match side with
    | `Lower ->
      st.x.(v) <- st.lb.(v);
      st.vstat.(v) <- At_lower
    | `Upper ->
      st.x.(v) <- st.ub.(v);
      st.vstat.(v) <- At_upper);
    st.in_row.(v) <- -1;
    st.x.(j) <- st.x.(j) +. (dir *. t);
    st.vstat.(j) <- Basic;
    st.basic_var.(r) <- j;
    st.in_row.(j) <- r;
    (* fold the basis change into the eta file *)
    match st.fact with
    | Some fct -> Lu.append_eta fct ~r ~alpha:st.alpha
    | None -> assert false

(* One simplex phase; [phase1] selects the infeasibility objective.
   Returns [`Done] (phase-1 feasible / phase-2 optimal), [`Infeasible],
   [`Unbounded] or [`Iteration_limit]. *)
(* Deadline polling stride: a clock read every 32 pivots bounds the
   overrun past the budget to whatever 31 pivots cost, without the
   hot loops paying a syscall-ish read per iteration. *)
let deadline_due st = st.iters land 31 = 0 && Deadline.expired st.deadline

(* Fault-injection point for the numerical-recovery ladder: a
   singular basis out of nowhere, as if the factorization had
   drifted. Unscoped (fires wherever a chaos seed is installed)
   because the recovery below is internal to [solve] and
   answer-preserving. *)
let chaos_singular st =
  st.iters > 0 && Chaos.fire ~scoped:false ~site:"lu.singular" ~p:0.002 ()

let run_phase st ~phase1 ~max_iterations =
  let continue = ref true in
  let result = ref `Done in
  while !continue do
    if st.iters >= max_iterations then begin
      result := `Iteration_limit;
      continue := false
    end
    else if deadline_due st then begin
      result := `Deadline;
      continue := false
    end
    else begin
      if chaos_singular st then raise Singular_basis;
      if st.iters > 0 && need_refactor st then refactorize st;
      let inf = total_infeasibility st in
      if phase1 && inf <= feas_tol then begin
        result := `Done;
        continue := false
      end
      else begin
        (* multipliers for the current phase objective *)
        load_phase_costs st ~phase1;
        lu_btran st;
        match choose_entering st ~phase1 with
        | None ->
          if phase1 && inf > feas_tol then result := `Infeasible
          else result := `Done;
          continue := false
        | Some (j, dir) -> (
          ftran st j;
          match ratio_test st j dir ~phase1 with
          | None ->
            result := `Unbounded;
            continue := false
          | Some (t, leave) ->
            apply_step st j dir t leave;
            st.iters <- st.iters + 1;
            if t <= 1e-10 then begin
              st.degenerate_run <- st.degenerate_run + 1;
              if st.degenerate_run > 80 then st.bland <- true
            end
            else begin
              st.degenerate_run <- 0;
              st.bland <- false
            end)
      end
    end
  done;
  !result

(* --- warm starts and the dual simplex ----------------------------- *)

(* Structural sanity of a caller-supplied basis: one distinct column
   per row, all in range. Anything else is silently treated as "no
   warm start" — a basis from a different problem must never crash the
   solve. *)
let basis_well_formed st basis =
  Array.length basis = st.p.m
  && begin
    let seen = Array.make st.nn false in
    Array.for_all
      (fun j ->
        j >= 0 && j < st.nn && not seen.(j)
        && begin
          seen.(j) <- true;
          true
        end)
      basis
  end

(* Install the basic set and factorize it. Raises
   Singular_basis when the columns are dependent; the caller falls
   back to a cold start. *)
let install_basis st basis =
  for j = 0 to st.nn - 1 do
    st.in_row.(j) <- -1
  done;
  for r = 0 to st.p.m - 1 do
    st.basic_var.(r) <- basis.(r);
    st.in_row.(basis.(r)) <- r
  done;
  for j = 0 to st.nn - 1 do
    if st.in_row.(j) >= 0 then st.vstat.(j) <- Basic
    else begin
      (* provisional parking spot; re-chosen by reduced-cost sign in
         [prepare_warm_nonbasics] once the factorization exists, which
         also computes the basic values *)
      st.vstat.(j) <- (if st.lb.(j) > neg_infinity then At_lower
                       else if st.ub.(j) < infinity then At_upper
                       else Free_nb);
      st.x.(j) <-
        (if st.lb.(j) > neg_infinity then st.lb.(j)
         else if st.ub.(j) < infinity then st.ub.(j)
         else 0.0)
    end
  done;
  factorize st

(* The dual phase's kept reduced costs: d_j = c_j - y.A_j for every
   nonbasic column from one fresh BTRAN of the basic costs, and 0 for
   the basics. Run before the dual phase starts and after each of its
   refactorizations; in between, every dual pivot updates d from its
   pivot row. *)
let refresh_reduced_costs st =
  load_phase_costs st ~phase1:false;
  lu_btran st;
  for j = 0 to st.nn - 1 do
    if st.in_row.(j) >= 0 then st.d.(j) <- 0.0 else price st ~phase1:false j
  done;
  st.dj_refreshes <- st.dj_refreshes + 1

(* Park every nonbasic variable on the bound its reduced cost wants:
   a boxed variable is always dual feasible this way; a one-sided or
   free variable can only sit where its bounds allow, so a wrong-signed
   reduced cost there breaks dual feasibility. Returns whether the
   basis is dual feasible (so the dual simplex may run). Leaves the
   reduced costs in [st.d]. *)
let prepare_warm_nonbasics st =
  refresh_reduced_costs st;
  let dual_ok = ref true in
  for j = 0 to st.nn - 1 do
    if st.in_row.(j) < 0 then begin
      let l = st.lb.(j) and u = st.ub.(j) in
      let d = st.d.(j) in
      if l > neg_infinity && u < infinity then
        if d >= 0.0 then begin
          st.vstat.(j) <- At_lower;
          st.x.(j) <- l
        end
        else begin
          st.vstat.(j) <- At_upper;
          st.x.(j) <- u
        end
      else if l > neg_infinity then begin
        st.vstat.(j) <- At_lower;
        st.x.(j) <- l;
        if d < -.dj_tol then dual_ok := false
      end
      else if u < infinity then begin
        st.vstat.(j) <- At_upper;
        st.x.(j) <- u;
        if d > dj_tol then dual_ok := false
      end
      else begin
        st.vstat.(j) <- Free_nb;
        st.x.(j) <- 0.0;
        if abs_float d > dj_tol then dual_ok := false
      end
    end
  done;
  recompute_basics st;
  !dual_ok

(* prow := rho.A over the structural columns, accumulated row by row
   over rho's pattern. The slack entries of the pivot row are rho's
   own values: the slack of row i is the unit column e_i. *)
let pivot_row st =
  let prow = st.prow in
  Sparse_vec.clear prow;
  let pv = Sparse_vec.raw prow in
  let rhov = Sparse_vec.raw st.rho and pat = Sparse_vec.pattern st.rho in
  for k = 0 to Sparse_vec.nnz st.rho - 1 do
    let i = pat.(k) in
    let x = rhov.(i) in
    if x <> 0.0 then begin
      let row = st.p.rows.(i) in
      for e = 0 to Array.length row.idx - 1 do
        let j = row.idx.(e) in
        if pv.(j) = 0.0 then Sparse_vec.touch prow j;
        pv.(j) <- pv.(j) +. (x *. row.coefs.(e))
      done
    end
  done

(* Dual simplex phase. Precondition: [st.d] holds the reduced costs of
   a dual feasible basis (every nonbasic reduced cost has its
   optimality sign), as [prepare_warm_nonbasics] leaves them. Each
   iteration picks the most bound-violating basic variable as the
   leaving row r, extracts row r of B^-1 (rho, a sparse BTRAN of a unit
   vector), forms the pivot row rho.A row-wise over rho's nonzeros,
   and enters the column whose reduced-cost ratio |d_j / alpha_rj| is
   smallest among those of the row's pattern that move the violated
   basic toward its bound — the bounded-variable dual ratio test, ties
   broken by the largest pivot magnitude. The pivot then updates the
   kept reduced costs from the same row: with theta = d_q / alpha_rq,
   d_j -= theta.alpha_rj, d_q = 0 and the leaving variable gets
   -theta. A refactorization re-derives d from a fresh BTRAN, so there
   is one BTRAN for the multipliers per refactorization, not per pivot.

   Returns [`Done] (primal feasible, hence optimal), [`No_pivot] (a
   violated row admits no entering column — the strong hint of primal
   infeasibility, confirmed afterwards by primal phase 1),
   [`Numerical] (row/column pivot disagreement; the primal phases take
   over from the current basis) or [`Iteration_limit]. *)
let run_dual_phase st ~max_iterations =
  let m = st.p.m and n = st.p.n in
  let d = st.d in
  let continue = ref true in
  let result = ref `Done in
  while !continue do
    if st.iters >= max_iterations then begin
      result := `Iteration_limit;
      continue := false
    end
    else if deadline_due st then begin
      result := `Deadline;
      continue := false
    end
    else begin
      if chaos_singular st then raise Singular_basis;
      if st.iters > 0 && need_refactor st then begin
        refactorize st;
        refresh_reduced_costs st
      end;
      let r_best = ref (-1) and viol_best = ref feas_tol in
      for r = 0 to m - 1 do
        let v = violation st st.basic_var.(r) in
        if v > !viol_best then begin
          r_best := r;
          viol_best := v
        end
      done;
      if !r_best = -1 then begin
        result := `Done;
        continue := false
      end
      else begin
        let r = !r_best in
        let v = st.basic_var.(r) in
        let to_upper = st.x.(v) > st.ub.(v) +. feas_tol in
        lu_row st r;
        pivot_row st;
        (* pivot-row entry k is a structural of prow for k < n_row,
           then a slack of rho *)
        let rowv = Sparse_vec.raw st.prow and rowpat = Sparse_vec.pattern st.prow in
        let rhov = Sparse_vec.raw st.rho and rhopat = Sparse_vec.pattern st.rho in
        let n_row = Sparse_vec.nnz st.prow in
        let n_entries = n_row + Sparse_vec.nnz st.rho in
        st.row_entries <- st.row_entries + n_entries;
        let best = ref (-1) in
        let best_ratio = ref infinity in
        let best_piv = ref 0.0 in
        for k = 0 to n_entries - 1 do
          let j = if k < n_row then rowpat.(k) else n + rhopat.(k - n_row) in
          match st.vstat.(j) with
          | Basic -> ()
          | (At_lower | At_upper | Free_nb) as vs ->
            if vs = Free_nb || st.ub.(j) -. st.lb.(j) > zero_tol then begin
              let a = if j < n then rowv.(j) else rhov.(j - n) in
              if abs_float a > piv_tol then begin
                let eligible =
                  match vs with
                  | At_lower -> if to_upper then a > 0.0 else a < 0.0
                  | At_upper -> if to_upper then a < 0.0 else a > 0.0
                  | Free_nb -> true
                  | Basic -> false
                in
                if eligible then begin
                  let ratio = abs_float (d.(j) /. a) in
                  if
                    ratio < !best_ratio -. 1e-9
                    || (ratio <= !best_ratio +. 1e-9 && abs_float a > !best_piv)
                  then begin
                    best := j;
                    best_ratio := ratio;
                    best_piv := abs_float a
                  end
                end
              end
            end
        done;
        if !best = -1 then begin
          result := `No_pivot;
          continue := false
        end
        else begin
          let q = !best in
          ftran st q;
          let a = (Sparse_vec.raw st.alpha).(r) in
          if abs_float a <= piv_tol then begin
            (* the row view and the freshly ftran'd column disagree:
               the factorization has drifted; let the primal phases
               finish from here rather than pivot on noise *)
            result := `Numerical;
            continue := false
          end
          else begin
            (* the multipliers move by theta.rho *)
            let theta = d.(q) /. (if q < n then rowv.(q) else rhov.(q - n)) in
            for k = 0 to n_entries - 1 do
              let j = if k < n_row then rowpat.(k) else n + rhopat.(k - n_row) in
              if st.vstat.(j) <> Basic then
                d.(j) <- d.(j) -. (theta *. if j < n then rowv.(j) else rhov.(j - n))
            done;
            let bound = if to_upper then st.ub.(v) else st.lb.(v) in
            let t = (st.x.(v) -. bound) /. a in
            let dir = if t >= 0.0 then 1.0 else -1.0 in
            apply_step st q dir (abs_float t)
              (Leave (r, if to_upper then `Upper else `Lower));
            d.(q) <- 0.0;
            d.(v) <- -.theta;
            st.iters <- st.iters + 1
          end
        end
      end
    end
  done;
  !result

let default_iterations p = 20_000 + (60 * (p.n + p.m))

let solve ?max_iterations ?lower ?upper ?basis ?(deadline = Deadline.none) p =
  let max_iterations =
    match max_iterations with Some k -> k | None -> default_iterations p
  in
  let n = p.n and m = p.m in
  let nn = n + m in
  let lb = Array.make nn 0.0 and ub = Array.make nn 0.0 in
  for j = 0 to n - 1 do
    lb.(j) <- (match lower with Some l -> l.(j) | None -> p.base_lb.(j));
    ub.(j) <- (match upper with Some u -> u.(j) | None -> p.base_ub.(j))
  done;
  for r = 0 to m - 1 do
    lb.(n + r) <- p.slack_lb.(r);
    ub.(n + r) <- p.slack_ub.(r)
  done;
  let bounds_ok = ref true in
  for j = 0 to nn - 1 do
    if lb.(j) > ub.(j) +. 1e-12 then bounds_ok := false
  done;
  let empty_solution status =
    {
      status;
      objective = nan;
      primal = Array.make n 0.0;
      duals = Array.make m 0.0;
      reduced_costs = Array.make n 0.0;
      iterations = 0;
      dual_iterations = 0;
      basis = Array.init m (fun r -> n + r);
    }
  in
  if not !bounds_ok then empty_solution Infeasible
  else begin
    let st =
      {
        p;
        nn;
        lb;
        ub;
        x = Array.make nn 0.0;
        vstat = Array.make nn At_lower;
        basic_var = Array.init (max m 1) (fun r -> n + r);
        in_row = Array.make nn (-1);
        fact = None;
        alpha = Sparse_vec.create m;
        y = Sparse_vec.create m;
        work = Sparse_vec.create m;
        rho = Sparse_vec.create m;
        prow = Sparse_vec.create n;
        d = Array.make nn 0.0;
        deadline;
        row_entries = 0;
        dj_refreshes = 0;
        iters = 0;
        degenerate_run = 0;
        bland = false;
        refactor_override = None;
      }
    in
    (* (re)start from the all-slack basis; used both for the initial
       start and to recover from a numerically singular basis *)
    let reset_to_slack_basis () =
      for j = 0 to nn - 1 do
        st.in_row.(j) <- -1
      done;
      for r = 0 to m - 1 do
        st.basic_var.(r) <- n + r;
        st.in_row.(n + r) <- r
      done;
      for j = 0 to n - 1 do
        let l = lb.(j) and u = ub.(j) in
        if l > neg_infinity && u < infinity then
          if abs_float l <= abs_float u then begin
            st.vstat.(j) <- At_lower;
            st.x.(j) <- l
          end
          else begin
            st.vstat.(j) <- At_upper;
            st.x.(j) <- u
          end
        else if l > neg_infinity then begin
          st.vstat.(j) <- At_lower;
          st.x.(j) <- l
        end
        else if u < infinity then begin
          st.vstat.(j) <- At_upper;
          st.x.(j) <- u
        end
        else begin
          st.vstat.(j) <- Free_nb;
          st.x.(j) <- 0.0
        end
      done;
      for r = 0 to m - 1 do
        st.vstat.(n + r) <- Basic
      done;
      (* factorizing the slack identity is trivial and cannot be
         singular; it also recomputes the basics *)
      if m > 0 then refactorize st else recompute_basics st
    in
    (* Warm start: install the caller's basis and decide whether the
       dual simplex may run. Any failure (wrong shape, singular
       columns) falls back to the cold slack basis, which is only
       built when no warm basis is installed. *)
    let warm_dual = ref false in
    let warm_installed =
      match basis with
      | Some bas when m > 0 && basis_well_formed st bas -> (
        match install_basis st bas with
        | () ->
          warm_dual := prepare_warm_nonbasics st;
          true
        | exception Singular_basis -> false)
      | _ -> false
    in
    if warm_installed then begin
      Metrics.incr (Lazy.force m_warm_starts);
      if not !warm_dual then begin
        let sink = Trace.current () in
        if Trace.enabled sink then
          Trace.emit sink
            (Event.Warm_start
               { dual_feasible = false; iterations = 0; kernel = kernel_name;
                 outcome = "primal_fallback" })
      end
    end
    else reset_to_slack_basis ();
    let dual_iters = ref 0 in
    let finish status =
      (* multipliers for the true objective at the final basis *)
      load_phase_costs st ~phase1:false;
      lu_btran st;
      Option.iter
        (fun f ->
          Metrics.observe (Lazy.force m_eta_len)
            (float_of_int (Lu.eta_count f)))
        st.fact;
      let yv = Sparse_vec.raw st.y in
      let primal = Array.sub st.x 0 n in
      let obj_min =
        let acc = ref 0.0 in
        for j = 0 to n - 1 do
          acc := !acc +. (p.cost.(j) *. primal.(j))
        done;
        !acc
      in
      let sign = if p.maximize then -1.0 else 1.0 in
      let duals = Array.init m (fun r -> sign *. yv.(r)) in
      let reduced_costs =
        Array.init n (fun j ->
            price st ~phase1:false j;
            st.d.(j))
      in
      {
        status;
        objective = sign *. obj_min;
        primal;
        duals;
        reduced_costs;
        iterations = st.iters;
        dual_iterations = !dual_iters;
        basis = Array.sub st.basic_var 0 m;
      }
    in
    let sink = Trace.current () in
    let phase_done phase iterations result =
      if Trace.enabled sink then begin
        let w = Monpos_obs.Sampler.decide Monpos_obs.Sampler.Simplex_phase in
        if w > 0 then
          let outcome =
            match result with
            | `Done -> if phase = 1 then "feasible" else "optimal"
            | `Infeasible -> "infeasible"
            | `Unbounded -> "unbounded"
            | `Iteration_limit -> "iteration_limit"
            | `Deadline -> "deadline"
          in
          Trace.emit sink
            (Event.Simplex_phase { phase; iterations; outcome; sampled_of = w })
      end
    in
    let run () =
      (* dual phase first when the warm basis allows it; the primal
         phases below then confirm (usually in zero pivots) whatever it
         reached, so a cold and a warm solve share one status
         authority *)
      if !warm_dual then begin
        warm_dual := false;
        let it0 = st.iters in
        let outcome = run_dual_phase st ~max_iterations in
        let pivots = st.iters - it0 in
        dual_iters := !dual_iters + pivots;
        Metrics.add (Lazy.force m_dual_iterations) pivots;
        if Trace.enabled sink then
          let outcome =
            match outcome with
            | `Done -> "reoptimal"
            | `No_pivot -> "infeasible_guess"
            | `Numerical -> "primal_fallback"
            | `Iteration_limit -> "iteration_limit"
            | `Deadline -> "deadline"
          in
          Trace.emit sink
            (Event.Warm_start
               { dual_feasible = true; iterations = pivots; kernel = kernel_name;
                 outcome })
      end;
      let r1 =
        if total_infeasibility st > feas_tol then begin
          let r = run_phase st ~phase1:true ~max_iterations in
          phase_done 1 st.iters r;
          r
        end
        else `Done
      in
      let phase1_iters = st.iters in
      match r1 with
      | `Infeasible -> finish Infeasible
      | `Deadline -> finish Deadline_reached
      | `Unbounded ->
        (* phase 1 cannot be unbounded: its objective is bounded below
           by zero, and every improving direction hits an infeasible
           basic's violated bound. *)
        assert false
      | `Iteration_limit -> finish Iteration_limit
      | `Done -> (
        st.bland <- false;
        st.degenerate_run <- 0;
        let r2 = run_phase st ~phase1:false ~max_iterations in
        phase_done 2 (st.iters - phase1_iters) r2;
        match r2 with
        | `Done -> finish Optimal
        | `Unbounded -> finish Unbounded
        | `Infeasible -> finish Infeasible
        | `Iteration_limit -> finish Iteration_limit
        | `Deadline -> finish Deadline_reached)
    in
    (* numerical recovery: a singular basis (accumulated factorization
       drift or a degenerate pivot sequence) restarts from the slack
       basis under Bland's rule with more frequent refactorization; a
       second failure gives up with Iteration_limit *)
    let sol =
      match run () with
      | sol -> sol
      | exception Singular_basis ->
        st.bland <- true;
        st.degenerate_run <- 0;
        st.refactor_override <- Some 64;
        (* the restart must not itself be sabotaged by an injected
           fault, so chaos is suppressed for its whole duration *)
        Chaos.suppress (fun () ->
            reset_to_slack_basis ();
            match run () with
            | sol ->
              Metrics.incr (Lazy.force m_recoveries);
              if Trace.enabled sink then
                Trace.emit sink
                  (Event.Recovery
                     { stage = "simplex";
                       detail = "singular basis: cold restart under Bland's rule" });
              sol
            | exception Singular_basis -> finish Iteration_limit)
    in
    Metrics.incr (Lazy.force m_solves);
    Metrics.add (Lazy.force m_row_entries) st.row_entries;
    Metrics.add (Lazy.force m_dj_refreshes) st.dj_refreshes;
    Metrics.add (Lazy.force m_primal_iterations)
      (sol.iterations - sol.dual_iterations);
    sol
  end

let solve_model ?max_iterations ?deadline m =
  solve ?max_iterations ?deadline (of_model m)
