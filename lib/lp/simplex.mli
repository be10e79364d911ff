(** Two-phase bounded-variable revised primal simplex, with a dual
    simplex phase for warm-started re-solves.

    Solves [min/max c.x] subject to the linear constraints and variable
    bounds of a {!Model.t}, ignoring integrality (the LP relaxation).
    The implementation keeps the constraint matrix as sparse columns
    and factorizes the basis with Markowitz LU ({!Lu}), folding pivots
    in as product-form etas, so FTRAN/BTRAN and the dual phase's row
    extraction run on sparse indexed work vectors in O(nonzeros). The
    basis is refactorized when its eta file outgrows the
    factorization. Variables may sit
    non-basic at either finite bound (or at zero when free), which
    keeps the paper's formulations small — e.g. the [δ_t ∈ [0,1]]
    variables of Linear program 2 consume no rows.

    Warm starts: passing the parent solve's {!solution.basis} back via
    [solve ?basis] after a bound change re-installs that basis, and —
    because reduced costs depend only on the basis, not the bounds —
    it is dual feasible, so the bounded-variable dual simplex
    re-optimizes in a handful of pivots instead of a full cold solve.
    The dual simplex keeps its reduced costs from pivot to pivot,
    updating them from each pivot row (formed row-wise over the
    nonzeros of the row of [B^-1]) and recomputing them only after a
    refactorization; the reported duals and reduced costs always come
    from a fresh solve against the final basis.
    This is how {!Mip} gets branch-and-bound node throughput. The
    final status is always confirmed by the primal phases, so a warm
    solve can never report a different status than a cold one; on a
    singular or ill-shaped basis the solver silently falls back to the
    cold slack start.

    Anti-cycling: after a run of degenerate pivots the pivot rule
    falls back to Bland's rule until progress resumes. *)

type problem
(** A model preprocessed for repeated solves: sparse columns, slack
    layout and right-hand sides. Bound overrides let {!Mip} re-solve
    branch-and-bound nodes without rebuilding the matrix. *)

type status =
  | Optimal  (** proven optimal within tolerances *)
  | Infeasible  (** phase 1 ended with positive infeasibility *)
  | Unbounded  (** an improving ray was found in phase 2 *)
  | Iteration_limit  (** gave up after [max_iterations] pivots *)
  | Deadline_reached
      (** the caller's {!Monpos_resilience.Deadline} expired mid-solve;
          the returned basis and values are a consistent snapshot of
          wherever the pivoting stopped *)

type basis = int array
(** A basis as the basic-variable index per row: structural variables
    are their {!Model.var_index}, the slack of row [r] is
    [num_structural + r]. Compact enough to store at every
    branch-and-bound node. *)

type solution = {
  status : status;
  objective : float;
      (** Objective value in the model's own direction; meaningful only
          when [status = Optimal]. *)
  primal : float array;
      (** Value per structural variable, indexed by
          {!Model.var_index}. *)
  duals : float array;
      (** Simplex multiplier per constraint row. Signs follow the
          minimization form; for a [Maximize] model they are negated so
          that weak duality holds in the model's direction. *)
  reduced_costs : float array;
      (** Reduced cost per structural variable (minimization form). *)
  iterations : int;  (** Total pivots across all phases. *)
  dual_iterations : int;
      (** Pivots spent in the dual simplex phase (0 on cold solves). *)
  basis : basis;
      (** The final basis; feed it back through [solve ?basis] to warm
          start a re-solve after a bound change. *)
}

val of_model : Model.t -> problem
(** Preprocess a model. Later changes to the model's constraints are
    not reflected; bound changes must be passed via [solve]'s
    overrides. *)

val solve :
  ?max_iterations:int ->
  ?lower:float array ->
  ?upper:float array ->
  ?basis:basis ->
  ?deadline:Monpos_resilience.Deadline.t ->
  problem ->
  solution
(** Solve the LP relaxation. [lower]/[upper] (length = number of
    structural variables) override the bounds captured by
    {!of_model}. [basis] warm starts from a previous solve's final
    basis: when it is dual feasible under the current bounds (always
    true for a pure bound change on an optimal basis) the dual simplex
    runs first; otherwise the primal phases start from it. A malformed
    or singular basis degrades to a cold solve — never to a different
    answer. Warm-start bases are installed through the same LU
    factorization as any other basis. [deadline]
    (default: none) is polled every 32 pivots in both the primal and
    dual phases; on expiry the solve stops with {!Deadline_reached}
    instead of running the node LP to completion, which is what makes
    {!Mip.options.time_limit} a real wall-clock bound. Default
    iteration budget scales with the instance size. *)

val solve_model :
  ?max_iterations:int ->
  ?deadline:Monpos_resilience.Deadline.t ->
  Model.t ->
  solution
(** [solve_model m] is [solve (of_model m)]. *)

val num_rows : problem -> int
(** Number of constraint rows. *)

val num_structural : problem -> int
(** Number of structural (model) variables. *)
