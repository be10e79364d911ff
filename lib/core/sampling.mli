(** Passive monitoring with packet sampling — PPME(h,k), §5.

    Devices now carry a sampling ratio [r_e ∈ [0,1]]: installing a tap
    on link [e] costs [costi e] once, and operating it at ratio [r_e]
    costs [coste e · r_e]. A traffic may be multi-routed; the fraction
    of a path [p] that is monitored, [δ_p], is bounded by the sum of
    the sampling ratios along the path (the "cascade" model of §5.2's
    packet-marking discussion: successive monitors accumulate
    coverage). Each demand [t] must be monitored at ratio at least
    [h_t], and the whole POP at ratio at least [k].

    - {!solve_milp} is the paper's Linear program 3 — a MILP (the
      model of Suh et al. was non-linear; the paper's point is that
      this one is linear);
    - {!reoptimize} is PPME*(x,h,k): device positions fixed, binaries
      gone, a polynomial LP used to re-tune sampling rates;
    - {!run_dynamic} is the §5.4 threshold strategy: watch coverage
      decay under traffic drift and re-run PPME* whenever it crosses
      the tolerance [T]. *)

type costs = {
  install : Monpos_graph.Graph.edge -> float;  (** [costi(e)] *)
  exploit : Monpos_graph.Graph.edge -> float;
      (** [coste(e)]: cost of running the device at ratio 1; the
          exploitation cost is [coste(e) · r_e] *)
}

val uniform_costs : ?install:float -> ?exploit:float -> unit -> costs
(** Constant cost functions (defaults 10. and 1.). *)

val load_scaled_costs : Instance.t -> ?install:float -> unit -> costs
(** Installation cost constant; exploitation cost proportional to the
    link load (a device sampling a fat OC-192 pipe costs more to run),
    normalized so the heaviest link costs 1. *)

type problem = {
  instance : Instance.t;
  k : float;  (** global minimum monitored fraction *)
  h : float array;
      (** per-demand minimum monitored fraction, indexed by demand;
          [h_t <= k] as noted in §5 *)
  costs : costs;
}

val make_problem :
  ?k:float -> ?h:float array -> ?costs:costs -> Instance.t -> problem
(** Defaults: [k = 0.9], [h] all zero, uniform costs. Raises
    [Invalid_argument] if [h] has the wrong length or some
    [h_t > k]. *)

type solution = {
  installed : Monpos_graph.Graph.edge list;  (** links with a device *)
  rates : float array;  (** [r_e] per edge id (0 where no device) *)
  path_fractions : float array;  (** [δ_p] per flattened traffic *)
  install_cost : float;
  exploit_cost : float;
  total_cost : float;
  fraction : float;  (** achieved global monitored fraction *)
  optimal : bool;
}

val default_milp_options : Monpos_lp.Mip.options
(** The options {!solve_milp} uses when none are passed: a 1% relative
    gap under a short time budget (LP3's relaxation is weak). Exposed
    so callers can adjust one field — e.g. turn warm starts off for a
    benchmark — without re-deriving the tuned gap/time values. *)

val solve_milp : ?options:Monpos_lp.Mip.options -> problem -> solution
(** Linear program 3: joint placement and rate assignment minimizing
    install + exploitation cost. By default the branch and bound runs
    to a 1% relative gap under a 6-second budget (LP3's relaxation is
    weak, so closing the last gap fraction is disproportionately
    expensive); [solution.optimal] means "proved within the configured
    gap". Pass explicit [options] for exact proofs. Raises
    {!Monpos_lp.Mip.solve_or_fail}'s typed error when the solver stops
    without an incumbent. *)

val reoptimize : problem -> installed:Monpos_graph.Graph.edge list -> solution
(** PPME*(x,h,k): [installed] fixed, find the cheapest rates meeting
    the [h]/[k] constraints — a pure LP, solved in polynomial time.
    Raises [Monpos_resilience.Error.Error (Infeasible_model _)] when
    the installed set cannot reach the targets, and [Numerical] when
    the LP is not solved. *)

val reoptimize_flow :
  ?algo:Monpos_flow.Mincost.algo ->
  problem ->
  installed:Monpos_graph.Graph.edge list ->
  solution
(** The min-cost-flow expression of PPME* promised by §5.4 ("it is
    worthy to note that this problem can be expressed as a minimum
    cost flow problem for which efficient polynomial time algorithms
    are available without the need of linear programming anymore"):
    the MECF-shaped network routes monitored volume from a source
    through installed-device nodes to per-path and per-demand nodes,
    with per-demand lower bounds [h_t·V_t] and a global requirement
    [k·V]; arc costs are [coste(e)/load(e)] per unit so the flow cost
    equals the exploitation cost. Rates are read back as
    [r_e = flow(e)/load(e)].

    Semantics note: the flow model lets a device sample each crossing
    path at its own effective ratio (vs. LP3's single ratio per device
    accumulated along the path), so its optimal exploitation cost is a
    lower bound on {!reoptimize}'s; both meet the same coverage floors.
    Raises [Monpos_resilience.Error.Error (Infeasible_model _)] when
    the installed set cannot reach the targets.

    [algo] picks the min-cost-flow kernel (default
    {!Monpos_flow.Mincost.Ssp}); both kernels return the same rates up
    to degenerate ties, so use a cost model with distinct per-edge
    exploitation costs when exact rate equality matters. *)

type reopt
(** A persistent PPME* flow re-optimizer: the network is built once
    per (topology, routes, installed set) and later drift ticks only
    rewrite arc bounds/costs/supplies in place. With the
    {!Monpos_flow.Mincost.Net_simplex} kernel every re-solve warm
    starts from the previous spanning-tree basis, which is what makes
    the §5.4 control loop cheap relative to re-running the LP. *)

val reopt_create :
  ?algo:Monpos_flow.Mincost.algo ->
  problem ->
  installed:Monpos_graph.Graph.edge list ->
  reopt
(** Build the flow network for [problem] (default [algo] is
    [Net_simplex] — warm starting is the point of keeping the handle
    around). No solve happens yet. *)

val reopt_solve : reopt -> problem -> solution
(** Re-solve against a (possibly drifted) [problem] sharing the
    original's topology and routes: arc capacities, costs, per-demand
    lower bounds and supplies are refreshed in place, then the kernel
    re-solves — warm under [Net_simplex]. If the traffic or demand
    count changed, the network is silently rebuilt (cold). Raises
    [Monpos_resilience.Error.Error (Infeasible_model _)] when the
    drifted targets are unreachable. *)

val reopt_check_tree : reopt -> (unit, string) result
(** Test hook: {!Monpos_flow.Mincost.check_tree} on the persistent
    network. *)

type kernel =
  | Lp  (** the {!reoptimize} LP — the historical default *)
  | Flow of Monpos_flow.Mincost.algo
      (** the min-cost-flow formulation under the chosen kernel;
          [Flow Net_simplex] additionally warm starts across
          {!run_dynamic} ticks *)
(** Which PPME* engine {!run_dynamic} re-optimizes with. *)

val saturated : problem -> installed:Monpos_graph.Graph.edge list -> solution
(** Every installed device at rate 1.0 — the degradation ladder's
    terminal PPME rung. Pure arithmetic (no LP), so it cannot fail;
    [optimal] is [false] and the achieved [fraction] may fall short of
    [problem.k] when the placement simply cannot reach it. *)

val coverage_with_rates : problem -> rates:float array -> float
(** Achieved global fraction [Σ_p min(1, Σ_{e∈p} r_e)·v_p / V] for
    fixed rates — what the operator observes between
    re-optimizations. *)

type tick = {
  step : int;  (** drift step index, starting at 1 *)
  fraction_before : float;  (** coverage when the step's drift lands *)
  reoptimized : bool;  (** whether the threshold fired *)
  fraction_after : float;  (** coverage at the end of the step *)
  exploit_cost : float;  (** exploitation cost being paid after the step *)
  stale : bool;
      (** the threshold fired but the re-solve failed, so the loop is
          still serving the previous step's rates (staleness warning) *)
}

val run_dynamic :
  ?kernel:kernel ->
  problem ->
  installed:Monpos_graph.Graph.edge list ->
  threshold:float ->
  steps:int ->
  sigma:float ->
  seed:int ->
  tick list
(** §5.4's control loop: at each step the matrix drifts
    (multiplicative noise of scale [sigma]); when the observed
    fraction falls below [threshold] ([T < k]), sampling rates are
    recomputed on the drifted instance by the selected [kernel]
    (default {!Lp}, i.e. {!reoptimize}; [Flow Net_simplex] re-solves a
    single persistent flow network with warm starts). If even rate 1.0
    everywhere cannot reach [k] after a drift, rates saturate and the
    tick records the achieved fraction.

    The loop never crashes on a failed re-solve: a numerical or
    deadline failure keeps the previous step's rates in service and
    marks the tick {!tick.stale} (incrementing the
    [resilience.stale_ticks] counter and emitting a [ladder_descent]
    trace event); an infeasible drifted instance saturates every
    installed device, which is exact rather than stale. *)

val pp : Format.formatter -> solution -> unit
(** "n devices, cov 91%, cost 34.5 = 30 + 4.5". *)
