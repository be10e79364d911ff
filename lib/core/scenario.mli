(** Seeded experiment drivers reproducing the paper's evaluation.

    Each driver regenerates one figure's data: topology generation,
    traffic matrices, all competing algorithms, averaged over seeds
    ("all the results are an average over 20 simulations", §4.4).
    The bench harness ([bench/main.exe]) prints these as tables; the
    examples exercise them on single seeds. *)

type preset = [ `Pop10 | `Pop15 | `Pop29 | `Pop80 ]

type passive_point = {
  k_percent : int;  (** x-axis: percentage of traffic to monitor *)
  greedy_devices : float;  (** mean adaptive-greedy device count *)
  greedy_static_devices : float;
      (** mean device count of the load-order greedy (the paper's
          plotted baseline; see {!Passive.greedy_static}) *)
  ilp_devices : float;  (** mean optimal (ILP) device count *)
  ilp_optimal : bool;  (** every ILP run proved optimality *)
}

val passive_sweep :
  ?preset:preset ->
  ?seeds:int list ->
  ?ks:int list ->
  ?endpoint_limit:int ->
  ?node_limit:int ->
  unit ->
  passive_point list
(** Figures 7 and 8: device counts vs coverage percentage.
    Defaults: [`Pop10], seeds 1..20, ks 75..100 step 5. The optimum is
    computed by {!Passive.solve_exact} (same value as the paper's
    CPLEX runs of Linear program 2 — see DESIGN.md §5).
    [endpoint_limit] subsamples traffic endpoints to bound the size of
    the biggest instances; [node_limit] caps the exact solver's branch
    and bound per instance (the full-coverage point of the 15-router
    POP is CPLEX-hard — unproven points are flagged through
    [ilp_optimal]). *)

type active_point = {
  vb_size : int;  (** x-axis: number of selectable beacons, |V_B| *)
  thiran_beacons : float;  (** mean beacons placed by [15]'s algorithm *)
  greedy_beacons : float;  (** mean beacons placed by the paper's greedy *)
  ilp_beacons : float;  (** mean beacons placed by the paper's ILP *)
  ilp_optimal : bool;  (** every ILP placement proved minimum *)
  probes : float;  (** mean size of the optimal probe set *)
}

val active_sweep :
  ?preset:preset -> ?seeds:int list -> ?sizes:int list -> unit -> active_point list
(** Figures 9, 10, 11: beacons placed vs number of selectable beacons.
    Defaults: [`Pop15], seeds 1..20, sizes 1..n. Candidate sets are
    random router subsets, drawn per seed. *)

type dynamic_point = {
  step : int;
  coverage_before : float;
  coverage_after : float;
  reoptimizations : int;  (** cumulative count *)
}

val dynamic_run :
  ?preset:preset ->
  ?seed:int ->
  ?k:float ->
  ?threshold:float ->
  ?steps:int ->
  ?sigma:float ->
  ?kernel:Sampling.kernel ->
  ?jobs:int ->
  unit ->
  dynamic_point list
(** §5.4's threshold loop on a drifting matrix: placement from
    {!Sampling.solve_milp}, then [steps] drift steps with PPME*
    re-optimizations whenever coverage sinks below [threshold].
    Defaults: [`Pop10], seed 1, k = 0.9, threshold = 0.85, 30 steps,
    sigma = 0.15, and {!Sampling.run_dynamic}'s default LP kernel
    (pass [kernel] to re-optimize through the flow engine instead).
    [jobs] sets the worker-domain count for the initial placement
    MILP; the drift loop itself is LP/flow-based and unaffected. *)

type agreement = {
  instances : int;  (** instances checked *)
  disagreements : int;  (** how many had solvers disagree on the optimum *)
  methods : string list;  (** method names compared *)
}

val solver_agreement :
  ?seeds:int list -> ?k:float -> ?endpoint_limit:int -> unit -> agreement
(** Cross-validation harness: on Pop10 instances, check that
    [mip-lp1], [mip-lp2], [mecf-mip] and [exact] all report the same
    minimum device count (Theorems 1 and 2 made executable). Used by
    the ablation bench and the test suite. *)
