(** Deadline-aware graceful-degradation ladders.

    The fault-tolerance contract for the paper's three placement
    problems: a solve always returns {e some} feasible placement, and
    the result records which rung of the quality ladder produced it
    and why the ladder descended. The rungs, best first:

    - PPM (§4): {!Passive.solve_mip} to proven optimality → the MIP's
      best incumbent with a certified gap (LP-relaxation lower bound)
      → {!Passive.randomized_rounding} → {!Passive.greedy}, which
      carries Theorem 1's [ln|D| − ln ln|D| + o(1)] guarantee;
    - PPME (§5): {!Sampling.solve_milp} → greedy-chosen devices with
      LP-tuned rates ({!Sampling.reoptimize}) → the same devices
      saturated at rate 1.0 ({!Sampling.saturated});
    - beacons (§6): {!Active.place_ilp} → {!Active.place_greedy} →
      {!Active.place_thiran}.

    A rung is abandoned on a typed {!Monpos_resilience.Error.Error} —
    deadline, numerical trouble, an injected chaos fault — except
    [Infeasible_model], which propagates from any rung: an unreachable
    coverage target is not repaired by degrading. Every descent
    increments the [resilience.fallbacks] counter and emits a
    [ladder_descent] trace event; a rung answering after a descent
    increments [resilience.recoveries] and emits a [recovery] event,
    so `monitorctl analyze` shows exactly how a degraded run unfolded.

    Rungs execute inside {!Monpos_resilience.Chaos.protect}, arming
    scoped fault-injection sites; the terminal rung runs under
    {!Monpos_resilience.Chaos.suppress} because it is the guaranteed
    answer. *)

type descent = {
  from_rung : string;  (** rung that failed *)
  to_rung : string;  (** rung tried next *)
  reason : string;  (** rendered typed error that caused the descent *)
}

type 'a outcome = {
  value : 'a;  (** the placement the answering rung produced *)
  rung : string;
      (** who answered: ["mip_optimal"], ["mip_incumbent"],
          ["lp_rounding"], ["greedy"], ["milp"], ["milp_incumbent"],
          ["reoptimize"], ["saturate"], ["ilp"], ["ilp_incumbent"],
          ["thiran"] *)
  bound : float;
      (** certified bound on the optimum ([nan] when none is
          available): the LP-relaxation lower bound on the device
          count for PPM, the proven objective for optimal rungs *)
  gap : float;
      (** relative gap between [value] and [bound]; [0.] on optimal
          rungs, [nan] when no bound is available *)
  descents : descent list;  (** in descent order; [[]] = first rung *)
}

val degraded : 'a outcome -> bool
(** The answer is anything short of the top rung's proven optimum:
    the ladder descended at least once, the answering rung left a
    positive gap, or a [*_incumbent] rung answered — the CLI maps
    this to exit code 3. *)

val solve_ppm :
  ?k:float ->
  ?formulation:[ `Lp1 | `Lp2 ] ->
  ?options:Monpos_lp.Mip.options ->
  Instance.t ->
  Passive.solution outcome
(** PPM(k) through the ladder (default [k = 1.]). [formulation] and
    [options] shape the MIP rung; the [time_limit] is a real
    wall-clock bound (polled inside node LPs), so a tiny budget
    descends the ladder instead of hanging. Raises only
    [Infeasible_model] (target unreachable). *)

val solve_ppme :
  ?options:Monpos_lp.Mip.options ->
  Sampling.problem ->
  Sampling.solution outcome
(** PPME(h,k) through the ladder. The degraded rungs choose devices
    with the greedy cover, then price rates by LP ([reoptimize]) or
    saturate them ([saturate] — always feasible to compute, though the
    achieved fraction may fall short of [k] when the placement cannot
    reach it). *)

val place_beacons :
  Active.probe list ->
  candidates:Monpos_graph.Graph.node list ->
  Active.placement outcome
(** §6 beacon placement through the ladder. The top rung is
    {!Active.place_ilp} under its default node budget; it answers as
    ["ilp_incumbent"] when the budget runs out before a proof. *)

val pp_outcome : Format.formatter -> 'a outcome -> unit
(** "rung mip_incumbent, gap 4.2%, bound 11" plus one line per
    descent. *)
