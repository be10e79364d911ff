(** Cross-run trace diffing.

    Joins two decoded traces by span name and solver, then compares
    per-span wall time ([span.<name>.seconds]), call counts
    ([span.<name>.calls]) and allocation ([span.<name>.alloc_words])
    from {!Profile}, and per-solver branch-and-bound nodes
    ([solver.<s>.nodes]) and total simplex pivots ([simplex.pivots])
    from {!Converge}, so head-sampled traces count their weights. Each
    pair is judged by {!Bench_check.violation}: wall times tolerate
    +50% (+0.1s slack), allocation tolerates +10% (+16k words), counts
    tolerate ±1%, and a metric present in run A but missing from run B
    regresses. When either trace carries a [run_info] with a chaos
    seed, violations are reported but tolerated (do not gate), the
    bench gate's convention for fault-injected runs. *)

type row = {
  key : string;
  a : float;
  b : float option;  (** [None]: disappeared from run B *)
  limit : string;  (** violated threshold; [""] when within bounds *)
  regressed : bool;
}

type report = {
  rows : row list;
  compared : int;
  regressions : int;  (** gating count — 0 when tolerated under chaos *)
  tolerated : int;
  notes : string list;  (** run manifests, truncation, B-only metrics *)
}

val of_traces : a:Trace_reader.read -> b:Trace_reader.read -> report

val render : report -> string
(** Run manifests, a verdict-per-row table ([OK] / [!!]) and a
    summary line matching the bench gate's phrasing. *)
