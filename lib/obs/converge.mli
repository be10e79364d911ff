(** Branch-and-bound convergence analysis over a trace.

    Rebuilds each solver's search trajectory from its [bb_node],
    [incumbent] and [bound_pruned] events: incumbent/bound pairs over
    time, the relative gap between them, prune counts, plus the
    warm-start outcome breakdown and simplex phase totals interleaved
    with that solver's nodes. Events that carry no solver field
    ([warm_start], [simplex_phase]) are attributed to the solver of
    the most recent [bb_node], matching how the writers interleave
    them. *)

type point = {
  ts : float;
  node : int;
  incumbent : float option;
  bound : float option;
  gap : float option;
      (** [|incumbent - bound| / max 1e-9 |incumbent|] when both are
          known and finite *)
}

type solver = {
  solver : string;
  nodes : int;  (** [bb_node] events seen *)
  max_depth : int;
  prunes : int;  (** [bound_pruned] events seen *)
  incumbents : (float * int * float) list;  (** (ts, node, objective) *)
  final_incumbent : float option;
  final_bound : float option;
  final_gap : float option;
  trajectory : point list;
      (** one point per incumbent improvement or prune, in order *)
  warm_starts : (string * int) list;  (** outcome -> count *)
  warm_dual_pivots : int;
  simplex_phases : (int * int * int) list;
      (** (phase, solves, total iterations) *)
  first_ts : float;
  last_ts : float;
}

type resilience = {
  descents : (float * string * string * string * string) list;
      (** (ts, solver, from_rung, to_rung, reason) [ladder_descent]
          events, in trace order *)
  recoveries : (float * string * string) list;
      (** (ts, stage, detail) [recovery] events *)
  deadline_hits : (float * string * float * float option) list;
      (** (ts, phase, elapsed, budget) [deadline_hit] events *)
  chaos_injections : (string * int) list;
      (** per-site [chaos_inject] counts, first-seen order *)
}
(** The resilience story of a run: which wall-clock budgets expired,
    where the degradation ladder descended and recovered, and which
    chaos sites fired. Aggregated globally (these events are not tied
    to a branch-and-bound solver). *)

type t = {
  solvers : solver list;
  events : int;
  pivots : int;
      (** simplex pivots over the whole trace, attributed to a solver
          or not: [simplex_phase] iterations weighted by [sampled_of],
          plus warm-start dual pivots *)
  resilience : resilience;
}

val of_records : Trace_reader.record list -> t

(** {1 Running fold}

    {!of_records} is {!add} over the records, then {!result}. A live
    consumer (the [--progress] reporter) keeps one accumulator and
    reads {!current} as events arrive. An accumulator is not
    thread-safe. *)

type acc

val create : unit -> acc

val add : acc -> Trace_reader.record -> unit

val current : acc -> solver option
(** The solver of the most recent [bb_node], [incumbent] or
    [bound_pruned] event, as reconstructed so far. *)

val result : acc -> t

val render : t -> string

val to_json : t -> Json.t
