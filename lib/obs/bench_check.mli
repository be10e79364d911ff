(** Regression gate comparing two bench reports (schema
    [monpos-bench/1], as written by [bench/main.ml]).

    Every numeric headline of every baseline phase that the current
    run also executed is compared under a per-metric-class relative
    threshold: time-like keys tolerate +50% (plus 0.1s absolute
    slack), speedup/pivot-ratio keys tolerate a 50% drop, and all
    other numbers (device counts, coverage, pivot/node counters —
    deterministic under fixed seeds) tolerate ±1%. A metric present in
    the baseline but missing from the current run is a finding;
    baseline phases the current run skipped are only noted. *)

type finding = {
  phase : string;
  key : string;  (** ["seconds"], ["extras.<k>"] or ["metrics.<k>"] *)
  baseline : float;
  current : float option;  (** [None]: the metric disappeared *)
  limit : string;  (** human-readable threshold that was violated *)
}

type report = {
  compared : int;  (** metric pairs examined *)
  findings : finding list;
      (** gating threshold violations, in phase order *)
  tolerated : finding list;
      (** threshold violations in a run made under [MONPOS_CHAOS]:
          injected faults and degraded-rung outcomes legitimately
          shift timings and solution-quality numbers, so these are
          reported but do not gate *)
  chaos_seed : int option;
      (** the current report's ["chaos_seed"] field, when the run was
          chaotic *)
  missing_phases : string list;
}

val violation :
  key:string -> baseline:float -> current:float option -> string option
(** The threshold table shared with {!Diff}: [Some limit] names the
    threshold the pair breaks under [key]'s class, [None] when within
    bounds. Time-like keys (containing ["seconds"]) tolerate +50% plus
    0.1s, speedup and pivot-ratio keys a drop to half, allocation keys
    (containing ["alloc_words"]) +10% plus 16k words, scheduler- and
    machine-dependent keys anything, and the rest ±1%. Wall-clock
    timestamp keys (ending in ["_clock"]) are never a finding, present
    or missing. Otherwise a missing [current] is ["missing"], unless
    [baseline] is 0. *)

val compare_reports :
  baseline:Json.t -> current:Json.t -> (report, string) result
(** [Error] on schema problems: missing/unsupported ["schema"],
    mismatched schema versions, or mismatched bench ["mode"] (default
    vs full runs are not comparable). Callers should treat [Error] as
    a hard failure and findings as a gate-able regression. *)

val render : report -> string
