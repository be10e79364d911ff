(** Wall-time profile over a trace's [span_open]/[span_close] events.

    Replays the events against a stack to rebuild the span tree
    (depths from the events disambiguate interleavings and make the
    reconstruction robust to truncated traces), then aggregates by
    call path: each tree node merges every invocation of that span
    name under the same parent chain. Self time is the span's recorded
    seconds minus its completed children's. *)

type node = {
  name : string;
  mutable calls : int;
  mutable total : float;  (** summed seconds from [span_close] events *)
  mutable self : float;  (** [total] minus direct children's totals *)
  mutable alloc_words : float;
      (** words allocated (minor + major - promoted) summed from the
          close events' GC deltas; 0 for traces without GC accounting *)
  mutable children : node list;  (** first-seen order *)
}

type t = {
  roots : node list;
  unmatched : int;
      (** span events that could not be paired (opens left on the
          stack at end of trace, closes with no matching open) —
          nonzero usually means a truncated trace *)
}

val of_records : Trace_reader.record list -> t

val totals : t -> (string * (int * float * float)) list
(** Flat per-name aggregation merging all paths:
    [(name, (calls, total_s, self_s))] in first-seen order. A name's
    [total_s] equals the sum the writer recorded into the
    [span.seconds] histogram labeled with that span for the same
    run. *)

val alloc_totals : t -> (string * float) list
(** Flat per-name allocated words, merging paths like {!totals}. *)

val grand_total : t -> float
(** Summed seconds of the root spans (the traced wall time). *)

val render : t -> string
(** Flamegraph-style indented text tree, children sorted by total
    time, with percentages of {!grand_total} and per-node allocation
    next to wall time. *)

val to_json : t -> Json.t

val folded_of_records : Trace_reader.record list -> (string * int) list
(** Aggregate the wall-clock profiler's [stack_sample] events into
    [(folded_stack, sample_count)] in first-seen order, merged across
    domains. Empty-stack samples are dropped. *)

val render_folded : Trace_reader.record list -> string
(** {!folded_of_records} as the textual folded-stack format
    ["a;b;c 42\n"] consumed by flamegraph.pl / inferno / speedscope. *)
