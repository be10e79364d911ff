(** Nested wall-clock span timers with GC accounting.

    A span times a region of code against {!Clock}, emits
    [span_open]/[span_close] trace events on the ambient (or given)
    sink, and records into the (default or given) registry: elapsed
    seconds into the [span.seconds] histogram and allocation deltas
    into [alloc.minor_words] / [alloc.major_words] histograms (in
    words), each labeled [span=<name>]. Minor words come from
    [Gc.minor_words], which counts the running domain's allocations
    exactly, to within the span's own bookkeeping. Major and promoted
    words, collections and the top heap come from [Gc.quick_stat],
    whose counts move only at collections: a span is charged the
    major and promoted words of the collections that ran inside it,
    which need not be its own. The close event carries the full
    {!Trace.gc_delta}. Spans nest: the emitted events
    carry the nesting depth, and an enclosing span's elapsed time and
    allocation always dominate its children's.

    When adaptive head-sampling is armed ({!Sampler.configure}), hot
    span names shed most of their trace events: a span kept at stride
    [w] closes with [sampled_of = w], and a dropped span suppresses
    both its open and close (metrics observations stay exact either
    way). *)

val time :
  ?metrics:Metrics.t -> ?sink:Trace.sink -> string -> (unit -> 'a) -> 'a * float
(** [time name f] runs [f] inside a span and returns its result with
    the elapsed wall-clock seconds. The close event and histogram
    observations happen even when [f] raises. *)

val run : ?metrics:Metrics.t -> ?sink:Trace.sink -> string -> (unit -> 'a) -> 'a
(** {!time} without the elapsed seconds. *)

val live_stacks : unit -> (int * string list) list
(** A point-in-time snapshot of every domain's open span stack,
    outermost first, as [(domain_id, names)]; domains with no open
    span are omitted. Reads other domains' stacks without
    synchronization — a sample racing a push/pop may be one frame
    stale, which is acceptable noise for the wall-clock profiling
    ticker this feeds. *)
