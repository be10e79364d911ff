(** Deterministic adaptive head-sampling of high-frequency trace
    events.

    When armed (a positive threshold), each event class — B&B nodes,
    simplex phase reports, flow pivot batches, and each span name —
    passes its first [threshold] events unsampled, then escalates its
    sampling stride by 8x after every [threshold] kept blocks, capped
    at 4096; a raise waits for an ordinal that is a multiple of the
    new stride. {!decide} returns the weight to stamp as the event's
    [sampled_of] field: 0 means drop, [w >= 1] means keep one event on
    behalf of a block of [w] (itself and the [w - 1] dropped events
    after it). Over the first [N] events of a class the weights sum to
    at least [N] and to less than [N] plus the last kept weight, so
    offline analysis rescales exactly; metrics counters are recorded
    outside the sampler and stay exact.

    Decisions are a pure function of the class's per-domain event
    ordinal (state lives in domain-local storage): no randomness, no
    cross-domain contention, and a replayed run samples the same
    events. Disabled (the default, threshold 0) every decide returns 1
    after a single load and branch.

    The initial threshold comes from [MONPOS_TRACE_SAMPLE] when set to
    a positive integer; [--trace-sample] overrides it per run. *)

type cls = Bb_node | Simplex_phase | Flow_pivot | Span of string

val configure : threshold:int -> unit
(** Arm with the given per-class head size (0 or negative disables).
    Call before worker domains spawn. *)

val disable : unit -> unit

val threshold : unit -> int

val enabled : unit -> bool

val decide : cls -> int
(** 0 = drop this event; [w >= 1] = keep it with [sampled_of] weight
    [w]. Always 1 when sampling is off. Each call consumes one ordinal
    of the class's per-domain stream, so call it once per event and
    only when a live sink would receive the event. *)

val reset : unit -> unit
(** Reset the calling domain's streams (tests). *)
