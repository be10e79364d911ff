(** A fixed pool of worker domains that runs batches ("waves") of
    independent tasks to a barrier.

    The calling domain is slot 0 and [jobs - 1] spawned domains are
    slots [1 .. jobs - 1]. {!run} publishes a wave as one array plus a
    shared claim index; every slot, slot 0 included, takes the next
    task with an atomic fetch-and-add until the array is exhausted,
    then drains the retry queue and waits for the barrier. The pool
    knows nothing about what a task is: which slot ran which task is
    a scheduling accident, so a caller that wants schedule-independent
    results must make [process] write each task's outcome into the
    task itself and fold the outcomes after {!run} returns.

    Supervision: an exception that escapes [process] on slot [w > 0]
    marks that slot dead for the pool's lifetime and requeues the one
    task it held onto the retry queue, where a surviving slot picks it
    up. The barrier still waits for that task, so {!run} never returns
    with a task unfinished. Three kinds of failure are not supervised
    but re-raised from {!run} on the calling domain: any failure on
    slot 0, a typed solver error ([Monpos_resilience.Error.Error]) on
    any slot, and a task's third failure. Each supervised death bumps the
    [mip.worker_failures] counter, emits a [worker_failure] trace event
    and triggers a flight-recorder dump. The chaos site [domain.die]
    (unscoped) kills slot [w > 0] on a task's first claim: always on
    the first claim any worker makes in the pool's lifetime, then with
    [p = 0.02]. While a seed is armed, slot 0 waits for that first
    worker claim before it claims anything itself, so the death lands
    however the machine schedules the slots.

    Per-slot series: [mip.slot_nodes{domain=w}] counts the tasks slot [w]
    completed and [mip.idle_seconds{domain=w}] (added at {!shutdown})
    the seconds it waited. They are registered on the calling domain
    only, when first needed, so a pool that only ever ran singleton
    waves registers just slot 0's counter. *)

type 'a t

val create :
  jobs:int -> process:(int -> 'a -> unit) -> sink:Monpos_obs.Trace.sink -> 'a t
(** [create ~jobs ~process ~sink] makes a pool of [jobs] slots that
    runs [process w task] on slot [w]. No domain is spawned until the
    first {!run} of two or more tasks. [sink] receives the
    [worker_failure] events and is flushed by each worker as it exits.
    Requires [jobs >= 1]. *)

val run : 'a t -> 'a list -> unit
(** [run pool tasks] processes every task exactly once (counting
    supervised retries as one) and returns once all are done. A single
    task runs inline on the calling domain as slot 0. Must be called
    from the domain that created the pool, never concurrently. Raises
    the first unsupervised failure (see above) after the barrier. *)

val shutdown : 'a t -> unit
(** Stop and join the worker domains and publish the per-slot idle
    seconds. Call once, from the creating domain, after the last
    {!run}. *)
