(** Structured trace sink writing JSONL solver events.

    A sink is either the {!null} sink — {!emit} returns immediately —
    or a live sink receiving each typed {!Event.t} as its name and
    encoded fields; the channel-backed sink writes one JSON object per
    line ({!Event.render_line}). Each event carries its event name
    under ["ev"] and a relative timestamp in seconds under ["ts"];
    non-finite numeric fields render as [null].

    The solvers read the ambient sink via {!current}; it defaults to
    {!null} so the instrumented hot paths cost nothing unless a tool
    (the CLI's [--trace], a test) installs a real sink. Per-node call
    sites additionally guard with {!enabled} so even the boxing of
    float arguments is skipped when tracing is off. *)

type sink

val null : sink
(** The no-op sink: emits are dropped before any encoding work. *)

val open_file : string -> sink
(** Truncate/create the file and return a sink on it. Events are
    formatted into an internal buffer and written out in batches
    (every 64 events and on {!close}), so per-event syscall pressure
    does not distort the hot paths being traced. {!events_written}
    counts emits, not flushes, and stays exact. *)

val custom :
  ?close:(unit -> unit) ->
  (float -> string -> (string * Json.t) list -> unit) ->
  sink
(** [custom f] is a sink delivering every event to [f ts ev fields]
    ([ts] is seconds since the sink was created). Used for in-process
    consumers such as {!Progress}; [close] runs on {!close}. *)

val fanout : sink list -> sink
(** Deliver every event to each live (enabled) child with one shared
    timestamp, so e.g. a file sink and a progress reporter can watch
    the same solve. Collapses to {!null} (no live children) or to the
    single live child. Closing the fan-out closes every child; each
    child's {!events_written} counts its own deliveries. *)

val close : sink -> unit
(** Flush buffered events, and close the underlying channel unless it
    is stdout or stderr. The null sink is a no-op. *)

val flush : sink -> unit
(** Push buffered events through to the backing channel without
    closing the sink. Solver worker domains call this just before
    exiting so a buffered sink never holds a finished domain's tail
    events hostage until the whole run closes; a no-op on {!null},
    {!custom} and already-flushed sinks. *)

val enabled : sink -> bool

val events_written : sink -> int

(** {1 Ambient sink} *)

val current : unit -> sink

val set_current : sink -> unit

val with_current : sink -> (unit -> 'a) -> 'a
(** Install the sink for the duration of the callback, restoring the
    previous one even on exceptions. *)

(** {1 Events} *)

val emit : sink -> Event.t -> unit
(** [emit sink e] writes one event: {!Event.encode} renders its
    fields, and events emitted from a domain other than the initial
    one carry an extra ["domain"] field with the emitting domain's id.
    A no-op on {!null}; call sites on hot paths still guard with
    {!enabled} so that an untraced run does not even build the
    event. *)

type gc_delta = Event.gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}
(** {!Event.gc_delta}, re-exported for span allocation accounting. *)
