(** Live, throttled progress reporting for traced solves.

    {!sink} builds a {!Trace.custom} sink that tracks branch-and-bound
    progress (nodes visited, incumbent, bound, relative gap, elapsed
    trace time) for the current solver through a {!Converge} fold —
    the same figures as [analyze --converge], head-sampled node events
    counted at their [sampled_of] weight — and repaints a single
    in-place line ([\r]-terminated, fixed width) on the output channel
    at most every [interval] seconds. Meant to be {!Trace.fanout}'d
    next to a file sink so a long solve can be watched while its full
    trace is recorded. Closing the sink repaints one final time and
    terminates the line with a newline.

    When the channel is not a terminal (detected with [Unix.isatty],
    overridable with [?tty]) the in-place repaint would smear raw
    carriage returns into logs, so the sink instead emits whole
    newline-terminated progress lines at a coarser default throttle
    (one per second). *)

val sink : ?interval:float -> ?oc:out_channel -> ?tty:bool -> unit -> Trace.sink
(** [interval] defaults to 0.1s on a tty and 1s otherwise; [oc]
    defaults to [stderr]; [tty] defaults to [Unix.isatty oc]. *)
