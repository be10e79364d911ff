(** Always-on flight recorder: per-domain ring buffers retaining the
    last N trace events, dumped as ordinary JSONL on fault triggers.

    A recorder is fed through an ordinary {!Trace.custom} sink (put it
    in the ambient fan-out), so it sees exactly the typed taxonomy,
    timestamps and domain stamping a [--trace] file would, at the cost
    of a DLS lookup and a ring store per event — cheap enough to leave
    armed on every run. {!dump} merges the per-domain rings by
    timestamp and renders them with {!Event.render_line}; the dump
    file is byte-compatible with channel-sink output and reads through
    {!Trace_reader}, [monitorctl analyze] and [monitorctl diff]
    unchanged.

    The ambient plumbing ({!install} / {!trigger}) is how the
    resilience layer asks for a dump at the moment of failure —
    deadline expiry, degradation-ladder descent, chaos injection,
    uncaught exception — without depending on who armed the recorder.
    Triggers are capped (8 dumps per process) so fault storms cannot
    flood the dump directory. *)

type t

val create : ?capacity:int -> unit -> t
(** A recorder retaining the last [capacity] (default 4096) events per
    domain. *)

val sink : t -> Trace.sink
(** The recording sink; combine with other sinks via
    {!Trace.fanout}. *)

val record :
  t -> ts:float -> ev:string -> (string * Json.t) list -> unit
(** Feed one event directly (the sink path ends here; also used by
    deterministic replay tests, which control [ts]). Records into the
    calling domain's ring. *)

val set_manifest : t -> Runinfo.t -> unit
(** The run manifest to stamp as the leading [run_info] event of every
    dump. *)

val events_seen : t -> int
(** Total events recorded across all domains (including overwritten
    ones). *)

val stats : t -> (int * int * int) list
(** Per-domain [(domain_id, retained, dropped)] in registration
    order. *)

val render : t -> string
(** The dump body: the manifest (when set) followed by every retained
    event, merged across domains in timestamp order, one JSONL line
    each. *)

val dump : t -> ?reason:string -> string -> string
(** [dump t ~reason dir] writes {!render} to
    [dir/flight-<seq>-<reason>.jsonl] (creating [dir] as needed) and
    returns the path. Raises [Sys_error]/[Unix.Unix_error] on an
    unwritable destination. *)

(** {1 Ambient recorder and fault triggers} *)

val install : ?capacity:int -> ?dir:string -> unit -> t
(** Create a recorder, make it the ambient one, and arm dumps into
    [dir] (no [dir]: recording stays armed but triggers are inert).
    Call once at startup, before worker domains spawn. *)

val uninstall : unit -> unit

val trigger : reason:string -> unit
(** Dump the ambient recorder into the armed directory, if any. Never
    raises; announces the dump path on stderr; counts into the
    [flight.dumps{reason}] counter; capped at 8 dumps per process. *)

val dumps_taken : unit -> int
