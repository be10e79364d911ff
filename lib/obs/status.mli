(** Live process status backing the scrape responder's [/healthz] and
    [/statusz] endpoints.

    All state is last-writer-wins monitoring data: the solving domain
    publishes, the serve loop reads. The solver watermarks themselves
    (incumbent, bound, gap, per-domain node and idle accounting) live as ordinary gauges and counters in
    {!Metrics.default}; {!to_json} snapshots them into one document
    together with the run manifest, uptime and in-flight phase. *)

val set_manifest : Json.t -> unit
(** Install the run manifest ({!Runinfo.to_json}) shown under
    ["run"]. *)

val manifest : unit -> Json.t option

val phase : unit -> string
(** The in-flight solve phase: ["mip.solve"] while a MIP search runs
    ({!with_phase} in [Mip]), ["idle"] otherwise. *)

val with_phase : string -> (unit -> 'a) -> 'a
(** Run the callback with the phase installed, restoring the previous
    phase even on exceptions. *)

val add_overhead : float -> unit
(** Account seconds the observability tier spent on itself; mirrored
    into the [obs.overhead_seconds] gauge of {!Metrics.default}. *)

val overhead : unit -> float

val to_json : ?registry:Metrics.t -> unit -> Json.t
(** The [/statusz] document: run manifest, uptime, phase, solver
    watermarks and observability self-accounting, snapshotted from
    [registry] (default {!Metrics.default}). *)

val healthz : unit -> string
(** The [/healthz] body (["ok\n"]); liveness is the serve loop
    answering at all. *)
