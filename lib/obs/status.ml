(* Live process status for the scrape responder's /healthz and
   /statusz endpoints: the run manifest, uptime, the solve phase in
   flight, and the solver watermarks published as gauges into the
   default registry (incumbent, bound, gap, per-domain node and idle
   accounting). Everything here is last-writer-wins
   monitoring state — written from whichever domain is solving, read
   by the serve loop — so atomics are used where a torn read could
   surface a nonsense value and plain stores where they cannot. *)

let epoch = Clock.now ()

let uptime () = Clock.now () -. epoch

let manifest_ref : Json.t option Atomic.t = Atomic.make None

let set_manifest j = Atomic.set manifest_ref (Some j)

let manifest () = Atomic.get manifest_ref

let phase_ref = Atomic.make "idle"

let phase () = Atomic.get phase_ref

let with_phase p f =
  let saved = Atomic.get phase_ref in
  Atomic.set phase_ref p;
  Fun.protect ~finally:(fun () -> Atomic.set phase_ref saved) f

(* ------------------------------------------------------------------ *)
(* observability self-accounting *)

(* Cumulative seconds the observability tier spent on itself (trace
   emits into any sink, the flight recorder's included, and dump
   rendering), estimated by Trace.emit's sampled probe and timed
   dumps. A CAS loop keeps cross-domain adds lossless; the registry
   gauge mirrors the cell so the cost shows up in scrapes and
   --metrics tables. The cell spans the process, so a gauge read after
   Metrics.reset still shows the process total: measure one run as the
   difference of {!overhead} across it. *)
let overhead_cell = Atomic.make 0.0

let m_overhead = lazy (Metrics.gauge Metrics.default "obs.overhead_seconds")

let rec add_overhead dt =
  let cur = Atomic.get overhead_cell in
  if Atomic.compare_and_set overhead_cell cur (cur +. dt) then
    Metrics.set (Lazy.force m_overhead) (cur +. dt)
  else add_overhead dt

let overhead () = Atomic.get overhead_cell

(* ------------------------------------------------------------------ *)
(* statusz rendering *)

let gauge_json snap name =
  match Metrics.find snap name with
  | Some (Metrics.Gauge_value v) when Float.is_finite v -> Json.Float v
  | Some (Metrics.Gauge_value _) -> Json.Null
  | _ -> Json.Null

(* label-dimension sweep: every series of [name] carrying a ["domain"]
   label, as {"<domain>": value} in registration order *)
let by_domain snap name =
  List.filter_map
    (fun ({ Metrics.name = n; labels }, entry) ->
      if n <> name then None
      else
        match (labels, entry) with
        | [ ("domain", d) ], Metrics.Counter_value c -> Some (d, Json.Int c)
        | [ ("domain", d) ], Metrics.Gauge_value g -> Some (d, Json.Float g)
        | _ -> None)
    snap

let to_json ?(registry = Metrics.default) () =
  let snap = Metrics.snapshot registry in
  Json.Obj
    [
      ("run", Option.value (manifest ()) ~default:Json.Null);
      ("uptime_seconds", Json.Float (uptime ()));
      ("phase", Json.String (phase ()));
      ( "solver",
        Json.Obj
          [
            ("incumbent", gauge_json snap "mip.incumbent");
            ("bound", gauge_json snap "mip.bound");
            ("gap", gauge_json snap "mip.gap");
            ("nodes", Json.Int (Metrics.sum_counter snap "mip.nodes"));
            ("nodes_by_domain", Json.Obj (by_domain snap "mip.slot_nodes"));
            ( "idle_seconds_by_domain",
              Json.Obj (by_domain snap "mip.idle_seconds") );
          ] );
      ( "obs",
        Json.Obj
          [
            ("overhead_seconds", Json.Float (overhead ()));
            ("trace_sample_threshold", Json.Int (Sampler.threshold ()));
          ] );
      (* checkpoint age is the operator's staleness signal: how much
         search would be lost if the process died right now. [null]
         until the first write of the run. *)
      ( "checkpoint",
        let writes = Metrics.sum_counter snap "checkpoint.writes" in
        if writes = 0 then Json.Null
        else
          let age =
            match Metrics.find snap "checkpoint.last_write_clock" with
            | Some (Metrics.Gauge_value t) when Float.is_finite t ->
              Json.Float (Float.max 0.0 (Clock.now () -. t))
            | _ -> Json.Null
          in
          Json.Obj [ ("writes", Json.Int writes); ("age_seconds", age) ] );
    ]

let healthz () = "ok\n"
