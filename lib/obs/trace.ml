(* A sink is a pair of closures (emit, close) plus bookkeeping. The
   null sink is the only one with [on = false]; call sites check the
   flag (Trace.enabled) before building an event, so instrumented hot
   paths cost a load and a branch when tracing is off. *)

type sink = {
  on : bool;
  epoch : float;
  emit_fn : float -> string -> (string * Json.t) list -> unit;
  flush_fn : unit -> unit;
  close_fn : unit -> unit;
  events : int Atomic.t; (* emits may race across solver domains *)
}

let null =
  {
    on = false;
    epoch = 0.0;
    emit_fn = (fun _ _ _ -> ());
    flush_fn = ignore;
    close_fn = ignore;
    events = Atomic.make 0;
  }

(* Channel sinks buffer formatted events and write them out in batches:
   one [output] syscall per [flush_every] events instead of one per
   event, so tracing stops distorting the hot paths it observes.
   [events_written] stays exact — it counts emits, not flushes. A
   mutex serialises the shared Buffer/pending state so spawned domains
   can emit into the same sink without interleaving half-formatted
   lines. *)
let flush_every = 64

let to_channel oc =
  let lock = Mutex.create () in
  let buf = Buffer.create 8192 in
  let pending = ref 0 in
  let flush_buf () =
    if Buffer.length buf > 0 then begin
      Buffer.output_buffer oc buf;
      Buffer.clear buf;
      (* push through the channel too: a periodic flush that stops in
         the out_channel's own buffer would make the trace neither
         tail-able during a long solve nor recoverable after a crash *)
      flush oc
    end;
    pending := 0
  in
  let emit_fn ts ev fields =
    Mutex.protect lock (fun () ->
        Event.render_line buf ts ev fields;
        incr pending;
        if !pending >= flush_every then flush_buf ())
  in
  let close_fn () =
    Mutex.protect lock (fun () ->
        flush_buf ();
        if oc == stdout || oc == stderr then flush oc else close_out oc)
  in
  {
    on = true;
    epoch = Clock.now ();
    emit_fn;
    flush_fn = (fun () -> Mutex.protect lock flush_buf);
    close_fn;
    events = Atomic.make 0;
  }

let open_file path = to_channel (open_out path)

let custom ?(close = ignore) f =
  {
    on = true;
    epoch = Clock.now ();
    emit_fn = f;
    flush_fn = ignore;
    close_fn = close;
    events = Atomic.make 0;
  }

(* Fan-out: one emit reaches every live child with the same timestamp,
   so a file sink and a progress reporter can watch the same solve.
   Closing the fan-out closes every child. *)
let fanout sinks =
  match List.filter (fun s -> s.on) sinks with
  | [] -> null
  | [ s ] -> s
  | live ->
    {
      on = true;
      epoch = Clock.now ();
      emit_fn =
        (fun ts ev fields ->
          List.iter
            (fun s ->
              s.emit_fn ts ev fields;
              Atomic.incr s.events)
            live);
      flush_fn = (fun () -> List.iter (fun s -> s.flush_fn ()) live);
      close_fn = (fun () -> List.iter (fun s -> s.close_fn ()) live);
      events = Atomic.make 0;
    }

let close s = s.close_fn ()

(* Push buffered events to the backing channel without closing the
   sink. Worker domains call this just before they exit so a buffered
   file sink never loses the tail of a domain's event stream (the
   domain is gone by the time the main domain closes the sink, but its
   bytes are already in the shared buffer — flushing at exit bounds
   how much a crash can lose and keeps the file tail-able while other
   domains keep solving). *)
let flush s = s.flush_fn ()

let enabled s = s.on

let events_written s = Atomic.get s.events

let ambient = ref null

let current () = !ambient

let set_current s = ambient := s

let with_current s f =
  let saved = !ambient in
  ambient := s;
  Fun.protect ~finally:(fun () -> ambient := saved) f

(* Events from spawned domains carry a ["domain"] field so offline
   analysis can separate interleaved per-domain streams; events from
   the initial domain stay unchanged (and pay only the
   [is_main_domain] check). *)
let deliver s e =
  let domain =
    if Domain.is_main_domain () then None else Some (Domain.self () :> int)
  in
  s.emit_fn (Clock.now () -. s.epoch) (Event.name e) (Event.encode ?domain e)

(* Every 256th emit of a sink is timed whole (clock read, encoding and
   the sink's store) and extrapolated into the obs.overhead_seconds
   self-accounting; timing each emit would cost more than the emit.
   The first sample is the 256th emit, so one-off setup in a sink's
   first store is not multiplied. The null sink never gets here, so
   untraced runs pay nothing. *)
let probe_mask = 255

let emit s e =
  if s.on then
    if Atomic.fetch_and_add s.events 1 land probe_mask = probe_mask then begin
      let t0 = Clock.now () in
      deliver s e;
      Status.add_overhead ((Clock.now () -. t0) *. float_of_int (probe_mask + 1))
    end
    else deliver s e

type gc_delta = Event.gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}
