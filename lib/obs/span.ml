(* Span nesting is tracked per domain: a worker domain opening spans
   must not shift the depth of spans on the main domain (or vice
   versa), or every close after a parallel solve would pair with the
   wrong open. Each domain gets its own stack cell via DLS; the trace
   record's [domain] field lets readers rebuild per-domain stacks.

   The cell holds the open span *names*, not just a depth counter, and
   registers itself in a process-wide table: the wall-clock profiling
   ticker reads other domains' cells to take folded-stack samples.
   Those cross-domain reads are deliberately unsynchronized — a sample
   may see a stack mid-push — but each field is a single word, so a
   torn sample is at worst one frame stale, which is noise a sampling
   profiler already accepts. *)

type cell = { mutable depth : int; mutable names : string array }

let registry_lock = Mutex.create ()

let registry : (int * cell) list ref = ref []

(* Domain ids recycle; a fresh domain re-registering an id replaces
   its dead predecessor's cell so the table stays bounded by the live
   domain count. *)
let register cell =
  let id = (Domain.self () :> int) in
  Mutex.protect registry_lock (fun () ->
      registry :=
        (match List.assoc_opt id !registry with
        | None -> !registry @ [ (id, cell) ]
        | Some _ ->
          List.map
            (fun (d, c) -> if d = id then (d, cell) else (d, c))
            !registry))

let cell_key =
  Domain.DLS.new_key (fun () ->
      let cell = { depth = 0; names = Array.make 16 "" } in
      register cell;
      cell)

let cell () = Domain.DLS.get cell_key

(* Racy by design (see above): clamp to both counters so a torn read
   never indexes out of bounds. Domains with no open span are
   skipped. *)
let live_stacks () =
  let cells = Mutex.protect registry_lock (fun () -> !registry) in
  List.filter_map
    (fun (id, c) ->
      let names = c.names in
      let d = min c.depth (Array.length names) in
      if d <= 0 then None
      else Some (id, List.init d (fun i -> names.(i))))
    cells

(* Allocation histograms are in words; log-spaced bounds from 100
   words (~1 small closure) to 1e9 (~8 GB on 64-bit). *)
let alloc_buckets = [| 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9 |]

let time ?metrics ?sink name f =
  let sink = match sink with Some s -> s | None -> Trace.current () in
  let registry = match metrics with Some m -> m | None -> Metrics.default in
  let cell = cell () in
  let depth = cell.depth in
  if depth >= Array.length cell.names then begin
    let bigger = Array.make (2 * Array.length cell.names) "" in
    Array.blit cell.names 0 bigger 0 (Array.length cell.names);
    cell.names <- bigger
  end;
  cell.names.(depth) <- name;
  (* the hot span classes get head-sampled: weight 0 suppresses both
     trace events (the pair drops together, keeping the reader's
     depth-replay consistent) while the metrics observations below
     stay exact. An untraced span has weight 0 too, so it builds no
     event at all. *)
  let w =
    if Trace.enabled sink then Sampler.decide (Sampler.Span name) else 0
  in
  if w > 0 then Trace.emit sink (Event.Span_open { name; depth });
  cell.depth <- depth + 1;
  let g0 = Gc.quick_stat () in
  let t0 = Clock.now () in
  let finish () =
    (* Restore rather than decrement: if a nested span raised partway
       through its own bookkeeping (e.g. the sink's write failed after
       the nested close had already adjusted the counter), a plain decr
       would drift and every close above it would then be emitted one
       depth off its open. Pinning back to this span's own depth keeps
       each close paired with its open no matter how many levels below
       unwound exceptionally. *)
    cell.depth <- depth;
    let dt = Clock.elapsed t0 in
    let g1 = Gc.quick_stat () in
    let gc =
      {
        Trace.minor_words = g1.Gc.minor_words -. g0.Gc.minor_words;
        major_words = g1.Gc.major_words -. g0.Gc.major_words;
        promoted_words = g1.Gc.promoted_words -. g0.Gc.promoted_words;
        major_collections = g1.Gc.major_collections - g0.Gc.major_collections;
        (* top_heap_words is nominally a process watermark, but the
           OCaml 5 runtime computes it from per-domain state and a
           read after domain spawn/exit churn can come back lower
           than an earlier one; a negative watermark delta carries no
           information, so clamp it *)
        top_heap_words = max 0 (g1.Gc.top_heap_words - g0.Gc.top_heap_words);
      }
    in
    if w > 0 then
      Trace.emit sink
        (Event.Span_close { name; depth; seconds = dt; gc = Some gc; sampled_of = w });
    let labels = [ ("span", name) ] in
    Metrics.observe (Metrics.histogram ~labels registry "span.seconds") dt;
    Metrics.observe
      (Metrics.histogram ~buckets:alloc_buckets ~labels registry
         "alloc.minor_words")
      gc.Trace.minor_words;
    Metrics.observe
      (Metrics.histogram ~buckets:alloc_buckets ~labels registry
         "alloc.major_words")
      gc.Trace.major_words;
    dt
  in
  match f () with
  | r ->
    let dt = finish () in
    (r, dt)
  | exception e ->
    ignore (finish ());
    raise e

let run ?metrics ?sink name f = fst (time ?metrics ?sink name f)
