(* Always-on flight recorder: one fixed-capacity ring of recent trace
   events per domain, fed through an ordinary (custom) Trace sink so
   the typed taxonomy, timestamps and domain stamping are exactly
   those of a --trace file. Recording is a DLS lookup, a tuple box and
   a ring store — cheap enough to leave armed on every run — and a
   dump renders the merged rings with Event.render_line, so the
   resulting JSONL is byte-compatible with the channel sinks and reads
   through Trace_reader/analyze unchanged.

   Dumps fire on the resilience triggers (deadline exceeded, ladder
   descent, chaos injection, uncaught exception) via the ambient
   {!trigger} plumbing, capped per process so a chaos storm cannot
   flood the dump directory. *)

type entry = { e_ts : float; e_ev : string; e_fields : (string * Json.t) list }

(* per-domain recording cell: the ring plus a probe countdown for the
   self-measured overhead estimate *)
type cell = { ring : entry Ring.t; mutable count : int }

type t = {
  capacity : int;
  lock : Mutex.t;
  mutable rings : (int * cell) list; (* domain id -> cell, registration order *)
  slot_key : cell option ref Domain.DLS.key;
  seen : int Atomic.t;
  mutable manifest : Runinfo.t option;
  mutable dump_seq : int; (* under lock *)
}

let default_capacity = 4096

let create ?(capacity = default_capacity) () =
  {
    capacity;
    lock = Mutex.create ();
    rings = [];
    slot_key = Domain.DLS.new_key (fun () -> ref None);
    seen = Atomic.make 0;
    manifest = None;
    dump_seq = 0;
  }

let capacity t = t.capacity

let set_manifest t m = t.manifest <- Some m

(* A spawned domain records into a fresh ring registered under its
   domain id. Domain ids recycle across solves; re-registration
   replaces the dead predecessor's ring, which keeps memory bounded by
   the live domain count and keeps dumps focused on the recent past. *)
let register t slot =
  let cell = { ring = Ring.create t.capacity; count = 0 } in
  let id = (Domain.self () :> int) in
  Mutex.protect t.lock (fun () ->
      t.rings <-
        (match List.assoc_opt id t.rings with
        | None -> t.rings @ [ (id, cell) ]
        | Some _ ->
          List.map (fun (d, c) -> if d = id then (d, cell) else (d, c)) t.rings));
  slot := Some cell;
  cell

(* Every 256th store is timed and extrapolated into the
   obs.overhead_seconds self-accounting — measuring each store would
   cost more than the store. *)
let probe_mask = 255

let record t ~ts ~ev fields =
  let slot = Domain.DLS.get t.slot_key in
  let cell = match !slot with Some c -> c | None -> register t slot in
  cell.count <- cell.count + 1;
  let e = { e_ts = ts; e_ev = ev; e_fields = fields } in
  if cell.count land probe_mask = 0 then begin
    let t0 = Clock.now () in
    Ring.push cell.ring e;
    Status.add_overhead ((Clock.now () -. t0) *. float_of_int (probe_mask + 1))
  end
  else Ring.push cell.ring e;
  Atomic.incr t.seen

let sink t = Trace.custom (fun ts ev fields -> record t ~ts ~ev fields)

let events_seen t = Atomic.get t.seen

let stats t =
  Mutex.protect t.lock (fun () ->
      List.map
        (fun (d, c) -> (d, Ring.length c.ring, Ring.dropped c.ring))
        t.rings)

let clear t =
  Mutex.protect t.lock (fun () ->
      List.iter (fun (_, c) -> Ring.clear c.ring) t.rings);
  Atomic.set t.seen 0

(* Merge every domain's retained events into one stream ordered by
   timestamp (each sink fan-out shares one epoch, so timestamps are
   comparable across domains); stable sort keeps each domain's own
   order on ties. The manifest, when present, leads as an ordinary
   run_info event so analyze/diff join dumps like any trace. *)
let render t =
  let entries =
    Mutex.protect t.lock (fun () ->
        List.concat_map
          (fun (_, c) -> Ring.to_list c.ring)
          t.rings)
  in
  let sorted =
    List.stable_sort (fun a b -> Float.compare a.e_ts b.e_ts) entries
  in
  let buf = Buffer.create 4096 in
  (match t.manifest with
  | Some m ->
    let ev = Runinfo.to_event m in
    Event.render_line buf 0.0 (Event.name ev) (Event.encode ev)
  | None -> ());
  List.iter (fun e -> Event.render_line buf e.e_ts e.e_ev e.e_fields) sorted;
  Buffer.contents buf

(* reasons come from our own trigger sites, but an explicit caller
   could pass anything; keep the filename shell-safe *)
let sanitize_reason r =
  let r = if r = "" then "dump" else r in
  String.map
    (function ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_') as c -> c | _ -> '_')
    r

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let dump t ?(reason = "explicit") dir =
  let seq = Mutex.protect t.lock (fun () -> t.dump_seq <- t.dump_seq + 1; t.dump_seq) in
  mkdir_p dir;
  let path =
    Filename.concat dir
      (Printf.sprintf "flight-%04d-%s.jsonl" seq (sanitize_reason reason))
  in
  let t0 = Clock.now () in
  Out_channel.with_open_bin path (fun oc -> output_string oc (render t));
  Status.add_overhead (Clock.now () -. t0);
  path

(* ------------------------------------------------------------------ *)
(* ambient recorder + trigger plumbing *)

let current : t option ref = ref None

let dump_dir_ref : string option ref = ref None

let install ?capacity ?dir () =
  let t = create ?capacity () in
  current := Some t;
  dump_dir_ref := dir;
  t

let installed () = !current

let uninstall () =
  current := None;
  dump_dir_ref := None

(* dumps are precious on the way in (a deadline or a fault just fired)
   and worthless in bulk: cap per process so a chaos storm or a
   descent cascade cannot flood the directory *)
let max_dumps = 8

let dumps_taken_cell = Atomic.make 0

let dumps_taken () = Atomic.get dumps_taken_cell

let m_dumps reason =
  Metrics.counter ~labels:[ ("reason", reason) ] Metrics.default "flight.dumps"

let trigger ~reason =
  match (!current, !dump_dir_ref) with
  | Some t, Some dir ->
    if Atomic.fetch_and_add dumps_taken_cell 1 < max_dumps then begin
      match dump t ~reason dir with
      | path ->
        Metrics.incr (m_dumps reason);
        Printf.eprintf "monpos: flight dump (%s) written to %s\n%!" reason path
      | exception (Sys_error _ | Unix.Unix_error _) -> ()
    end
  | _ -> ()
