open Monpos_util
open Monpos_obs

let parse_env () =
  match Sys.getenv_opt "MONPOS_CHAOS" with
  | None | Some "" -> None
  | Some s -> int_of_string_opt (String.trim s)

let seed_ref = ref (parse_env ())

(* The per-site PRNG streams are shared mutable state; parallel B&B
   workers can reach [fire] concurrently (and stream creation races
   with itself), so draws are serialised by [streams_lock]. The lock
   is only taken once a fault lottery is actually active — [armed]
   and [draw] bail on [active ()] first — so chaos-off runs never
   touch it. *)
let streams_lock = Mutex.create ()

let streams : (string, Prng.t) Hashtbl.t = Hashtbl.create 16

let seed () = !seed_ref

let set_seed s =
  seed_ref := s;
  Mutex.protect streams_lock (fun () -> Hashtbl.reset streams)

let active () = !seed_ref <> None

(* Protect/suppress scoping is per domain: a ladder rung running
   [protect] on the main domain must not arm scoped sites inside
   worker domains it spawns mid-rung (their faults would be schedule-
   dependent), and a worker suppressing around its own solve must not
   mute the coordinator. Each domain starts unscoped. *)
let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let suppressed_key = Domain.DLS.new_key (fun () -> ref 0)

let depth () = Domain.DLS.get depth_key

let suppressed () = Domain.DLS.get suppressed_key

let protect f =
  let depth = depth () in
  incr depth;
  Fun.protect ~finally:(fun () -> decr depth) f

let suppress f =
  let suppressed = suppressed () in
  incr suppressed;
  Fun.protect ~finally:(fun () -> decr suppressed) f

(* FNV-1a over the site name: stable across builds, unlike
   [Hashtbl.hash], so a given (seed, site) pair replays the same
   fault schedule everywhere. *)
let site_hash site =
  let h = ref 0x3b29ce484222325 in
  String.iter
    (fun c ->
      h := !h lxor Char.code c;
      h := !h * 0x100000001b3)
    site;
  !h land max_int

(* take one uniform draw from the site's stream under the lock (the
   stream lookup, lazy creation and the PRNG state advance must be
   one critical section) *)
let drawn ~site take =
  Mutex.protect streams_lock (fun () ->
      let g =
        match Hashtbl.find_opt streams site with
        | Some g -> g
        | None ->
          let s = Option.value !seed_ref ~default:0 in
          let g = Prng.create (s lxor site_hash site) in
          Hashtbl.add streams site g;
          g
      in
      take g)

(* labeled per site; injections are rare enough that the per-fire
   registry lookup is noise *)
let m_injections site =
  Metrics.counter ~labels:[ ("site", site) ] Metrics.default "chaos.injections"

let armed ~scoped =
  !(suppressed ()) = 0 && active () && ((not scoped) || !(depth ()) > 0)

let fire ?(scoped = true) ~site ~p () =
  armed ~scoped
  &&
  let hit = drawn ~site (fun g -> Prng.float g 1.0) < p in
  if hit then begin
    Metrics.incr (m_injections site);
    let s = Trace.current () in
    if Trace.enabled s then
      Trace.emit s (Event.Chaos_inject { site });
    (* capture the lead-up to the injected fault while it is still in
       the rings — the recovery path runs after this returns *)
    Flightrec.trigger ~reason:("chaos_" ^ site)
  end;
  hit

let draw ~site n =
  if n <= 0 || not (active ()) then 0
  else drawn ~site (fun g -> Prng.int g n)
