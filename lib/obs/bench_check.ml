(* Regression gate over two bench reports (schema monpos-bench/1).
   Compares every numeric headline the bench publishes — per-phase
   wall time, extras, metric counters — phase by phase, with a
   relative threshold per metric class:

   - time-like keys ("seconds", "*_seconds_*"): wall times are noisy,
     so only a slowdown beyond +50% (plus 100ms absolute slack for
     sub-second phases) regresses;
   - speedup/pivot-ratio keys: derived from timings or pivot counts
     whose whole point is to stay large, so only a drop below half the
     baseline regresses (small-instance speedups swing a lot between
     otherwise-identical runs);
   - scheduler- and machine-dependent series (per-domain
     "{domain=...}" splits, core counts, measured-overhead
     percentages): artifacts of which worker happened to grab which
     node, of the hardware the run landed on, or of background load
     during a timed A/B, so they are compared for coverage but never
     regress (the derived 0/1 "..._gate" flags still do);
   - wall-clock timestamps ("*_clock", such as the gauge
     checkpoint.last_write_clock): they say when a run happened, not
     how it went, so they are never compared;
   - allocation keys ("*alloc_words*", from trace diffs): stable but
     jittering with GC timing, so only growth beyond +10% (plus 16k
     words of slack) regresses;
   - everything else (device counts, coverage fractions, pivot and
     node counters): deterministic under fixed seeds, so anything
     beyond ±1% relative regresses.

   Missing phases are reported but do not regress (the caller may have
   run a subset); a metric present in the baseline but absent from the
   current run does regress — silently dropping a guarded number is
   exactly what the gate exists to catch. The one exception is a
   baseline series whose value is exactly 0: registries register
   lazily, so which zero-valued series a phase snapshot carries
   depends on which experiments ran earlier in the same process, and
   a full-run baseline would otherwise permanently flag every
   --compare-* subset. *)

type finding = {
  phase : string;
  key : string;
  baseline : float;
  current : float option; (* None: metric disappeared *)
  limit : string;
}

type report = {
  compared : int;
  findings : finding list;
  tolerated : finding list;
  chaos_seed : int option;
  missing_phases : string list;
}

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

type klass = Time | Ratio | Alloc | Exact | Sched | Stamp

let classify key =
  if String.ends_with ~suffix:"_clock" key then Stamp
  else if
    contains ~sub:"{domain=" key
    || contains ~sub:"cores" key
    || contains ~sub:"overhead_pct" key
  then Sched
  else if contains ~sub:"alloc_words" key then Alloc
  else if key = "seconds" || contains ~sub:"seconds" key then Time
  else if contains ~sub:"speedup" key || contains ~sub:"pivot_ratio" key then
    Ratio
  else Exact

let time_rel = 0.50

let time_abs = 0.1

let ratio_rel = 0.50

let exact_rel = 0.01

(* allocation is stable but jitters with GC timing: one-sided, with
   slack for small spans *)
let alloc_rel = 0.10

let alloc_abs_words = 16384.0

let violation ~key ~baseline ~current =
  match current with
  | _ when classify key = Stamp -> None
  | None when baseline = 0.0 ->
    (* a never-incremented series: registries register lazily, so which
       zero-valued series a phase snapshot carries depends on which
       experiments ran earlier in the process (a full bench run vs a
       --compare-* subset), not on anything the gate guards *)
    None
  | None -> Some "missing"
  | Some cur -> (
    match classify key with
    | Time ->
      if cur > (baseline *. (1.0 +. time_rel)) +. time_abs then
        Some (Printf.sprintf "<= %+.0f%% + %.1fs" (100.0 *. time_rel) time_abs)
      else None
    | Ratio ->
      if cur < baseline *. (1.0 -. ratio_rel) then
        Some (Printf.sprintf ">= %.0f%% of baseline" (100.0 *. (1.0 -. ratio_rel)))
      else None
    | Alloc ->
      if cur > (baseline *. (1.0 +. alloc_rel)) +. alloc_abs_words then
        Some
          (Printf.sprintf "<= %+.0f%% + %.0f words" (100.0 *. alloc_rel)
             alloc_abs_words)
      else None
    | Exact ->
      if
        Float.abs (cur -. baseline)
        > exact_rel *. Float.max 1.0 (Float.abs baseline)
      then Some (Printf.sprintf "within %.0f%%" (100.0 *. exact_rel))
      else None
    | Sched | Stamp -> None)

let schema_of doc =
  match Option.bind (Json.member "schema" doc) Json.as_string with
  | Some s -> Ok s
  | None -> Error "missing \"schema\" field"

let phases_of doc =
  match Option.bind (Json.member "phases" doc) Json.as_list with
  | Some ps -> Ok ps
  | None -> Error "missing \"phases\" list"

let phase_name p =
  Option.value (Option.bind (Json.member "name" p) Json.as_string) ~default:""

(* numeric (key, value) pairs of an object field of the phase *)
let numerics p field =
  match Option.bind (Json.member field p) Json.as_obj with
  | None -> []
  | Some kvs ->
    List.filter_map
      (fun (k, v) -> Option.map (fun f -> (k, f)) (Json.as_float v))
      kvs

let compare_phase ~base ~cur =
  let phase = phase_name base in
  let compared = ref 0 and findings = ref [] in
  let pair key baseline current =
    incr compared;
    match violation ~key ~baseline ~current with
    | Some limit -> findings := { phase; key; baseline; current; limit } :: !findings
    | None -> ()
  in
  (match
     ( Option.bind (Json.member "seconds" base) Json.as_float,
       Option.bind (Json.member "seconds" cur) Json.as_float )
   with
  | Some b, c -> pair "seconds" b c
  | None, _ -> ());
  List.iter
    (fun field ->
      let cur_kvs = numerics cur field in
      List.iter
        (fun (key, base_v) ->
          pair (field ^ "." ^ key) base_v (List.assoc_opt key cur_kvs))
        (numerics base field))
    [ "extras"; "metrics" ];
  (!compared, List.rev !findings)

let compare_reports ~baseline ~current =
  let ( let* ) = Result.bind in
  let* bs = schema_of baseline in
  let* cs = schema_of current in
  if bs <> "monpos-bench/1" then
    Error (Printf.sprintf "baseline has unsupported schema %S" bs)
  else if cs <> bs then
    Error (Printf.sprintf "schema mismatch: baseline %S vs current %S" bs cs)
  else
    let bmode =
      Option.value
        (Option.bind (Json.member "mode" baseline) Json.as_string)
        ~default:"default"
    and cmode =
      Option.value
        (Option.bind (Json.member "mode" current) Json.as_string)
        ~default:"default"
    in
    if bmode <> cmode then
      Error
        (Printf.sprintf
           "bench mode mismatch: baseline %S vs current %S (numbers are not \
            comparable across modes)"
           bmode cmode)
    else
      let* base_phases = phases_of baseline in
      let* cur_phases = phases_of current in
      (* a run made under MONPOS_CHAOS took injected faults and may
         have answered through degraded ladder rungs, so its numbers
         (timings, device counts, pivot counters) legitimately drift
         from a fault-free baseline. Threshold violations are still
         reported, but as tolerated rather than gating regressions. *)
      let chaos_seed =
        match Json.member "chaos_seed" current with
        | Some (Json.Int s) -> Some s
        | Some (Json.Float f) when Float.is_finite f ->
          Some (int_of_float f)
        | _ -> None
      in
      let compared = ref 0 and findings = ref [] and missing = ref [] in
      List.iter
        (fun bp ->
          let name = phase_name bp in
          match
            List.find_opt (fun cp -> phase_name cp = name) cur_phases
          with
          | None -> missing := name :: !missing
          | Some cp ->
            let n, fs = compare_phase ~base:bp ~cur:cp in
            compared := !compared + n;
            findings := !findings @ fs)
        base_phases;
      let findings, tolerated =
        match chaos_seed with
        | Some _ -> ([], !findings)
        | None -> (!findings, [])
      in
      Ok
        {
          compared = !compared;
          findings;
          tolerated;
          chaos_seed;
          missing_phases = List.rev !missing;
        }

let finding_table fs =
  Monpos_util.Table.render
    ~header:[ "phase"; "metric"; "baseline"; "current"; "limit" ]
    (List.map
       (fun f ->
         [
           f.phase;
           f.key;
           Printf.sprintf "%.6g" f.baseline;
           (match f.current with
           | Some c -> Printf.sprintf "%.6g" c
           | None -> "(missing)");
           f.limit;
         ])
       fs)

let render r =
  let b = Buffer.create 256 in
  if r.missing_phases <> [] then
    Buffer.add_string b
      (Printf.sprintf "note: baseline phase(s) not in this run: %s\n"
         (String.concat ", " r.missing_phases));
  (match (r.chaos_seed, r.tolerated) with
  | None, _ -> ()
  | Some seed, [] ->
    Buffer.add_string b
      (Printf.sprintf
         "note: current run under MONPOS_CHAOS=%d; thresholds held anyway\n"
         seed)
  | Some seed, fs ->
    Buffer.add_string b (finding_table fs);
    Buffer.add_string b
      (Printf.sprintf
         "bench check: %d metric(s) outside thresholds TOLERATED (run under \
          MONPOS_CHAOS=%d: injected faults and degraded-rung outcomes are \
          expected to drift)\n"
         (List.length fs) seed));
  if r.findings = [] then begin
    if r.tolerated = [] then
      Buffer.add_string b
        (Printf.sprintf "bench check: %d metric(s) within thresholds: OK\n"
           r.compared)
  end
  else begin
    Buffer.add_string b (finding_table r.findings);
    Buffer.add_string b
      (Printf.sprintf "bench check: %d of %d metric(s) REGRESSED\n"
         (List.length r.findings) r.compared)
  end;
  Buffer.contents b
