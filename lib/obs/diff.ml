(* Cross-run trace diffing: join two JSONL traces by span name and
   solver, compare wall time, pivot/node work and allocation under the
   bench regression gate's metric-class thresholds
   (Bench_check.violation), and render verdicts with its OK / REGRESSED
   conventions. The bench-report flavor of [monitorctl diff] reuses
   Bench_check directly; this module handles the trace flavor. *)

type row = {
  key : string;
  a : float;
  b : float option; (* None: the metric disappeared from run B *)
  limit : string; (* threshold description; "" when within bounds *)
  regressed : bool;
}

type report = {
  rows : row list;
  compared : int;
  regressions : int; (* gating count; 0 when tolerated under chaos *)
  tolerated : int;
  notes : string list;
}

(* ------------------------------------------------------------------ *)
(* metric extraction from one decoded trace *)

type run_summary = {
  metrics : (string * float) list; (* ordered *)
  manifest : string option; (* rendered run_info line *)
  chaos_seed : int option;
  truncated : bool;
}

let summarize (read : Trace_reader.read) =
  let records = read.Trace_reader.records in
  let profile = Profile.of_records records in
  let metrics = ref [] in
  let put key v = metrics := (key, v) :: !metrics in
  List.iter
    (fun (name, (calls, total_s, _self)) ->
      put (Printf.sprintf "span.%s.seconds" name) total_s;
      put (Printf.sprintf "span.%s.calls" name) (float_of_int calls))
    (Profile.totals profile);
  List.iter
    (fun (name, words) ->
      if words > 0.0 then put (Printf.sprintf "span.%s.alloc_words" name) words)
    (Profile.alloc_totals profile);
  (* solver work from the convergence fold, which weighs head-sampled
     node and simplex-phase events like Profile weighs spans *)
  let converge = Converge.of_records records in
  List.iter
    (fun (s : Converge.solver) ->
      if s.Converge.nodes > 0 then
        put
          (Printf.sprintf "solver.%s.nodes" s.Converge.solver)
          (float_of_int s.Converge.nodes))
    converge.Converge.solvers;
  if converge.Converge.pivots > 0 then
    put "simplex.pivots" (float_of_int converge.Converge.pivots);
  (* the run manifest (the last, should a trace carry several) *)
  let manifest, chaos_seed =
    List.fold_left
      (fun acc (r : Trace_reader.record) ->
        match r.Trace_reader.event with
        | Trace_reader.Run_info { run_id; git_rev; hostname; chaos_seed; _ } ->
          ( Some
              (Printf.sprintf "%s rev=%s host=%s%s" run_id
                 (Option.value ~default:"?" git_rev)
                 (Option.value ~default:"?" hostname)
                 (match chaos_seed with
                 | Some s -> Printf.sprintf " chaos_seed=%d" s
                 | None -> "")),
            chaos_seed )
        | _ -> acc)
      (None, None) records
  in
  {
    metrics = List.rev !metrics;
    manifest;
    chaos_seed;
    truncated = read.Trace_reader.truncated;
  }

let of_traces ~a ~b =
  let sa = summarize a and sb = summarize b in
  let notes = ref [] in
  let note fmt = Printf.ksprintf (fun m -> notes := m :: !notes) fmt in
  (match sa.manifest with Some m -> note "run A: %s" m | None -> ());
  (match sb.manifest with Some m -> note "run B: %s" m | None -> ());
  if sa.truncated then note "run A trace is truncated";
  if sb.truncated then note "run B trace is truncated";
  let rows =
    List.map
      (fun (key, va) ->
        let vb = List.assoc_opt key sb.metrics in
        match Bench_check.violation ~key ~baseline:va ~current:vb with
        | Some limit -> { key; a = va; b = vb; limit; regressed = true }
        | None -> { key; a = va; b = vb; limit = ""; regressed = false })
      sa.metrics
  in
  List.iter
    (fun (key, _) ->
      if not (List.mem_assoc key sa.metrics) then
        note "metric only in run B: %s" key)
    sb.metrics;
  let regressed = List.length (List.filter (fun r -> r.regressed) rows) in
  let chaotic = sa.chaos_seed <> None || sb.chaos_seed <> None in
  if chaotic && regressed > 0 then
    note
      "threshold violations TOLERATED: at least one run took injected chaos \
       faults";
  {
    rows;
    compared = List.length rows;
    regressions = (if chaotic then 0 else regressed);
    tolerated = (if chaotic then regressed else 0);
    notes = List.rev !notes;
  }

let render r =
  let buf = Buffer.create 1024 in
  List.iter (fun n -> Buffer.add_string buf (n ^ "\n")) r.notes;
  let fmt_val v =
    if Float.is_integer v && Float.abs v < 1e15 then
      Printf.sprintf "%.0f" v
    else Printf.sprintf "%.6g" v
  in
  let rows_out =
    List.map
      (fun row ->
        let delta =
          match row.b with
          | None -> "-"
          | Some b ->
            if row.a = 0.0 then (if b = 0.0 then "+0.0%" else "new")
            else Printf.sprintf "%+.1f%%" (100.0 *. (b -. row.a) /. row.a)
        in
        [
          (if row.regressed then "!!" else "OK");
          row.key;
          fmt_val row.a;
          (match row.b with Some b -> fmt_val b | None -> "(missing)");
          delta;
          row.limit;
        ])
      r.rows
  in
  Buffer.add_string buf
    (Monpos_util.Table.render
       ~header:[ ""; "metric"; "run A"; "run B"; "delta"; "limit" ]
       rows_out);
  let regressed_total = r.regressions + r.tolerated in
  if regressed_total = 0 then
    Buffer.add_string buf
      (Printf.sprintf "trace diff: %d metric(s) within thresholds: OK\n"
         r.compared)
  else if r.regressions = 0 then
    Buffer.add_string buf
      (Printf.sprintf
         "trace diff: %d of %d metric(s) outside thresholds TOLERATED (chaos \
          run)\n"
         regressed_total r.compared)
  else
    Buffer.add_string buf
      (Printf.sprintf "trace diff: %d of %d metric(s) REGRESSED\n"
         r.regressions r.compared);
  Buffer.contents buf
