(* Cross-run trace diffing: joining two synthetic traces by span and
   solver, the per-class thresholds (one-sided wall time and
   allocation, exact counts), disappearing metrics, and the
   tolerate-but-report convention for chaos runs. *)

module Trace = Monpos_obs.Trace
module Reader = Monpos_obs.Trace_reader
module Diff = Monpos_obs.Diff

let r event = { Reader.ts = 0.0; domain = 0; event }

let gc_words minor =
  {
    Trace.minor_words = minor;
    major_words = 0.0;
    promoted_words = 0.0;
    major_collections = 0;
    top_heap_words = 0;
  }

(* one complete span with optional allocation accounting *)
let span ?alloc name seconds =
  [
    r (Reader.Span_open { name; depth = 0 });
    r
      (Reader.Span_close
         { name; depth = 0; seconds; gc = Option.map gc_words alloc; sampled_of = 1 });
  ]

let bb_nodes solver n =
  List.init n (fun i ->
      r (Reader.Bb_node { solver; node = i; depth = 0; bound = None; sampled_of = 1 }))

let pivots n = [ r (Reader.Simplex_phase { phase = 2; iterations = n; outcome = "optimal"; sampled_of = 1 }) ]

let chaos_manifest seed =
  [
    r
      (Reader.Run_info
         {
           run_id = "run-chaotic";
           git_rev = None;
           ocaml_version = None;
           hostname = None;
           chaos_seed = seed;
           jobs = None;
           scheduler = None;
           argv = [];
         });
  ]

let read records = { Reader.records; malformed = 0; unknown = 0; truncated = false }

let baseline () =
  read
    (span "mip.solve" 1.0 ~alloc:100_000.0
    @ span "lu_factor" 0.2
    @ bb_nodes "mip" 10 @ pivots 500)

let find_row report key =
  match List.find_opt (fun (row : Diff.row) -> row.Diff.key = key) report.Diff.rows with
  | Some row -> row
  | None ->
    Alcotest.failf "no row for %s (have: %s)" key
      (String.concat ", "
         (List.map (fun (row : Diff.row) -> row.Diff.key) report.Diff.rows))

let test_identical_runs_pass () =
  let report = Diff.of_traces ~a:(baseline ()) ~b:(baseline ()) in
  Alcotest.(check int) "no regressions" 0 report.Diff.regressions;
  Alcotest.(check int) "nothing tolerated" 0 report.Diff.tolerated;
  Alcotest.(check bool) "compared several metrics" true (report.Diff.compared >= 6);
  List.iter
    (fun (row : Diff.row) ->
      Alcotest.(check bool) (row.Diff.key ^ " ok") false row.Diff.regressed)
    report.Diff.rows;
  (* the bench gate's phrasing *)
  Alcotest.(check bool) "render says OK" true
    (let rendered = Diff.render report in
     let ok = "within thresholds: OK" in
     let n = String.length rendered and m = String.length ok in
     let rec has i = i + m <= n && (String.sub rendered i m = ok || has (i + 1)) in
     has 0)

let test_wall_time_regression_gates () =
  let b =
    read
      (span "mip.solve" 2.5 ~alloc:100_000.0
      @ span "lu_factor" 0.2
      @ bb_nodes "mip" 10 @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  Alcotest.(check int) "one regression" 1 report.Diff.regressions;
  let row = find_row report "span.mip.solve.seconds" in
  Alcotest.(check bool) "time row regressed" true row.Diff.regressed;
  Alcotest.(check bool) "limit names the band" true (row.Diff.limit <> "")

let test_time_tolerance_is_one_sided () =
  (* +40% is inside the +50% band; a speedup is never a regression *)
  let faster =
    read
      (span "mip.solve" 0.4 ~alloc:100_000.0
      @ span "lu_factor" 0.05
      @ bb_nodes "mip" 10 @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b:faster in
  Alcotest.(check int) "speedup passes" 0 report.Diff.regressions;
  let within =
    read
      (span "mip.solve" 1.35 ~alloc:100_000.0
      @ span "lu_factor" 0.25
      @ bb_nodes "mip" 10 @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b:within in
  Alcotest.(check int) "+35% within the band" 0 report.Diff.regressions

let test_count_drift_gates () =
  let b =
    read
      (span "mip.solve" 1.0 ~alloc:100_000.0
      @ span "lu_factor" 0.2
      @ bb_nodes "mip" 10 @ pivots 520)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  Alcotest.(check int) "pivot drift regresses" 1 report.Diff.regressions;
  Alcotest.(check bool) "pivot row regressed" true
    (find_row report "simplex.pivots").Diff.regressed

let test_allocation_regression_gates () =
  let b =
    read
      (span "mip.solve" 1.0 ~alloc:250_000.0
      @ span "lu_factor" 0.2
      @ bb_nodes "mip" 10 @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  Alcotest.(check int) "alloc regresses" 1 report.Diff.regressions;
  Alcotest.(check bool) "alloc row regressed" true
    (find_row report "span.mip.solve.alloc_words").Diff.regressed

let test_missing_metric_gates () =
  let b =
    read (span "mip.solve" 1.0 ~alloc:100_000.0 @ bb_nodes "mip" 10 @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  let row = find_row report "span.lu_factor.seconds" in
  Alcotest.(check bool) "missing regresses" true row.Diff.regressed;
  Alcotest.(check bool) "b is absent" true (row.Diff.b = None)

let test_chaos_runs_tolerated () =
  let b =
    read
      (chaos_manifest (Some 7)
      @ span "mip.solve" 5.0 ~alloc:100_000.0
      @ span "lu_factor" 0.2
      @ bb_nodes "mip" 14 @ pivots 900)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  Alcotest.(check int) "chaos does not gate" 0 report.Diff.regressions;
  Alcotest.(check bool) "violations still reported" true
    (report.Diff.tolerated >= 2);
  Alcotest.(check bool) "render says TOLERATED" true
    (let rendered = Diff.render report in
     let t = "TOLERATED" in
     let n = String.length rendered and m = String.length t in
     let rec has i = i + m <= n && (String.sub rendered i m = t || has (i + 1)) in
     has 0)

let test_b_only_metric_noted () =
  let b =
    read
      (span "mip.solve" 1.0 ~alloc:100_000.0
      @ span "lu_factor" 0.2 @ span "greedy.cover" 0.05 @ bb_nodes "mip" 10
      @ pivots 500)
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b in
  Alcotest.(check int) "new metric is not a regression" 0 report.Diff.regressions;
  Alcotest.(check bool) "but it is noted" true
    (List.exists
       (fun note ->
         let k = "greedy.cover" in
         let n = String.length note and m = String.length k in
         let rec has i = i + m <= n && (String.sub note i m = k || has (i + 1)) in
         has 0)
       report.Diff.notes)

let test_sampled_counts_weighted () =
  (* a head-sampled rerun keeps fewer events, each standing for
     sampled_of of them: nodes and pivots compare on the weights *)
  let sampled =
    read
      (span "mip.solve" 1.0 ~alloc:100_000.0
      @ span "lu_factor" 0.2
      @ List.map
          (fun (node, sampled_of) ->
            r (Reader.Bb_node { solver = "mip"; node; depth = 0; bound = None; sampled_of }))
          [ (0, 1); (1, 1); (2, 8) ]
      @ [ r (Reader.Simplex_phase { phase = 2; iterations = 125; outcome = "optimal"; sampled_of = 4 }) ])
  in
  let report = Diff.of_traces ~a:(baseline ()) ~b:sampled in
  Alcotest.(check int) "no regressions" 0 report.Diff.regressions;
  Alcotest.(check (option (float 0.0))) "10 weighted nodes" (Some 10.0)
    (find_row report "solver.mip.nodes").Diff.b;
  Alcotest.(check (option (float 0.0))) "500 weighted pivots" (Some 500.0)
    (find_row report "simplex.pivots").Diff.b

let suite =
  [
    Alcotest.test_case "identical runs pass" `Quick test_identical_runs_pass;
    Alcotest.test_case "wall-time regression gates" `Quick
      test_wall_time_regression_gates;
    Alcotest.test_case "time tolerance is one-sided" `Quick
      test_time_tolerance_is_one_sided;
    Alcotest.test_case "count drift gates" `Quick test_count_drift_gates;
    Alcotest.test_case "allocation regression gates" `Quick
      test_allocation_regression_gates;
    Alcotest.test_case "missing metric gates" `Quick test_missing_metric_gates;
    Alcotest.test_case "chaos runs tolerated" `Quick test_chaos_runs_tolerated;
    Alcotest.test_case "run-B-only metrics noted" `Quick test_b_only_metric_noted;
    Alcotest.test_case "sampled counts weighted" `Quick test_sampled_counts_weighted;
  ]
