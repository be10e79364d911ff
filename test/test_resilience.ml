(* Resilience-layer tests: typed error taxonomy, deadlines, the
   chaos-seeded degradation ladder (deterministic per seed, feasible
   on every rung, greedy within its Theorem 1 guarantee), located
   parse errors, and the 0.2s wall-clock regression for the deadline
   threading through branch and bound and simplex. *)

module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Active = Monpos.Active
module Resilient = Monpos.Resilient
module Cover = Monpos_cover.Cover
module Pop = Monpos_topo.Pop
module Topo_file = Monpos_topo.Topo_file
module Graph = Monpos_graph.Graph
module Mip = Monpos_lp.Mip
module Clock = Monpos_obs.Clock
module Error = Monpos_resilience.Error
module Deadline = Monpos_resilience.Deadline
module Chaos = Monpos_resilience.Chaos

(* Chaos seeds are process-global state: every test that installs one
   must clear it on the way out so the rest of the suite runs clean. *)
let with_chaos seed f =
  let saved = Chaos.seed () in
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed saved) f

(* ---------- error taxonomy ---------- *)

let test_exit_codes () =
  let check what expected e =
    Alcotest.(check int) what expected (Error.exit_code e)
  in
  check "parse -> 2" 2 (Error.Parse_error { file = "f"; line = 3; msg = "m" });
  check "infeasible -> 2" 2 (Error.Infeasible_model { what = "w" });
  check "deadline -> 3" 3
    (Error.Deadline_exceeded { phase = "p"; elapsed = 1.0 });
  check "numerical -> 4" 4 (Error.Numerical { stage = "s"; detail = "d" });
  check "internal -> 4" 4 (Error.Internal "m")

let test_error_rendering () =
  let s =
    Error.to_string (Error.Parse_error { file = "x.topo"; line = 7; msg = "m" })
  in
  Alcotest.(check bool) "names file" true (Astring.String.is_infix ~affix:"x.topo" s);
  Alcotest.(check bool) "names line" true (Astring.String.is_infix ~affix:"7" s)

(* ---------- deadlines ---------- *)

let test_deadline_basics () =
  Alcotest.(check bool) "none never expires" false (Deadline.expired Deadline.none);
  Alcotest.(check bool) "is_none" true (Deadline.is_none Deadline.none);
  let d = Deadline.of_budget 0.0 in
  Alcotest.(check bool) "zero budget expired" true (Deadline.expired d);
  Alcotest.(check bool) "check raises typed" true
    (try
       Deadline.check d ~phase:"test";
       false
     with Error.Error (Error.Deadline_exceeded { phase; _ }) -> phase = "test")

(* The acceptance bar for the deadline threading: a 0.2s budget on the
   largest seed MIP (pop15, 71 links, 1980 traffics) must return
   within 2x the budget. The fixed 0.5s on top of the proportional
   bound absorbs scheduler noise on loaded CI runners — the
   regressions this guards against (unbounded LP rungs, unpolled
   solver loops) overshoot by seconds, not tenths. The ladder always
   answers, so this also checks the degraded result is a real
   cover. *)
let test_deadline_wall_clock () =
  let inst = Instance.of_pop (Pop.make_preset `Pop15 ~seed:2) ~seed:6 in
  let budget = 0.2 in
  let options = { Mip.default_options with Mip.time_limit = budget } in
  let t0 = Clock.now () in
  let o = Resilient.solve_ppm ~k:1.0 ~formulation:`Lp2 ~options inst in
  let elapsed = Clock.now () -. t0 in
  Alcotest.(check bool)
    (Printf.sprintf "returned in %.3fs <= 2x budget + slack" elapsed)
    true
    (elapsed <= (2.0 *. budget) +. 0.5);
  Alcotest.(check bool) "degraded answer still covers" true
    (Passive.validate ~k:1.0 inst o.Resilient.value.Passive.monitors)

(* ---------- chaos lottery ---------- *)

let test_chaos_scoping () =
  with_chaos 7 (fun () ->
      (* scoped sites only fire inside a protect region *)
      let outside = ref false in
      for _ = 1 to 200 do
        if Chaos.fire ~site:"test.scoped" ~p:1.0 () then outside := true
      done;
      Alcotest.(check bool) "scoped site silent outside protect" false !outside;
      let inside = Chaos.protect (fun () -> Chaos.fire ~site:"test.scoped" ~p:1.0 ()) in
      Alcotest.(check bool) "fires under protect" true inside;
      let suppressed =
        Chaos.protect (fun () ->
            Chaos.suppress (fun () -> Chaos.fire ~site:"test.scoped" ~p:1.0 ()))
      in
      Alcotest.(check bool) "suppress overrides protect" false suppressed)

let test_chaos_replay () =
  let draw_run () =
    with_chaos 99 (fun () ->
        Chaos.protect (fun () ->
            List.init 64 (fun _ ->
                (Chaos.fire ~site:"test.replay" ~p:0.3 (), Chaos.draw ~site:"test.draw" 1000))))
  in
  Alcotest.(check bool) "same seed, same stream" true (draw_run () = draw_run ())

(* ---------- degradation ladder under chaos ---------- *)

let outcome_key o =
  (o.Resilient.rung, List.map (fun d -> d.Resilient.from_rung) o.Resilient.descents)

(* Same seed -> same faults -> same rung, same descents, same
   placement. *)
let test_ladder_deterministic () =
  let solve () =
    with_chaos 1234 (fun () ->
        let inst = Instance.figure3 () in
        Resilient.solve_ppm ~k:1.0 ~formulation:`Lp2 inst)
  in
  let a = solve () and b = solve () in
  Alcotest.(check bool) "same rung and descents" true
    (outcome_key a = outcome_key b);
  Alcotest.(check bool) "same placement" true
    (a.Resilient.value.Passive.monitors = b.Resilient.value.Passive.monitors)

(* Whatever rung answers, the placement must be feasible — across a
   spread of chaos seeds so different fault schedules hit different
   rungs. *)
let test_ladder_feasible_under_chaos () =
  let inst = Instance.of_pop (Pop.make_preset `Pop10 ~seed:1) ~seed:3 in
  List.iter
    (fun seed ->
      with_chaos seed (fun () ->
          let o = Resilient.solve_ppm ~k:1.0 inst in
          Alcotest.(check bool)
            (Printf.sprintf "ppm feasible (chaos seed %d, rung %s)" seed
               o.Resilient.rung)
            true
            (Passive.validate ~k:1.0 inst o.Resilient.value.Passive.monitors)))
    [ 1; 2; 3; 5; 8; 13; 21; 42 ]

let test_ppme_ladder_under_chaos () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.5 inst in
  List.iter
    (fun seed ->
      with_chaos seed (fun () ->
          let o = Resilient.solve_ppme pb in
          let s = o.Resilient.value in
          Alcotest.(check bool)
            (Printf.sprintf "ppme rates in range (seed %d, rung %s)" seed
               o.Resilient.rung)
            true
            (Array.for_all (fun r -> r >= -1e-9 && r <= 1.0 +. 1e-9)
               s.Sampling.rates);
          Alcotest.(check bool) "devices are real edges" true
            (List.for_all
               (fun e -> e >= 0 && e < Graph.num_edges inst.Instance.graph)
               s.Sampling.installed)))
    [ 4; 9; 16; 25 ]

let test_beacon_ladder_under_chaos () =
  let pop = Pop.make_preset `Pop10 ~seed:5 in
  let g = pop.Pop.graph in
  let candidates = Pop.routers pop in
  let probes = Active.compute_probes g ~candidates in
  List.iter
    (fun seed ->
      with_chaos seed (fun () ->
          let o = Resilient.place_beacons probes ~candidates in
          Alcotest.(check bool)
            (Printf.sprintf "beacons valid (seed %d, rung %s)" seed
               o.Resilient.rung)
            true
            (Active.validate probes ~beacons:o.Resilient.value.Active.beacons
               ~candidates)))
    [ 3; 11; 27 ]

(* Theorem 1: the terminal greedy rung inherits the set-cover
   guarantee, so even the worst degradation stays within H_d of the
   optimum. figure3 is small enough to compare against the exact
   solve. *)
let test_greedy_rung_guarantee () =
  let inst = Instance.figure3 () in
  let opt = Passive.solve_mip ~k:1.0 inst in
  let g = Passive.greedy ~k:1.0 inst in
  let guarantee = Cover.greedy_guarantee (Instance.cover_view inst) in
  Alcotest.(check bool) "greedy within guarantee" true
    (float_of_int g.Passive.count
    <= (guarantee *. float_of_int opt.Passive.count) +. 1e-9);
  Alcotest.(check bool) "greedy covers" true
    (Passive.validate ~k:1.0 inst g.Passive.monitors)

(* Infeasible_model must escape the ladder: degrading cannot repair an
   unreachable target. *)
let test_ladder_propagates_infeasible () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  (* pin the ladder's degraded rungs onto a hopeless placement by
     exercising reoptimize directly through the same typed channel *)
  Alcotest.(check bool) "typed infeasible" true
    (try
       ignore (Sampling.reoptimize pb ~installed:[ 3 ]);
       false
     with Error.Error (Error.Infeasible_model _) -> true)

(* ---------- located parse errors ---------- *)

let test_demands_parse_errors () =
  let pop = Topo_file.load_sample "backbone-11" in
  let check_err text fragment =
    match Instance.parse_demands ~file:"t.dem" pop text with
    | Ok _ -> Alcotest.failf "expected parse error for %S" text
    | Error (Error.Parse_error { file; line; msg }) ->
      Alcotest.(check string) "file" "t.dem" file;
      Alcotest.(check bool) "line located" true (line >= 1);
      Alcotest.(check bool)
        (Printf.sprintf "%S mentions %S" msg fragment)
        true
        (Astring.String.is_infix ~affix:fragment msg)
    | Error e -> Alcotest.failf "unexpected error: %s" (Error.to_string e)
  in
  check_err "demand nosuch lax 5.0" "nosuch";
  check_err "demand nyc nyc 5.0" "nyc";
  check_err "demand nyc lax lots" "lots";
  check_err "demand nyc lax -2.0" "-2.0";
  check_err "frobnicate nyc lax" "frobnicate"

let test_demands_parse_ok () =
  let pop = Topo_file.load_sample "backbone-11" in
  match
    Instance.parse_demands pop
      "# comment\ndemand nyc lax 5.0\ndemand bos mia 2.5\n"
  with
  | Ok inst ->
    Alcotest.(check bool) "has traffics" true (Instance.num_traffics inst > 0);
    Alcotest.(check (float 1e-9)) "volume" 7.5 inst.Instance.total_volume
  | Error e -> Alcotest.failf "parse failed: %s" (Error.to_string e)

(* Chaos site parse.truncate: a truncated read must surface as a typed
   Parse_error (or parse by luck), never an uncaught exception. *)
let test_truncated_read_is_typed () =
  let path = Filename.temp_file "monpos_test" ".topo" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc
        "node a backbone\nnode b backbone\nnode c backbone\n\
         link a b 10.0\nlink b c 2.0\nlink c a 2.0\n";
      close_out oc;
      for seed = 1 to 20 do
        with_chaos seed (fun () ->
            Chaos.protect (fun () ->
                match Topo_file.parse_file path with
                | Ok _ -> ()
                | Error (Error.Parse_error { file; _ }) ->
                  Alcotest.(check string)
                    (Printf.sprintf "error names file (seed %d)" seed)
                    path file
                | Error e ->
                  Alcotest.failf "unexpected error class: %s"
                    (Error.to_string e)))
      done)

let suite =
  [
    Alcotest.test_case "exit codes" `Quick test_exit_codes;
    Alcotest.test_case "error rendering" `Quick test_error_rendering;
    Alcotest.test_case "deadline basics" `Quick test_deadline_basics;
    Alcotest.test_case "0.2s budget returns within 2x" `Slow
      test_deadline_wall_clock;
    Alcotest.test_case "chaos scoping" `Quick test_chaos_scoping;
    Alcotest.test_case "chaos replay determinism" `Quick test_chaos_replay;
    Alcotest.test_case "ladder deterministic per seed" `Quick
      test_ladder_deterministic;
    Alcotest.test_case "ppm ladder feasible under chaos" `Slow
      test_ladder_feasible_under_chaos;
    Alcotest.test_case "ppme ladder under chaos" `Quick
      test_ppme_ladder_under_chaos;
    Alcotest.test_case "beacon ladder under chaos" `Quick
      test_beacon_ladder_under_chaos;
    Alcotest.test_case "greedy rung within guarantee" `Quick
      test_greedy_rung_guarantee;
    Alcotest.test_case "ladder propagates infeasible" `Quick
      test_ladder_propagates_infeasible;
    Alcotest.test_case "demands parse errors located" `Quick
      test_demands_parse_errors;
    Alcotest.test_case "demands parse ok" `Quick test_demands_parse_ok;
    Alcotest.test_case "truncated read is typed" `Quick
      test_truncated_read_is_typed;
  ]
