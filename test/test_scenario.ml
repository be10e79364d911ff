(* Scenario tests: small-scale versions of every figure driver, plus
   the cross-solver agreement harness. *)

module Scenario = Monpos.Scenario

let test_passive_sweep_small () =
  let points =
    Scenario.passive_sweep ~preset:`Pop10 ~seeds:[ 1; 2; 3 ]
      ~ks:[ 75; 95; 100 ] ()
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "ilp <= greedy" true
        (p.Scenario.ilp_devices <= p.Scenario.greedy_devices +. 1e-9);
      Alcotest.(check bool) "proved" true p.Scenario.ilp_optimal;
      Alcotest.(check bool) "positive" true (p.Scenario.ilp_devices > 0.0))
    points;
  (* device count grows with coverage *)
  let arr = Array.of_list points in
  Alcotest.(check bool) "monotone in k" true
    (arr.(0).Scenario.ilp_devices <= arr.(1).Scenario.ilp_devices +. 1e-9
    && arr.(1).Scenario.ilp_devices <= arr.(2).Scenario.ilp_devices +. 1e-9)

let test_passive_sweep_jump_at_100 () =
  (* the paper's headline shape: the 95 -> 100 step needs notably more
     devices than the 90 -> 95 one *)
  let points =
    Scenario.passive_sweep ~preset:`Pop10 ~seeds:[ 1; 2; 3; 4; 5 ]
      ~ks:[ 90; 95; 100 ] ()
  in
  match points with
  | [ p90; p95; p100 ] ->
    let step1 = p95.Scenario.ilp_devices -. p90.Scenario.ilp_devices in
    let step2 = p100.Scenario.ilp_devices -. p95.Scenario.ilp_devices in
    Alcotest.(check bool) "full coverage is disproportionately costly" true
      (step2 >= step1)
  | _ -> Alcotest.fail "expected three points"

let test_active_sweep_small () =
  let points =
    Scenario.active_sweep ~preset:`Pop15 ~seeds:[ 1; 2 ] ~sizes:[ 2; 6; 10 ] ()
  in
  Alcotest.(check int) "three points" 3 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "ilp <= greedy" true
        (p.Scenario.ilp_beacons <= p.Scenario.greedy_beacons +. 1e-9);
      Alcotest.(check bool) "ilp <= thiran" true
        (p.Scenario.ilp_beacons <= p.Scenario.thiran_beacons +. 1e-9);
      Alcotest.(check bool) "ilp proved" true p.Scenario.ilp_optimal;
      Alcotest.(check bool) "some probes" true (p.Scenario.probes > 0.0))
    points

let test_dynamic_run_small () =
  let points =
    Scenario.dynamic_run ~preset:`Pop10 ~seed:1 ~k:0.85 ~threshold:0.8
      ~steps:10 ~sigma:0.2 ()
  in
  Alcotest.(check int) "ten points" 10 (List.length points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "fractions in range" true
        (p.Scenario.coverage_before >= 0.0
        && p.Scenario.coverage_before <= 1.0 +. 1e-9
        && p.Scenario.coverage_after >= 0.0
        && p.Scenario.coverage_after <= 1.0 +. 1e-9))
    points;
  (* cumulative reoptimization counter is nondecreasing *)
  let rec nondecreasing = function
    | a :: (b :: _ as rest) ->
      a.Scenario.reoptimizations <= b.Scenario.reoptimizations
      && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool) "counter monotone" true (nondecreasing points)

let test_solver_agreement () =
  let a = Scenario.solver_agreement ~seeds:[ 1; 2 ] ~k:0.9 ~endpoint_limit:7 () in
  Alcotest.(check int) "instances" 2 a.Scenario.instances;
  Alcotest.(check int) "no disagreement" 0 a.Scenario.disagreements;
  Alcotest.(check int) "four methods" 4 (List.length a.Scenario.methods)

(* End-to-end integration on the bigger paper instances: every layer
   (topology -> traffic -> placement -> validation) on pop29, both
   problem families. *)
let test_integration_pop29 () =
  let pop = Monpos_topo.Pop.make_preset `Pop29 ~seed:3 in
  let inst = Monpos.Instance.of_pop pop ~seed:11 in
  (* passive *)
  let g = Monpos.Passive.greedy ~k:0.9 inst in
  let e = Monpos.Passive.solve_exact ~k:0.9 inst in
  Alcotest.(check bool) "greedy feasible" true
    (Monpos.Passive.validate ~k:0.9 inst g.Monpos.Passive.monitors);
  Alcotest.(check bool) "exact feasible + proved" true
    (e.Monpos.Passive.optimal
    && Monpos.Passive.validate ~k:0.9 inst e.Monpos.Passive.monitors);
  Alcotest.(check bool) "exact <= greedy" true
    (e.Monpos.Passive.count <= g.Monpos.Passive.count);
  (* sampling re-optimization on the greedy placement *)
  let pb = Monpos.Sampling.make_problem ~k:0.85 inst in
  let s = Monpos.Sampling.reoptimize pb ~installed:g.Monpos.Passive.monitors in
  Alcotest.(check bool) "ppme* reaches k" true
    (s.Monpos.Sampling.fraction >= 0.85 -. 1e-6);
  (* active *)
  let routers = Monpos_topo.Pop.routers pop in
  let vb = List.filteri (fun i _ -> i mod 2 = 0) routers in
  let probes =
    Monpos.Active.compute_probes ~targets:vb pop.Monpos_topo.Pop.graph
      ~candidates:vb
  in
  let ilp = Monpos.Active.place_ilp probes ~candidates:vb in
  Alcotest.(check bool) "beacons valid" true
    (Monpos.Active.validate probes ~beacons:ilp.Monpos.Active.beacons
       ~candidates:vb);
  let cost = Monpos.Active.overhead probes ~beacons:ilp.Monpos.Active.beacons in
  Alcotest.(check int) "all probes sent" (List.length probes)
    cost.Monpos.Active.messages

let test_integration_sample_topology () =
  (* the whole pipeline on a file-loaded topology *)
  let pop = Monpos_topo.Topo_file.load_sample "backbone-11" in
  let m =
    Monpos_traffic.Traffic.generate_gravity pop.Monpos_topo.Pop.graph
      ~endpoints:(Monpos_topo.Pop.endpoints pop) ~seed:5
  in
  let inst = Monpos.Instance.make pop.Monpos_topo.Pop.graph m in
  let e = Monpos.Passive.solve_exact ~k:1.0 inst in
  Alcotest.(check bool) "full cover proved" true e.Monpos.Passive.optimal;
  Alcotest.(check (float 1e-9)) "full" 1.0 e.Monpos.Passive.fraction;
  (* every bridge that carries traffic and is the only way to cover
     some demand appears in any full cover... weaker check: coverage
     via the MECF flow oracle agrees *)
  Alcotest.(check (float 1e-6)) "flow oracle agrees"
    e.Monpos.Passive.coverage
    (Monpos.Mecf.coverage_via_flow inst ~monitors:e.Monpos.Passive.monitors)

let suite =
  [
    Alcotest.test_case "passive sweep small" `Slow test_passive_sweep_small;
    Alcotest.test_case "passive jump at 100" `Slow test_passive_sweep_jump_at_100;
    Alcotest.test_case "active sweep small" `Slow test_active_sweep_small;
    Alcotest.test_case "dynamic run small" `Slow test_dynamic_run_small;
    Alcotest.test_case "solver agreement" `Slow test_solver_agreement;
    Alcotest.test_case "integration pop29" `Slow test_integration_pop29;
    Alcotest.test_case "integration sample topo" `Quick test_integration_sample_topology;
  ]
