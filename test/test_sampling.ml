(* Sampling (PPME) tests: LP3 solutions respect every constraint
   family, PPME* re-optimization, cost ordering, dynamic loop. *)

module Instance = Monpos.Instance
module Sampling = Monpos.Sampling
module Passive = Monpos.Passive
module Pop = Monpos_topo.Pop
module Synthetic = Monpos_topo.Synthetic
module Traffic = Monpos_traffic.Traffic
module Graph = Monpos_graph.Graph
module Prng = Monpos_util.Prng
module Mincost = Monpos_flow.Mincost
module Chaos = Monpos_resilience.Chaos
module Metrics = Monpos_obs.Metrics

let pop10_instance seed =
  Instance.of_pop (Pop.make_preset `Pop10 ~seed) ~seed:(seed * 3)

(* Chaos seeds are process-global state: every test that installs one
   must restore the previous value on the way out. *)
let with_chaos seed f =
  let saved = Chaos.seed () in
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed saved) f

(* test-time MILP budget: a 2-second anytime solve is plenty to check
   feasibility invariants *)
let fast_options =
  {
    Monpos_lp.Mip.default_options with
    Monpos_lp.Mip.time_limit = 2.0;
    gap_tolerance = 0.02;
  }

let check_solution_feasible pb (s : Sampling.solution) =
  let inst = pb.Sampling.instance in
  (* rates only where installed, all within [0,1] *)
  Array.iteri
    (fun e r ->
      Alcotest.(check bool) "rate in [0,1]" true (r >= -1e-9 && r <= 1.0 +. 1e-9);
      if r > 1e-9 then
        Alcotest.(check bool) "rate implies installed" true
          (List.mem e s.Sampling.installed))
    s.Sampling.rates;
  (* delta_p <= sum of rates along p *)
  Array.iteri
    (fun p tr ->
      let sum =
        List.fold_left
          (fun acc e -> acc +. s.Sampling.rates.(e))
          0.0 tr.Instance.t_edges
      in
      Alcotest.(check bool) "delta within cascade" true
        (s.Sampling.path_fractions.(p) <= sum +. 1e-6))
    inst.Instance.traffics;
  (* global coverage *)
  Alcotest.(check bool) "global k reached" true
    (s.Sampling.fraction >= pb.Sampling.k -. 1e-6);
  (* per-demand floors *)
  let ndemands = Array.length inst.Instance.demands in
  let monitored = Array.make ndemands 0.0 in
  let volume = Array.make ndemands 0.0 in
  Array.iteri
    (fun p tr ->
      let d = tr.Instance.t_demand in
      monitored.(d) <-
        monitored.(d) +. (s.Sampling.path_fractions.(p) *. tr.Instance.t_volume);
      volume.(d) <- volume.(d) +. tr.Instance.t_volume)
    inst.Instance.traffics;
  Array.iteri
    (fun d h ->
      if volume.(d) > 0.0 then
        Alcotest.(check bool) "per-demand floor" true
          (monitored.(d) >= (h *. volume.(d)) -. 1e-6))
    pb.Sampling.h

let test_milp_figure3 () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let s = Sampling.solve_milp pb in
  Alcotest.(check bool) "optimal" true s.Sampling.optimal;
  check_solution_feasible pb s;
  (* uniform costs: install dominates, so the device count matches the
     budget-free passive optimum for k = 0.9 *)
  let e = Passive.solve_exact ~k:0.9 inst in
  Alcotest.(check int) "device count matches passive optimum"
    e.Passive.count
    (List.length s.Sampling.installed)

let test_milp_pop10 () =
  let inst = pop10_instance 1 in
  let pb = Sampling.make_problem ~k:0.85 inst in
  let s = Sampling.solve_milp ~options:fast_options pb in
  check_solution_feasible pb s

let test_milp_with_demand_floors () =
  let inst = Instance.figure3 () in
  let h = Array.make (Array.length inst.Instance.demands) 0.5 in
  let pb = Sampling.make_problem ~k:0.6 ~h inst in
  let s = Sampling.solve_milp pb in
  check_solution_feasible pb s

let test_sampling_cheaper_than_full_monitoring () =
  (* with expensive exploitation, sampling at k=0.8 must cost no more
     than full-rate monitoring of the same links *)
  let inst = pop10_instance 2 in
  let costs = Sampling.uniform_costs ~install:5.0 ~exploit:10.0 () in
  let pb = Sampling.make_problem ~k:0.8 ~costs inst in
  let s = Sampling.solve_milp ~options:fast_options pb in
  let full_rate_cost =
    List.fold_left
      (fun acc e -> acc +. 5.0 +. (10.0 *. 1.0) +. (0.0 *. float_of_int e))
      0.0 s.Sampling.installed
  in
  Alcotest.(check bool) "cheaper than running flat out" true
    (s.Sampling.total_cost <= full_rate_cost +. 1e-6)

let test_reoptimize_fixed_placement () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  (* fix devices on the two load-3 links: they can reach k = 0.9 *)
  let s = Sampling.reoptimize pb ~installed:[ 1; 2 ] in
  Alcotest.(check bool) "optimal LP" true s.Sampling.optimal;
  check_solution_feasible pb s;
  Alcotest.(check bool) "no new devices" true
    (List.for_all (fun e -> List.mem e [ 1; 2 ]) s.Sampling.installed)

let test_reoptimize_infeasible () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  (* one light link cannot reach 90% even at rate 1 *)
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sampling.reoptimize pb ~installed:[ 3 ]);
       false
     with
    | Monpos_resilience.Error.Error (Monpos_resilience.Error.Infeasible_model _)
      ->
      true)

let test_reoptimize_cost_not_above_milp () =
  (* PPME* on the MILP's own placement can only reduce or match the
     exploitation cost (the MILP already optimized rates) *)
  let inst = pop10_instance 3 in
  let pb = Sampling.make_problem ~k:0.85 inst in
  let milp = Sampling.solve_milp ~options:fast_options pb in
  let re = Sampling.reoptimize pb ~installed:milp.Sampling.installed in
  Alcotest.(check bool) "exploit cost no worse" true
    (re.Sampling.exploit_cost <= milp.Sampling.exploit_cost +. 1e-6)

let test_reoptimize_flow_figure3 () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let s = Sampling.reoptimize_flow pb ~installed:[ 1; 2 ] in
  Alcotest.(check bool) "meets k" true (s.Sampling.fraction >= 0.9 -. 1e-6);
  Alcotest.(check bool) "rates within bounds" true
    (Array.for_all (fun r -> r >= -1e-9 && r <= 1.0 +. 1e-9) s.Sampling.rates);
  Alcotest.(check bool) "only installed links" true
    (List.for_all (fun e -> List.mem e [ 1; 2 ]) s.Sampling.installed)

let test_reoptimize_flow_cost_bounds_lp () =
  (* the per-path-ratio flow relaxation can only be cheaper than the
     uniform-rate LP, and both meet the target *)
  List.iter
    (fun seed ->
      let inst = pop10_instance seed in
      let pb =
        Sampling.make_problem ~k:0.85
          ~costs:(Sampling.load_scaled_costs inst ())
          inst
      in
      let installed = (Passive.greedy ~k:0.95 inst).Passive.monitors in
      let lp = Sampling.reoptimize pb ~installed in
      let fl = Sampling.reoptimize_flow pb ~installed in
      Alcotest.(check bool) "flow <= lp cost" true
        (fl.Sampling.exploit_cost <= lp.Sampling.exploit_cost +. 1e-6);
      Alcotest.(check bool) "flow cost positive" true
        (fl.Sampling.exploit_cost > 0.0))
    [ 1; 2; 3 ]

let test_reoptimize_flow_demand_floors () =
  let inst = pop10_instance 6 in
  let ndemands = Array.length inst.Instance.demands in
  let h = Array.make ndemands 0.3 in
  let pb = Sampling.make_problem ~k:0.8 ~h inst in
  let all_edges =
    List.filter
      (fun e -> inst.Instance.loads.(e) > 0.0)
      (List.init (Graph.num_edges inst.Instance.graph) Fun.id)
  in
  let s = Sampling.reoptimize_flow pb ~installed:all_edges in
  Alcotest.(check bool) "meets global" true (s.Sampling.fraction >= 0.8 -. 1e-6)

let test_reoptimize_flow_infeasible () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.9 inst in
  Alcotest.(check bool) "raises" true
    (try
       ignore (Sampling.reoptimize_flow pb ~installed:[ 3 ]);
       false
     with
    | Monpos_resilience.Error.Error (Monpos_resilience.Error.Infeasible_model _)
      ->
      true)

(* All three flow backends — SSP, a cold network simplex and a
   warm-started one — solve the same relaxation, and with uniform
   costs the per-edge flow costs 1/load(e) are generically distinct,
   so they must return the same rates, coverage and cost. *)
let check_same_solution name (a : Sampling.solution) (b : Sampling.solution) =
  Alcotest.(check (float 1e-6))
    (name ^ ": exploit cost")
    a.Sampling.exploit_cost b.Sampling.exploit_cost;
  Alcotest.(check (float 1e-9)) (name ^ ": coverage") a.Sampling.fraction
    b.Sampling.fraction;
  Array.iteri
    (fun e r ->
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%s: rate on link %d" name e)
        r b.Sampling.rates.(e))
    a.Sampling.rates

let test_flow_kernels_identical () =
  List.iter
    (fun seed ->
      let inst = pop10_instance seed in
      let pb = Sampling.make_problem ~k:0.85 inst in
      let installed = (Passive.greedy ~k:0.95 inst).Passive.monitors in
      let ssp = Sampling.reoptimize_flow ~algo:Mincost.Ssp pb ~installed in
      let ns =
        Sampling.reoptimize_flow ~algo:Mincost.Net_simplex pb ~installed
      in
      let rp = Sampling.reopt_create ~algo:Mincost.Net_simplex pb ~installed in
      let warm1 = Sampling.reopt_solve rp pb in
      let warm2 = Sampling.reopt_solve rp pb (* warm replay, same basis *) in
      check_same_solution "ssp vs netsimplex" ssp ns;
      check_same_solution "cold vs persistent" ns warm1;
      check_same_solution "warm replay" warm1 warm2)
    [ 1; 2; 3 ]

(* §5.4 differential: one warm network-simplex handle re-solves a
   Waxman drift walk (every loaded link monitored), once in tick order
   and once shuffled, so that a tick also starts from the basis of an
   unrelated one. Every tick's exploit cost must match a cold SSP
   solve of the same tick. *)
let test_drift_walk_warm_matches_ssp () =
  let g = Synthetic.waxman ~n:60 ~alpha:0.22 ~beta:0.35 ~seed:5 in
  let nodes = Array.init (Graph.num_nodes g) Fun.id in
  Prng.shuffle (Prng.create 17) nodes;
  let endpoints = Array.to_list (Array.sub nodes 0 12) in
  let inst = Instance.make g (Traffic.generate g ~endpoints ~seed:41) in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let installed =
    List.filter
      (fun e -> inst.Instance.loads.(e) > 0.0)
      (List.init (Graph.num_edges g) Fun.id)
  in
  let ticks = 24 in
  let walk = Array.make ticks inst.Instance.demands in
  for i = 0 to ticks - 1 do
    let prev = if i = 0 then inst.Instance.demands else walk.(i - 1) in
    walk.(i) <- Traffic.drift prev ~seed:(1_000_003 + i) ~sigma:0.15
  done;
  let problem i =
    { pb with Sampling.instance = Instance.replace_demands inst walk.(i) }
  in
  let ssp =
    Array.init ticks (fun i ->
        (Sampling.reoptimize_flow ~algo:Mincost.Ssp (problem i) ~installed)
          .Sampling.exploit_cost)
  in
  let in_order = Array.init ticks Fun.id in
  let shuffled = Array.copy in_order in
  Prng.shuffle (Prng.create 3) shuffled;
  List.iter
    (fun (name, order) ->
      let rp = Sampling.reopt_create pb ~installed in
      Array.iter
        (fun i ->
          let warm = (Sampling.reopt_solve rp (problem i)).Sampling.exploit_cost in
          (match Sampling.reopt_check_tree rp with
          | Ok () -> ()
          | Error msg -> Alcotest.failf "%s, tick %d: broken basis: %s" name i msg);
          if Float.abs (warm -. ssp.(i)) > 1e-9 *. (1.0 +. Float.abs ssp.(i)) then
            Alcotest.failf "%s, tick %d: warm exploit cost %.12g, SSP %.12g" name
              i warm ssp.(i))
        order)
    [ ("in order", in_order); ("shuffled", shuffled) ];
  (* the walk must move the optimum, or the check shows nothing *)
  Alcotest.(check bool) "drift moves the exploit cost" true
    (Array.exists (fun c -> Float.abs (c -. ssp.(0)) > 1e-6) ssp)

(* Cold pivot pin: bench flowscale's drift sequence (the initial
   problem and 6 ticks drifted with seeds 997 i, sigma 0.15, every
   loaded link monitored) solved by a cold network simplex per tick.
   A cold solve starts from the star tree, and which arcs enter and
   leave depends on parents, depths, potentials and flows, not on the
   order of the thread, so a change to how a pivot re-threads the tree
   must keep these totals exactly. *)
let test_cold_pivots_pinned () =
  let pivots g count =
    let nodes = Array.init (Graph.num_nodes g) Fun.id in
    Prng.shuffle (Prng.create 17) nodes;
    let endpoints = Array.to_list (Array.sub nodes 0 count) in
    let inst = Instance.make g (Traffic.generate g ~endpoints ~seed:41) in
    let pb = Sampling.make_problem ~k:0.9 inst in
    let installed =
      List.filter
        (fun e -> inst.Instance.loads.(e) > 0.0)
        (List.init (Graph.num_edges g) Fun.id)
    in
    let total () =
      Metrics.sum_counter (Metrics.snapshot Metrics.default) "flow.pivots"
    in
    let before = total () in
    let demands = ref inst.Instance.demands in
    for i = 0 to 6 do
      if i > 0 then
        demands := Traffic.drift !demands ~seed:(997 * i) ~sigma:0.15;
      let p =
        { pb with Sampling.instance = Instance.replace_demands inst !demands }
      in
      ignore (Sampling.reoptimize_flow ~algo:Mincost.Net_simplex p ~installed)
    done;
    total () - before
  in
  Alcotest.(check int) "waxman60" 4185
    (pivots (Synthetic.waxman ~n:60 ~alpha:0.22 ~beta:0.35 ~seed:5) 12);
  Alcotest.(check int) "grid7x7" 6601 (pivots (Synthetic.grid 7 7) 14)

(* §5.4 determinism: the control loop's tick stream is a pure function
   of (problem, placement, seed) whatever flow kernel re-optimizes —
   warm-started network simplex included. *)
let test_dynamic_flow_kernels_agree () =
  let inst = pop10_instance 4 in
  let pb = Sampling.make_problem ~k:0.85 inst in
  let placement = Sampling.solve_milp ~options:fast_options pb in
  let installed = placement.Sampling.installed in
  let run kernel =
    (* rewind the chaos site streams (a no-op when chaos is disarmed)
       so every kernel replays the same fault schedule *)
    Chaos.set_seed (Chaos.seed ());
    Sampling.run_dynamic ~kernel pb ~installed ~threshold:0.8 ~steps:15
      ~sigma:0.25 ~seed:9
  in
  let ssp = run (Sampling.Flow Mincost.Ssp) in
  let ns = run (Sampling.Flow Mincost.Net_simplex) in
  let ns_again = run (Sampling.Flow Mincost.Net_simplex) in
  Alcotest.(check int) "same tick count" (List.length ssp) (List.length ns);
  List.iter2
    (fun (a : Sampling.tick) (b : Sampling.tick) ->
      Alcotest.(check bool) "same reopt decision" a.Sampling.reoptimized
        b.Sampling.reoptimized;
      Alcotest.(check (float 1e-6)) "same coverage before"
        a.Sampling.fraction_before b.Sampling.fraction_before;
      Alcotest.(check (float 1e-6)) "same coverage after"
        a.Sampling.fraction_after b.Sampling.fraction_after;
      Alcotest.(check (float 1e-6)) "same exploit cost"
        a.Sampling.exploit_cost b.Sampling.exploit_cost)
    ssp ns;
  List.iter2
    (fun (a : Sampling.tick) (b : Sampling.tick) ->
      Alcotest.(check (float 0.0)) "bit-identical replay"
        a.Sampling.fraction_after b.Sampling.fraction_after)
    ns ns_again

(* Chaos-seeded §5.4 loop with the flow kernel active: injected
   re-optimization faults must descend the PR 5 ladder (stale ticks,
   previous rates kept in service), never crash or corrupt the
   persistent flow network. *)
let test_dynamic_flow_kernel_under_chaos () =
  let inst = pop10_instance 5 in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let placement = Sampling.solve_milp ~options:fast_options pb in
  let any_stale = ref false in
  List.iter
    (fun chaos_seed ->
      with_chaos chaos_seed (fun () ->
          let ticks =
            Sampling.run_dynamic
              ~kernel:(Sampling.Flow Mincost.Net_simplex) pb
              ~installed:placement.Sampling.installed ~threshold:0.9 ~steps:40
              ~sigma:0.4 ~seed:77
          in
          Alcotest.(check int)
            (Printf.sprintf "all ticks served (chaos seed %d)" chaos_seed)
            40 (List.length ticks);
          List.iter
            (fun (t : Sampling.tick) ->
              if t.Sampling.stale then begin
                any_stale := true;
                Alcotest.(check bool) "stale implies reoptimized" true
                  t.Sampling.reoptimized
              end;
              Alcotest.(check bool) "coverage in range" true
                (t.Sampling.fraction_after >= -1e-9
                && t.Sampling.fraction_after <= 1.0 +. 1e-9))
            ticks))
    [ 7; 19; 23 ];
  Alcotest.(check bool) "some fault actually hit the reopt site" true
    !any_stale

let test_coverage_with_rates () =
  let inst = Instance.figure3 () in
  let pb = Sampling.make_problem ~k:0.5 inst in
  let rates = Array.make (Graph.num_edges inst.Instance.graph) 0.0 in
  rates.(0) <- 0.5 (* central link at 50% -> covers 2 of 6 units *);
  Alcotest.(check (float 1e-9)) "half of heavy traffics" (2.0 /. 6.0)
    (Sampling.coverage_with_rates pb ~rates);
  rates.(0) <- 1.0;
  Alcotest.(check (float 1e-9)) "full central" (4.0 /. 6.0)
    (Sampling.coverage_with_rates pb ~rates);
  (* cascade: two links on one path cap at 1 *)
  rates.(0) <- 0.8;
  rates.(1) <- 0.8;
  let c = Sampling.coverage_with_rates pb ~rates in
  Alcotest.(check bool) "capped at path volume" true (c <= 1.0 +. 1e-9)

let test_dynamic_loop_maintains_threshold () =
  let inst = pop10_instance 4 in
  let pb =
    Sampling.make_problem ~k:0.85
      ~costs:(Sampling.load_scaled_costs inst ())
      inst
  in
  let placement = Sampling.solve_milp ~options:fast_options pb in
  let ticks =
    Sampling.run_dynamic pb ~installed:placement.Sampling.installed
      ~threshold:0.8 ~steps:20 ~sigma:0.2 ~seed:9
  in
  Alcotest.(check int) "20 ticks" 20 (List.length ticks);
  List.iter
    (fun (t : Sampling.tick) ->
      (* after a re-optimization, coverage is back above k or rates
         saturated; without one, coverage stayed above the threshold *)
      if t.Sampling.reoptimized then
        Alcotest.(check bool) "reopt improves or saturates" true
          (t.Sampling.fraction_after >= t.Sampling.fraction_before -. 1e-9)
      else
        Alcotest.(check bool) "no reopt above threshold" true
          (t.Sampling.fraction_before >= 0.8 -. 1e-9))
    ticks

let test_dynamic_loop_reoptimizes_sometimes () =
  let inst = pop10_instance 5 in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let placement = Sampling.solve_milp ~options:fast_options pb in
  let ticks =
    Sampling.run_dynamic pb ~installed:placement.Sampling.installed
      ~threshold:0.9 ~steps:60 ~sigma:0.5 ~seed:77
  in
  Alcotest.(check bool) "at least one reoptimization" true
    (List.exists (fun (t : Sampling.tick) -> t.Sampling.reoptimized) ticks)

let prop_milp_feasible_random =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"LP3 solutions satisfy all constraint families"
    ~count:6 gen (fun seed ->
      let inst = pop10_instance (1 + (seed mod 7)) in
      let rng = Prng.create seed in
      let k = 0.6 +. Prng.float rng 0.35 in
      let h =
        Array.map
          (fun _ -> Prng.float rng (k /. 2.0))
          (Array.make (Array.length inst.Instance.demands) 0)
      in
      let pb = Sampling.make_problem ~k ~h inst in
      let s = Sampling.solve_milp ~options:fast_options pb in
      s.Sampling.fraction >= k -. 1e-6
      && Array.for_all (fun r -> r >= -1e-9 && r <= 1.0 +. 1e-9) s.Sampling.rates)

let suite =
  [
    Alcotest.test_case "milp figure3" `Quick test_milp_figure3;
    Alcotest.test_case "milp pop10" `Quick test_milp_pop10;
    Alcotest.test_case "milp demand floors" `Quick test_milp_with_demand_floors;
    Alcotest.test_case "sampling cheaper" `Quick test_sampling_cheaper_than_full_monitoring;
    Alcotest.test_case "reoptimize fixed" `Quick test_reoptimize_fixed_placement;
    Alcotest.test_case "reoptimize infeasible" `Quick test_reoptimize_infeasible;
    Alcotest.test_case "reoptimize cost" `Quick test_reoptimize_cost_not_above_milp;
    Alcotest.test_case "flow reopt figure3" `Quick test_reoptimize_flow_figure3;
    Alcotest.test_case "flow reopt cost bound" `Quick test_reoptimize_flow_cost_bounds_lp;
    Alcotest.test_case "flow reopt demand floors" `Quick test_reoptimize_flow_demand_floors;
    Alcotest.test_case "flow reopt infeasible" `Quick test_reoptimize_flow_infeasible;
    Alcotest.test_case "flow kernels identical" `Quick test_flow_kernels_identical;
    Alcotest.test_case "drift walk warm matches ssp" `Quick test_drift_walk_warm_matches_ssp;
    Alcotest.test_case "dynamic flow kernels agree" `Quick test_dynamic_flow_kernels_agree;
    Alcotest.test_case "dynamic flow kernel chaos" `Quick test_dynamic_flow_kernel_under_chaos;
    Alcotest.test_case "coverage with rates" `Quick test_coverage_with_rates;
    Alcotest.test_case "dynamic maintains threshold" `Quick test_dynamic_loop_maintains_threshold;
    Alcotest.test_case "dynamic reoptimizes" `Quick test_dynamic_loop_reoptimizes_sometimes;
    QCheck_alcotest.to_alcotest prop_milp_feasible_random;
    Alcotest.test_case "cold pivots pinned" `Quick test_cold_pivots_pinned;
  ]
