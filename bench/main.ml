(* Benchmark and figure-regeneration harness.

   Usage:
     dune exec bench/main.exe                 # every experiment
     dune exec bench/main.exe -- fig7 micro   # a selection
     dune exec bench/main.exe -- --compare-warmstart
                                              # cold vs warm-started MIP solves
     dune exec bench/main.exe -- --compare-flow
                                              # PPME* LP vs flow kernels (cold/warm)
     dune exec bench/main.exe -- --compare-jobs
                                              # parallel B&B scaling, jobs 1/2/4
   Experiments: fig3 fig7 fig8 fig9 fig10 fig11 dynamic warmstart
   flowscale parscale sampling campaign ablation micro

   Set MONPOS_BENCH_FULL=1 for paper-scale runs (20 seeds everywhere,
   full sweeps, larger branch-and-bound budgets). The default
   configuration is sized to finish in a few minutes while preserving
   every qualitative shape of the paper's figures. *)

module Scenario = Monpos.Scenario
module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Mecf = Monpos.Mecf
module Active = Monpos.Active
module Pop = Monpos_topo.Pop
module Synthetic = Monpos_topo.Synthetic
module Traffic = Monpos_traffic.Traffic
module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Table = Monpos_util.Table
module Prng = Monpos_util.Prng
module Clock = Monpos_obs.Clock
module Metrics = Monpos_obs.Metrics
module Json = Monpos_obs.Json
module Mincost = Monpos_flow.Mincost

let full_mode =
  match Sys.getenv_opt "MONPOS_BENCH_FULL" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let seeds n = List.init n (fun i -> i + 1)

let section title =
  Printf.printf "\n=== %s ===\n" title

let note fmt = Printf.printf (fmt ^^ "\n")

(* Monotonic wall-clock seconds (Sys.time measures CPU time and
   under-reports whenever the process is descheduled). *)
let wall f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.elapsed t0)

(* Experiments publish headline numbers (coverage achieved, device
   counts, ...) into the JSON report through [kv]; the per-phase runner
   collects and clears them. *)
let extras : (string * Json.t) list ref = ref []
let kv key value = extras := (key, value) :: !extras
let kv_float key value = kv key (Json.Float value)

(* ------------------------------------------------------------------ *)
(* Figure 3: the greedy counterexample (exhibit, also a sanity check) *)

let fig3 () =
  section "Figure 3 — greedy vs optimal counterexample";
  let inst = Instance.figure3 () in
  let g = Passive.greedy inst in
  let e = Passive.solve_exact inst in
  Table.print
    ~header:[ "method"; "devices"; "coverage %" ]
    [
      [ "greedy"; string_of_int g.Passive.count;
        Table.float_cell ~decimals:1 (100.0 *. g.Passive.fraction) ];
      [ "ILP (optimal)"; string_of_int e.Passive.count;
        Table.float_cell ~decimals:1 (100.0 *. e.Passive.fraction) ];
    ];
  note "paper: greedy places 3 measurement points, the optimum 2.";
  kv "greedy_devices" (Json.Int g.Passive.count);
  kv "ilp_devices" (Json.Int e.Passive.count);
  kv_float "greedy_coverage" g.Passive.fraction;
  kv_float "ilp_coverage" e.Passive.fraction;
  if g.Passive.count <> 3 || e.Passive.count <> 2 then
    note "!! MISMATCH with the paper's example"

(* ------------------------------------------------------------------ *)
(* Figures 7 and 8: passive placement, greedy vs ILP                   *)

let passive_figure ~name ~preset ~seeds:sds ~node_limit ~paper_note () =
  section name;
  let points, elapsed =
    wall (fun () ->
        Scenario.passive_sweep ~preset ~seeds:sds
          ~ks:[ 75; 80; 85; 90; 95; 100 ] ?node_limit ())
  in
  let rows =
    List.map
      (fun (p : Scenario.passive_point) ->
        [
          string_of_int p.Scenario.k_percent;
          Table.float_cell ~decimals:1 p.Scenario.greedy_static_devices;
          Table.float_cell ~decimals:1 p.Scenario.greedy_devices;
          Table.float_cell ~decimals:1 p.Scenario.ilp_devices
          ^ (if p.Scenario.ilp_optimal then "" else " *");
          Table.float_cell
            (p.Scenario.greedy_static_devices /. p.Scenario.ilp_devices);
        ])
      points
  in
  Table.print
    ~header:
      [ "monitored %"; "greedy(load)"; "greedy(adapt)"; "ILP"; "load/ILP" ]
    rows;
  if
    List.exists
      (fun (p : Scenario.passive_point) -> not p.Scenario.ilp_optimal)
      points
  then
    note "* incumbent under a branch-and-bound node budget (not proven optimal)";
  note "%s" paper_note;
  note "(%d seeds, %.1fs)" (List.length sds) elapsed;
  List.iter
    (fun (p : Scenario.passive_point) ->
      let pct = string_of_int p.Scenario.k_percent in
      kv_float ("greedy_devices_k" ^ pct) p.Scenario.greedy_devices;
      kv_float ("ilp_devices_k" ^ pct) p.Scenario.ilp_devices)
    points

let fig7 () =
  passive_figure ~name:"Figure 7 — passive placement, 10-router POP (27 links)"
    ~preset:`Pop10
    ~seeds:(seeds (if full_mode then 20 else 10))
    ~node_limit:None
    ~paper_note:
      "paper: near-linear growth until 95%, then a sharp jump at 100%;\n\
       the greedy needs about twice the ILP's devices on average."
    ()

let fig8 () =
  passive_figure ~name:"Figure 8 — passive placement, 15-router POP (71 links)"
    ~preset:`Pop15
    ~seeds:(seeds (if full_mode then 20 else 5))
    ~node_limit:(Some (if full_mode then 3_000_000 else 250_000))
    ~paper_note:
      "paper: devices range from 16 to 41; two linear regimes (75-85,\n\
       85-95) and a big increase when switching from 95% to 100%."
    ()

(* ------------------------------------------------------------------ *)
(* Figures 9, 10, 11: active beacon placement                          *)

let active_figure ~name ~preset ~seeds:sds ~sizes ~paper_note () =
  section name;
  let points, elapsed =
    wall (fun () -> Scenario.active_sweep ~preset ~seeds:sds ~sizes ())
  in
  let rows =
    List.map
      (fun (p : Scenario.active_point) ->
        [
          string_of_int p.Scenario.vb_size;
          Table.float_cell ~decimals:1 p.Scenario.probes;
          Table.float_cell ~decimals:1 p.Scenario.thiran_beacons;
          Table.float_cell ~decimals:1 p.Scenario.greedy_beacons;
          Table.float_cell ~decimals:1 p.Scenario.ilp_beacons
          ^ (if p.Scenario.ilp_optimal then "" else " *");
          Table.float_cell
            (p.Scenario.ilp_beacons /. max 1e-9 p.Scenario.thiran_beacons);
        ])
      points
  in
  Table.print
    ~header:[ "|V_B|"; "probes"; "Thiran"; "greedy"; "ILP"; "ILP/Thiran" ]
    rows;
  if
    List.exists
      (fun (p : Scenario.active_point) -> not p.Scenario.ilp_optimal)
      points
  then
    note "* incumbent under a branch-and-bound node budget (not proven optimal)";
  note "%s" paper_note;
  note "(%d seeds, %.1fs)" (List.length sds) elapsed;
  List.iter
    (fun (p : Scenario.active_point) ->
      let vb = string_of_int p.Scenario.vb_size in
      kv_float ("ilp_beacons_vb" ^ vb) p.Scenario.ilp_beacons;
      kv_float ("greedy_beacons_vb" ^ vb) p.Scenario.greedy_beacons;
      kv_float ("thiran_beacons_vb" ^ vb) p.Scenario.thiran_beacons;
      kv_float ("probes_vb" ^ vb) p.Scenario.probes)
    points

let sizes_up_to ?(step = 1) n =
  let rec go i acc = if i > n then List.rev acc else go (i + step) (i :: acc) in
  let l = go 1 [] in
  if List.mem n l then l else l @ [ n ]

let fig9 () =
  active_figure ~name:"Figure 9 — beacon placement, 15-router POP"
    ~preset:`Pop15
    ~seeds:(seeds (if full_mode then 20 else 10))
    ~sizes:(sizes_up_to 15)
    ~paper_note:
      "paper: the ILP always places the fewest beacons; at |V_B| = 15 it\n\
       halves the [15] baseline, and the greedy stays within ~1 of the ILP."
    ()

let fig10 () =
  active_figure ~name:"Figure 10 — beacon placement, 29-router POP"
    ~preset:`Pop29
    ~seeds:(seeds (if full_mode then 20 else 5))
    ~sizes:(sizes_up_to ~step:(if full_mode then 1 else 2) 29)
    ~paper_note:
      "paper: same ordering; the beacon count is reduced by ~33% vs [15]\n\
       and the ILP curve dips after a |V_B| threshold."
    ()

let fig11 () =
  active_figure ~name:"Figure 11 — beacon placement, 80-router POP"
    ~preset:`Pop80
    ~seeds:(seeds (if full_mode then 20 else 3))
    ~sizes:(sizes_up_to ~step:(if full_mode then 5 else 10) 80)
    ~paper_note:
      "paper: ~33% fewer beacons than [15]; the greedy drifts up to ~7\n\
       beacons above the ILP at |V_B| = 80."
    ()

(* ------------------------------------------------------------------ *)
(* §5.4 dynamic traffic                                                *)

let dynamic () =
  section "Dynamic traffic (§5.4) — threshold-triggered PPME* re-optimization";
  let points, elapsed =
    wall (fun () ->
        Scenario.dynamic_run ~preset:`Pop10 ~seed:1 ~k:0.9 ~threshold:0.88
          ~steps:(if full_mode then 60 else 30)
          ~sigma:0.35 ())
  in
  let rows =
    List.map
      (fun (p : Scenario.dynamic_point) ->
        [
          string_of_int p.Scenario.step;
          Table.float_cell ~decimals:3 p.Scenario.coverage_before;
          Table.float_cell ~decimals:3 p.Scenario.coverage_after;
          string_of_int p.Scenario.reoptimizations;
        ])
      points
  in
  Table.print
    ~header:[ "step"; "cov before"; "cov after"; "reopts so far" ]
    rows;
  let last = List.nth points (List.length points - 1) in
  kv_float "final_coverage" last.Scenario.coverage_after;
  kv "reoptimizations" (Json.Int last.Scenario.reoptimizations);
  note
    "devices never move; only sampling rates are recomputed (a polynomial\n\
     LP / min-cost-flow computation, §5.4). %d re-optimizations, %.1fs."
    last.Scenario.reoptimizations elapsed

(* ------------------------------------------------------------------ *)
(* Ablation: Theorems 1 & 2 made executable + solver cross-validation  *)

let ablation () =
  section "Ablation — all exact formulations agree (Theorems 1 and 2)";
  let sds = seeds (if full_mode then 10 else 3) in
  let agreement, t_agree =
    wall (fun () -> Scenario.solver_agreement ~seeds:sds ~k:0.9 ())
  in
  note "%d instances, methods: %s -> %d disagreement(s)  [%.1fs]"
    agreement.Scenario.instances
    (String.concat ", " agreement.Scenario.methods)
    agreement.Scenario.disagreements t_agree;
  if agreement.Scenario.disagreements > 0 then
    note "!! exact formulations disagreed — this is a bug";
  (* per-method timing + quality on one representative instance *)
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let k = 0.9 in
  let run name f =
    let sol, t = wall f in
    [
      name;
      string_of_int sol.Passive.count;
      (if sol.Passive.optimal then "yes" else "no");
      Printf.sprintf "%.3f" t;
    ]
  in
  let rows =
    [
      run "greedy (§4.3)" (fun () -> Passive.greedy ~k inst);
      run "exact set-cover B&B" (fun () -> Passive.solve_exact ~k inst);
      run "MIP Linear program 2" (fun () -> Passive.solve_mip ~k ~formulation:`Lp2 inst);
      run "MIP Linear program 1" (fun () -> Passive.solve_mip ~k ~formulation:`Lp1 inst);
      run "MECF MIP (Thm 2)" (fun () -> Mecf.solve_mip ~k inst);
      run "MECF flow heuristic" (fun () -> Mecf.flow_heuristic ~k inst);
      run "randomized rounding" (fun () ->
          Passive.randomized_rounding ~k ~seed:1 inst);
    ]
  in
  Table.print ~header:[ "method"; "devices"; "proved"; "seconds" ] rows;
  note
    "the compact Linear program 2 dominates the arc-path Linear program 1\n\
     (the paper's point about its formulation being faster), and the\n\
     combinatorial branch-and-bound dominates both.";
  (* branching-rule ablation on the LP2 MIP *)
  let time_branching rule =
    let opts = { Monpos_lp.Mip.default_options with Monpos_lp.Mip.branching = rule } in
    let _, t = wall (fun () -> Passive.solve_mip ~k ~options:opts inst) in
    t
  in
  note "branching ablation (LP2 MIP): pseudocost %.3fs vs most-fractional %.3fs"
    (time_branching Monpos_lp.Mip.Pseudocost)
    (time_branching Monpos_lp.Mip.Most_fractional);
  (* LP bound quality *)
  let lp = Passive.lp_bound ~k inst in
  let opt = (Passive.solve_exact ~k inst).Passive.count in
  note "LP relaxation bound %.2f vs optimum %d (integrality gap %.2fx)" lp opt
    (float_of_int opt /. lp)

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)

let micro () =
  section "Micro-benchmarks (Bechamel)";
  let open Bechamel in
  let pop10 = Pop.make_preset `Pop10 ~seed:1 in
  let inst10 = Instance.of_pop pop10 ~seed:131 in
  let pop15 = Pop.make_preset `Pop15 ~seed:1 in
  let inst15 = Instance.of_pop pop15 ~seed:131 in
  let routers15 = Pop.routers pop15 in
  let vb10 =
    let arr = Array.of_list routers15 in
    let rng = Prng.create 7 in
    Prng.shuffle rng arr;
    List.sort compare (Array.to_list (Array.sub arr 0 10))
  in
  let probes15 =
    Active.compute_probes ~targets:vb10 pop15.Pop.graph ~candidates:vb10
  in
  let pb10 = Sampling.make_problem ~k:0.85 inst10 in
  let installed10 = (Passive.greedy ~k:0.9 inst10).Passive.monitors in
  let lp2_model =
    (* LP relaxation pricing: solve the LP2 relaxation of fig7's instance *)
    fun () -> ignore (Passive.lp_bound ~k:0.9 inst10)
  in
  let tests =
    Test.make_grouped ~name:"monpos"
      [
        Test.make ~name:"fig7/greedy-pop10"
          (Staged.stage (fun () -> ignore (Passive.greedy ~k:0.9 inst10)));
        Test.make ~name:"fig7/exact-pop10"
          (Staged.stage (fun () -> ignore (Passive.solve_exact ~k:0.9 inst10)));
        Test.make ~name:"fig8/greedy-pop15"
          (Staged.stage (fun () -> ignore (Passive.greedy ~k:0.9 inst15)));
        Test.make ~name:"fig8/exact-pop15-k90"
          (Staged.stage (fun () -> ignore (Passive.solve_exact ~k:0.9 inst15)));
        Test.make ~name:"fig9/probes-pop15-vb10"
          (Staged.stage (fun () ->
               ignore
                 (Active.compute_probes ~targets:vb10 pop15.Pop.graph
                    ~candidates:vb10)));
        Test.make ~name:"fig9/ilp-pop15-vb10"
          (Staged.stage (fun () ->
               ignore (Active.place_ilp probes15 ~candidates:vb10)));
        Test.make ~name:"dynamic/ppme-star-lp"
          (Staged.stage (fun () ->
               ignore (Sampling.reoptimize pb10 ~installed:installed10)));
        Test.make ~name:"solver/lp2-relaxation"
          (Staged.stage lp2_model);
        Test.make ~name:"substrate/dijkstra-pop15"
          (Staged.stage (fun () ->
               ignore
                 (Paths.dijkstra pop15.Pop.graph ~weight:(fun _ -> 1.0) 0)));
        Test.make ~name:"substrate/mecf-flow-heuristic"
          (Staged.stage (fun () -> ignore (Mecf.flow_heuristic ~k:0.9 inst10)));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if full_mode then 2.0 else 0.5))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg Toolkit.Instance.[ monotonic_clock ] tests in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| "run" |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] ->
        let cell =
          if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        rows := [ name; cell ] :: !rows
      | _ -> rows := [ name; "n/a" ] :: !rows)
    results;
  Table.print ~header:[ "benchmark"; "time/run" ]
    (List.sort compare !rows);
  (* Bechamel picks how many times each kernel runs from its timings,
     so the solver counters of this phase would measure timing alone:
     report none *)
  Metrics.reset Metrics.default

(* ------------------------------------------------------------------ *)

(* §5: cost of sampling-capable deployments as the coverage target
   sweeps (no paper figure; quantifies LP3's install/exploit
   trade-off) *)
let sampling_sweep () =
  section "PPME (§5) — deployment + exploitation cost vs coverage target";
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let costs = Sampling.load_scaled_costs inst ~install:8.0 () in
  let rows =
    List.map
      (fun kp ->
        let k = float_of_int kp /. 100.0 in
        let pb = Sampling.make_problem ~k ~costs inst in
        let s = Sampling.solve_milp pb in
        kv_float
          (Printf.sprintf "achieved_coverage_k%d" kp)
          s.Sampling.fraction;
        [
          string_of_int kp;
          string_of_int (List.length s.Sampling.installed);
          Table.float_cell s.Sampling.install_cost;
          Table.float_cell s.Sampling.exploit_cost;
          Table.float_cell s.Sampling.total_cost;
          Table.float_cell ~decimals:1 (100.0 *. s.Sampling.fraction);
        ])
      [ 50; 60; 70; 80; 90; 95; 100 ]
  in
  Table.print
    ~header:[ "k %"; "devices"; "install"; "exploit"; "total"; "achieved %" ]
    rows;
  note
    "exploitation cost climbs with k while the device count moves in\n\
     steps: LP3 trades sampling rate against hardware exactly as section 5\n\
     frames it (solved to a 1%% gap by default)."

(* Warm-start ablation (also reachable as --compare-warmstart): run
   the MIP-backed suites with branch-and-bound node re-solves done
   cold (primal from the slack basis) and warm (dual simplex from the
   parent basis) and compare total simplex pivot counts. Solutions are
   identical by construction; only the work per node changes. *)
let warmstart () =
  section "Warm starts — cold primal vs dual-simplex node re-solves";
  let counter snap name =
    match Metrics.find snap name with
    | Some (Metrics.Counter_value v) -> v
    | _ -> 0
  in
  let labeled snap name labels =
    match Metrics.find ~labels snap name with
    | Some (Metrics.Counter_value v) -> v
    | _ -> 0
  in
  (* Each sub-run gets its own freshly reset registry window so the
     pivot counters are attributable to that configuration alone. *)
  let measure f =
    Metrics.reset Metrics.default;
    let (), secs = wall f in
    let snap = Metrics.snapshot Metrics.default in
    ( Metrics.sum_counter snap "simplex.iterations",
      labeled snap "simplex.iterations" [ ("phase", "dual") ],
      counter snap "mip.nodes",
      counter snap "simplex.warm_starts",
      (counter snap "simplex.row_entries", counter snap "simplex.dj_refreshes"),
      secs )
  in
  let mip_opts warm_on =
    { Monpos_lp.Mip.default_options with Monpos_lp.Mip.warm_start = warm_on }
  in
  let nseeds = if full_mode then 10 else 5 in
  let ppm warm_on () =
    List.iter
      (fun seed ->
        let pop = Pop.make_preset `Pop10 ~seed in
        let inst = Instance.of_pop pop ~seed:(seed * 131) in
        List.iter
          (fun k ->
            ignore (Passive.solve_mip ~k ~options:(mip_opts warm_on) inst))
          [ 0.8; 0.9; 1.0 ])
      (seeds nseeds)
  in
  let ppme warm_on () =
    let pop = Pop.make_preset `Pop10 ~seed:1 in
    let inst = Instance.of_pop pop ~seed:131 in
    let costs = Sampling.load_scaled_costs inst ~install:8.0 () in
    List.iter
      (fun k ->
        let pb = Sampling.make_problem ~k ~costs inst in
        let options =
          {
            Sampling.default_milp_options with
            Monpos_lp.Mip.warm_start = warm_on;
          }
        in
        ignore (Sampling.solve_milp ~options pb))
      [ 0.7; 0.9 ]
  in
  let suites =
    [ ("ppm", "PPM(k) Pop10 x seeds", ppm); ("ppme", "PPME LP3 Pop10", ppme) ]
  in
  let ppm_ratio = ref 0.0 in
  let rows =
    List.map
      (fun (key, label, suite) ->
        let pivots_cold, _, nodes_cold, _, _, secs_cold = measure (suite false) in
        let ( pivots_warm,
              dual_warm,
              nodes_warm,
              warm_starts,
              (row_entries, dj_refreshes),
              secs_warm ) =
          measure (suite true)
        in
        (* dual-phase work per dual pivot: pivot-row entries formed and
           full reduced-cost refreshes *)
        let per_dual x = float_of_int x /. float_of_int (max 1 dual_warm) in
        let ratio =
          float_of_int pivots_cold /. float_of_int (max 1 pivots_warm)
        in
        if key = "ppm" then ppm_ratio := ratio;
        kv (key ^ "_pivots_cold") (Json.Int pivots_cold);
        kv (key ^ "_pivots_warm") (Json.Int pivots_warm);
        kv (key ^ "_dual_pivots") (Json.Int dual_warm);
        kv (key ^ "_warm_starts") (Json.Int warm_starts);
        kv (key ^ "_row_entries") (Json.Int row_entries);
        kv (key ^ "_dj_refreshes") (Json.Int dj_refreshes);
        kv_float (key ^ "_pivot_ratio") ratio;
        kv_float (key ^ "_seconds_cold") secs_cold;
        kv_float (key ^ "_seconds_warm") secs_warm;
        [
          label;
          string_of_int pivots_cold;
          string_of_int pivots_warm;
          Table.float_cell ~decimals:2 ratio;
          Printf.sprintf "%d/%d" dual_warm pivots_warm;
          string_of_int warm_starts;
          Printf.sprintf "%d/%d" nodes_cold nodes_warm;
          Printf.sprintf "%.2f/%.2f" secs_cold secs_warm;
          Table.float_cell ~decimals:1 (per_dual row_entries);
          Table.float_cell ~decimals:3 (per_dual dj_refreshes);
        ])
      suites
  in
  Table.print
    ~header:
      [
        "suite"; "pivots cold"; "pivots warm"; "speedup x"; "dual/warm";
        "warm starts"; "nodes c/w"; "secs c/w"; "row entries/dual pivot";
        "dj refreshes/dual pivot";
      ]
    rows;
  note
    "same trees, same answers: the dual simplex re-optimizes each child\n\
     from its parent's basis instead of re-running both primal phases.";
  if !ppm_ratio >= 2.0 then
    note "PPM pivot reduction %.2fx (target >= 2x): OK" !ppm_ratio
  else
    note "!! PPM pivot reduction %.2fx is below the 2x target" !ppm_ratio

(* Flow-kernel scaling (also reachable as --compare-flow): replay the
   same sequence of §5.4 drift ticks through every PPME* engine — the
   LP relaxation, the SSP min-cost-flow kernel, a cold network simplex
   (network rebuilt per tick) and a warm one (single persistent
   network, spanning-tree basis carried across ticks) — and compare
   wall time plus pivot counts. The three flow kernels must agree on
   the exploitation cost; the LP sits at or above it (the flow model
   relaxes the one-rate-per-device coupling). *)
let flowscale () =
  section "PPME* kernels — LP vs SSP vs network simplex (cold/warm)";
  let nticks = if full_mode then 12 else 6 in
  let endpoints g count =
    let nodes = Array.init (Graph.num_nodes g) (fun i -> i) in
    Prng.shuffle (Prng.create 17) nodes;
    Array.to_list (Array.sub nodes 0 (min count (Array.length nodes)))
  in
  let instance g count =
    let matrix = Traffic.generate g ~endpoints:(endpoints g count) ~seed:41 in
    Instance.make g matrix
  in
  let cases =
    let waxman n = Synthetic.waxman ~n ~alpha:0.22 ~beta:0.35 ~seed:5 in
    [
      ("waxman60", instance (waxman 60) 12);
      ("waxman100", instance (waxman 100) 18);
      ("waxman140", instance (waxman 140) 24);
      ("grid7x7", instance (Synthetic.grid 7 7) 14);
      ("grid10x10", instance (Synthetic.grid 10 10) 20);
    ]
    @
    if full_mode then [ ("waxman200", instance (waxman 200) 30) ]
    else []
  in
  let largest_ok = ref true in
  let largest_label = ref "" in
  let largest_links = ref (-1) in
  let agree_all = ref true in
  let rows =
    List.map
      (fun (label, inst) ->
        let pb = Sampling.make_problem ~k:0.9 inst in
        (* devices everywhere a packet flows: always feasible, even
           after drift, so every engine solves every tick *)
        let installed =
          List.filter
            (fun e -> inst.Instance.loads.(e) > 0.0)
            (List.init (Graph.num_edges inst.Instance.graph) Fun.id)
        in
        (* one drifted-problem sequence shared by all engines *)
        let problems =
          let acc = ref [ pb ] in
          let demands = ref inst.Instance.demands in
          for i = 1 to nticks do
            demands := Traffic.drift !demands ~seed:(997 * i) ~sigma:0.15;
            acc :=
              { pb with Sampling.instance = Instance.replace_demands inst !demands }
              :: !acc
          done;
          List.rev !acc
        in
        let time_ticks (solve : Sampling.problem -> Sampling.solution) =
          Metrics.reset Metrics.default;
          let costs = ref [] in
          let (), secs =
            wall (fun () ->
                List.iter
                  (fun p -> costs := (solve p).Sampling.exploit_cost :: !costs)
                  problems)
          in
          (List.rev !costs, secs, Metrics.snapshot Metrics.default)
        in
        let lp_costs, secs_lp, _ =
          time_ticks (fun p -> Sampling.reoptimize p ~installed)
        in
        let ssp_costs, secs_ssp, _ =
          time_ticks (fun p ->
              Sampling.reoptimize_flow ~algo:Mincost.Ssp p ~installed)
        in
        let cold_costs, secs_cold, snap_cold =
          time_ticks (fun p ->
              Sampling.reoptimize_flow ~algo:Mincost.Net_simplex p ~installed)
        in
        let warm_costs, secs_warm, snap_warm =
          let rp = ref None in
          time_ticks (fun p ->
              let r =
                match !rp with
                | Some r -> r
                | None ->
                  let r =
                    Sampling.reopt_create ~algo:Mincost.Net_simplex p ~installed
                  in
                  rp := Some r;
                  r
              in
              Sampling.reopt_solve r p)
        in
        let pivots_cold = Metrics.sum_counter snap_cold "flow.pivots" in
        let pivots_warm = Metrics.sum_counter snap_warm "flow.pivots" in
        (* pricing against tree-update work, per pivot *)
        let per_pivot name =
          let per snap pivots =
            float_of_int (Metrics.sum_counter snap name)
            /. float_of_int (max 1 pivots)
          in
          Printf.sprintf "%.0f/%.0f" (per snap_cold pivots_cold)
            (per snap_warm pivots_warm)
        in
        (* the flow kernels solve the same relaxation: exact agreement;
           the LP solves the tighter coupled model: never cheaper *)
        let rel_eq a b = Float.abs (a -. b) <= 1e-6 *. (1.0 +. Float.abs b) in
        let agree =
          List.for_all2 rel_eq ssp_costs cold_costs
          && List.for_all2 rel_eq cold_costs warm_costs
          && List.for_all2
               (fun flow lp -> flow <= lp +. (1e-6 *. (1.0 +. Float.abs lp)))
               warm_costs lp_costs
        in
        if not agree then agree_all := false;
        let speedup_warm = secs_lp /. Float.max 1e-9 secs_warm in
        let speedup_cold = secs_lp /. Float.max 1e-9 secs_cold in
        (* cold/warm: higher is better, as Bench_check reads it *)
        let pivot_ratio =
          float_of_int pivots_cold /. float_of_int (max 1 pivots_warm)
        in
        let links = Graph.num_edges inst.Instance.graph in
        if links > !largest_links then begin
          largest_links := links;
          largest_label := label;
          largest_ok := speedup_warm >= 5.0
        end;
        kv_float (label ^ "_seconds_lp") secs_lp;
        kv_float (label ^ "_seconds_ssp") secs_ssp;
        kv_float (label ^ "_seconds_ns_cold") secs_cold;
        kv_float (label ^ "_seconds_ns_warm") secs_warm;
        kv_float (label ^ "_speedup_warm_vs_lp") speedup_warm;
        kv_float (label ^ "_speedup_cold_vs_lp") speedup_cold;
        kv_float (label ^ "_pivot_ratio_cold_warm") pivot_ratio;
        kv (label ^ "_kernels_agree") (Json.Bool agree);
        [
          label;
          string_of_int links;
          Printf.sprintf "%.3f" secs_lp;
          Printf.sprintf "%.3f" secs_ssp;
          Printf.sprintf "%.3f/%.3f" secs_cold secs_warm;
          Table.float_cell ~decimals:1 speedup_warm;
          Printf.sprintf "%d/%d" pivots_cold pivots_warm;
          per_pivot "flow.priced_arcs";
          per_pivot "flow.tree_nodes";
          (if agree then "yes" else "NO");
        ])
      cases
  in
  Table.print
    ~header:
      [
        "instance"; "links"; "lp s"; "ssp s"; "ns cold/warm s"; "speedup x";
        "pivots c/w"; "priced/pivot c/w"; "tree nodes/pivot c/w"; "agree";
      ]
    rows;
  note
    "each engine replays the same %d drift ticks; the warm network simplex\n\
     keeps one spanning-tree basis alive across ticks where the LP re-solves\n\
     from scratch."
    (nticks + 1);
  if !agree_all then note "flow kernels agree on every tick: OK"
  else note "!! flow kernels disagree on some tick";
  if !largest_ok then
    note "warm network simplex >= 5x faster than the LP on the largest \
          instance (%s): OK"
      !largest_label
  else
    note "!! warm network simplex NOT >= 5x faster than the LP on the \
          largest instance (%s)"
      !largest_label

(* Parallel branch-and-bound scaling (also reachable as
   --compare-jobs): solve the same PPM(k) MIPs with jobs = 1, 2, 4
   worker domains in deterministic mode and compare wall time. The
   determinism contract says the device set, objective, node count and
   optimality proof must be identical for every jobs value — the run
   fails its [parscale_identical] gate otherwise. The speedup gate
   ([parscale_gate_j4], >= 2.5x at jobs = 4 on the largest instance)
   only arms on machines with at least 4 cores: speedup measured on an
   oversubscribed core is noise, and the report says which case
   applied. *)
let parscale () =
  section "Parallel B&B — wall clock vs worker domains (deterministic mode)";
  let cores = Domain.recommended_domain_count () in
  let endpoints g count =
    let nodes = Array.init (Graph.num_nodes g) (fun i -> i) in
    Prng.shuffle (Prng.create 17) nodes;
    Array.to_list (Array.sub nodes 0 (min count (Array.length nodes)))
  in
  let instance g count =
    let matrix = Traffic.generate g ~endpoints:(endpoints g count) ~seed:41 in
    Instance.make g matrix
  in
  (* node budgets keep the runs affordable; a node-budget stop is part
     of the deterministic state (unlike a deadline stop), so capped
     runs still satisfy the identical-across-jobs contract *)
  let cases =
    let waxman n = Synthetic.waxman ~n ~alpha:0.22 ~beta:0.35 ~seed:5 in
    [
      ("waxman600", instance (waxman 600) 40, 0.93, 40);
      ("grid24x24", instance (Synthetic.grid 24 24) 32, 0.90, 28);
    ]
    @
    if full_mode then [ ("waxman1000", instance (waxman 1000) 56, 0.93, 32) ]
    else []
  in
  let jobs_list = [ 1; 2; 4 ] in
  let identical_all = ref true in
  let largest_speedup = ref nan in
  let largest_label = ref "" in
  let largest_links = ref (-1) in
  let rows =
    List.map
      (fun (label, inst, k, max_nodes) ->
        let runs =
          List.map
            (fun jobs ->
              Metrics.reset Metrics.default;
              let options =
                {
                  Monpos_lp.Mip.default_options with
                  Monpos_lp.Mip.jobs;
                  max_nodes;
                  (* generous: a deadline stop is the one
                     timing-dependent exit, so the node budget must be
                     what ends the search *)
                  time_limit = 900.0;
                }
              in
              let sol, secs =
                wall (fun () -> Passive.solve_mip ~k ~options inst)
              in
              let snap = Metrics.snapshot Metrics.default in
              let nodes =
                match Metrics.find snap "mip.nodes" with
                | Some (Metrics.Counter_value v) -> v
                | _ -> 0
              in
              (jobs, sol, nodes, secs))
            jobs_list
        in
        (* scheduling-independence: every jobs value must report the
           same devices, coverage, node count and proof status *)
        let fingerprint (_, (sol : Passive.solution), nodes, _) =
          Printf.sprintf "%d|%s|%h|%b|%d" sol.Passive.count
            (String.concat ","
               (List.map string_of_int sol.Passive.monitors))
            sol.Passive.fraction sol.Passive.optimal nodes
        in
        let reference = fingerprint (List.hd runs) in
        let identical =
          List.for_all (fun r -> fingerprint r = reference) runs
        in
        if not identical then identical_all := false;
        let secs_of jobs =
          let _, _, _, secs =
            List.find (fun (j, _, _, _) -> j = jobs) runs
          in
          secs
        in
        let t1 = secs_of 1 and t2 = secs_of 2 and t4 = secs_of 4 in
        let speedup2 = t1 /. Float.max 1e-9 t2 in
        let speedup4 = t1 /. Float.max 1e-9 t4 in
        let _, sol1, nodes1, _ = List.hd runs in
        let links = Graph.num_edges inst.Instance.graph in
        if links > !largest_links then begin
          largest_links := links;
          largest_label := label;
          largest_speedup := speedup4
        end;
        kv_float (label ^ "_seconds_j1") t1;
        kv_float (label ^ "_seconds_j2") t2;
        kv_float (label ^ "_seconds_j4") t4;
        kv_float (label ^ "_speedup_j2") speedup2;
        kv_float (label ^ "_speedup_j4") speedup4;
        kv (label ^ "_nodes") (Json.Int nodes1);
        kv (label ^ "_identical") (Json.Bool identical);
        [
          label;
          string_of_int links;
          string_of_int nodes1;
          string_of_int sol1.Passive.count;
          Printf.sprintf "%.3f/%.3f/%.3f" t1 t2 t4;
          Table.float_cell ~decimals:2 speedup2;
          Table.float_cell ~decimals:2 speedup4;
          (if identical then "yes" else "NO");
        ])
      cases
  in
  Table.print
    ~header:
      [
        "instance"; "links"; "nodes"; "devices"; "secs j1/j2/j4";
        "speedup j2"; "speedup j4"; "identical";
      ]
    rows;
  note
    "same trees, same incumbents: deterministic wave scheduling fixes the\n\
     node order, so extra domains only change who solves each node LP.";
  if !identical_all then note "results identical across jobs 1/2/4: OK"
  else note "!! results differ across jobs values — determinism contract broken";
  let gate_ok =
    if cores < 4 then begin
      note
        "speedup gate skipped: %d core(s) available, need >= 4 for a \
         meaningful jobs=4 measurement"
        cores;
      true
    end
    else if !largest_speedup >= 2.5 then begin
      note "jobs=4 speedup %.2fx on %s (target >= 2.5x): OK" !largest_speedup
        !largest_label;
      true
    end
    else begin
      note "!! jobs=4 speedup %.2fx on %s is below the 2.5x target"
        !largest_speedup !largest_label;
      false
    end
  in
  kv "parscale_cores" (Json.Int cores);
  kv_float "parscale_gate_j4" (if gate_ok then 1.0 else 0.0);
  kv_float "parscale_identical" (if !identical_all then 1.0 else 0.0)

(* Observability overhead (also reachable as --compare-obs): solve the
   largest default Waxman PPM MIP with the always-on tier inert (null
   sink, no recorder) and with the flight recorder armed (its ring
   sink ambient, every trace event recorded), and gate the armed run
   at < 5% extra wall time. Both configurations solve the identical
   deterministic tree; the recorder pays one DLS lookup and a ring
   store per event. Best-of-N wall times keep a shared VM's scheduling
   noise out of the gate. *)
let obsoverhead () =
  section "Observability overhead — flight recorder armed vs inert";
  let module Flightrec = Monpos_obs.Flightrec in
  let module Trace = Monpos_obs.Trace in
  let endpoints g count =
    let nodes = Array.init (Graph.num_nodes g) (fun i -> i) in
    Prng.shuffle (Prng.create 17) nodes;
    Array.to_list (Array.sub nodes 0 (min count (Array.length nodes)))
  in
  let g = Synthetic.waxman ~n:600 ~alpha:0.22 ~beta:0.35 ~seed:5 in
  let matrix = Traffic.generate g ~endpoints:(endpoints g 40) ~seed:41 in
  let inst = Instance.make g matrix in
  let options =
    {
      Monpos_lp.Mip.default_options with
      Monpos_lp.Mip.max_nodes = (if full_mode then 40 else 12);
      time_limit = 900.0;
    }
  in
  let solve () = ignore (Passive.solve_mip ~k:0.93 ~options inst) in
  let reps = if full_mode then 4 else 3 in
  let events = ref 0 in
  let timed armed =
    Metrics.reset Metrics.default;
    if armed then begin
      let recorder = Flightrec.install () in
      Trace.set_current (Flightrec.sink recorder);
      let (), secs = wall solve in
      Trace.set_current Trace.null;
      events := Flightrec.events_seen recorder;
      Flightrec.uninstall ();
      secs
    end
    else
      let (), secs = wall solve in
      secs
  in
  (* one untimed pass absorbs cold-code and page-cache effects; reps
     run as adjacent inert/armed pairs so background-load drift hits
     both configurations of a pair, and the overhead estimate is the
     minimum paired ratio — load contamination only ever inflates a
     pair, so the least-contaminated pair is the honest estimate, and
     a recorder that genuinely cost 10% would show it in every pair *)
  solve ();
  let secs_base = ref infinity and secs_armed = ref infinity in
  let overhead_pct = ref infinity in
  for _ = 1 to reps do
    let inert = timed false in
    let armed = timed true in
    secs_base := Float.min !secs_base inert;
    secs_armed := Float.min !secs_armed armed;
    overhead_pct :=
      Float.min !overhead_pct
        (100.0 *. ((armed -. inert) /. Float.max 1e-9 inert))
  done;
  let secs_base = !secs_base and secs_armed = !secs_armed in
  let overhead_pct = !overhead_pct in
  let gate_ok = overhead_pct < 5.0 in
  Table.print
    ~header:[ "config"; "best-of wall s"; "events recorded" ]
    [
      [ "inert (null sink)"; Printf.sprintf "%.3f" secs_base; "0" ];
      [
        "flight recorder armed";
        Printf.sprintf "%.3f" secs_armed;
        string_of_int !events;
      ];
    ];
  note
    "identical deterministic solves, %d interleaved inert/armed pairs\n\
     (best-of walls, least-contaminated-pair overhead); the armed run\n\
     feeds every trace event through the recorder's per-domain ring."
    reps;
  if gate_ok then
    note "flight-recorder overhead %.2f%% (gate < 5%%): OK" overhead_pct
  else note "!! flight-recorder overhead %.2f%% exceeds the 5%% gate" overhead_pct;
  kv_float "waxman600_seconds_inert" secs_base;
  kv_float "waxman600_seconds_recorder" secs_armed;
  kv_float "obsoverhead_pct" overhead_pct;
  kv "obsoverhead_events" (Json.Int !events);
  kv_float "obsoverhead_gate" (if gate_ok then 1.0 else 0.0)

(* Checkpoint overhead (also reachable as --compare-checkpoint): solve
   the largest default Waxman PPM MIP with crash-recovery checkpoints
   off and with a checkpoint written at every wave barrier (the
   worst-case cadence — production default is one write per minute),
   and gate the direct cost — the solver's own measurement of seconds
   spent serializing + atomically replacing the file, as a fraction
   of the armed solve's wall time — at < 3%. A paired wall-clock diff
   rides along for context but cannot gate: run-to-run scheduling
   noise on a shared machine is several percent of an ~11s solve,
   far above the true cost. Both configurations solve the identical
   deterministic tree. *)
let ckoverhead () =
  section "Checkpoint overhead — every-wave writes vs none";
  let endpoints g count =
    let nodes = Array.init (Graph.num_nodes g) (fun i -> i) in
    Prng.shuffle (Prng.create 17) nodes;
    Array.to_list (Array.sub nodes 0 (min count (Array.length nodes)))
  in
  let g = Synthetic.waxman ~n:600 ~alpha:0.22 ~beta:0.35 ~seed:5 in
  let matrix = Traffic.generate g ~endpoints:(endpoints g 40) ~seed:41 in
  let inst = Instance.make g matrix in
  let options =
    {
      Monpos_lp.Mip.default_options with
      Monpos_lp.Mip.max_nodes = (if full_mode then 40 else 12);
      time_limit = 900.0;
    }
  in
  let ck_path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "monpos-bench-%d.ckpt" (Unix.getpid ()))
  in
  let solve armed =
    let options =
      if armed then
        { options with Monpos_lp.Mip.checkpoint = Some ck_path;
          checkpoint_every = 0.0 }
      else options
    in
    ignore (Passive.solve_mip ~k:0.93 ~options inst)
  in
  let reps = if full_mode then 4 else 3 in
  let writes = ref 0 in
  let write_seconds = ref 0.0 in
  let timed armed =
    Metrics.reset Metrics.default;
    let (), secs = wall (fun () -> solve armed) in
    if armed then begin
      let snap = Metrics.snapshot Metrics.default in
      writes := Metrics.sum_counter snap "checkpoint.writes";
      (match Metrics.find snap "checkpoint.write_seconds" with
      | Some (Metrics.Gauge_value s) ->
        write_seconds := Float.max !write_seconds s
      | _ -> ())
    end;
    secs
  in
  (* one untimed warmup, then adjacent off/armed pairs. The gate reads
     the solver's own write-time accounting (worst rep), divided by
     the armed run's best wall; the paired wall diff is reported as
     machine-dependent context only. *)
  solve false;
  let secs_base = ref infinity and secs_armed = ref infinity in
  let wall_delta_pct = ref infinity in
  for _ = 1 to reps do
    let off = timed false in
    let armed = timed true in
    secs_base := Float.min !secs_base off;
    secs_armed := Float.min !secs_armed armed;
    wall_delta_pct :=
      Float.min !wall_delta_pct
        (100.0 *. ((armed -. off) /. Float.max 1e-9 off))
  done;
  (try Sys.remove ck_path with Sys_error _ -> ());
  let secs_base = !secs_base and secs_armed = !secs_armed in
  let wall_delta_pct = !wall_delta_pct in
  let overhead_pct = 100.0 *. (!write_seconds /. Float.max 1e-9 secs_armed) in
  let gate_ok = overhead_pct < 3.0 in
  Table.print
    ~header:[ "config"; "best-of wall s"; "checkpoint writes"; "write s" ]
    [
      [ "checkpoints off"; Printf.sprintf "%.3f" secs_base; "0"; "-" ];
      [
        "every wave barrier";
        Printf.sprintf "%.3f" secs_armed;
        string_of_int !writes;
        Printf.sprintf "%.4f" !write_seconds;
      ];
    ];
  note
    "identical deterministic solves, %d interleaved off/armed pairs;\n\
     each write serializes the model + frontier and atomically\n\
     replaces the file. Gate: measured write seconds / armed wall\n\
     (wall-pair delta %+.2f%% shown for context, too noisy to gate)."
    reps wall_delta_pct;
  if gate_ok then
    note "checkpoint overhead %.3f%% of the solve (gate < 3%%): OK"
      overhead_pct
  else
    note "!! checkpoint overhead %.3f%% of the solve exceeds the 3%% gate"
      overhead_pct;
  kv_float "waxman600_seconds_nockpt" secs_base;
  kv_float "waxman600_seconds_ckpt" secs_armed;
  kv "ckoverhead_writes" (Json.Int !writes);
  kv_float "ckoverhead_write_seconds" !write_seconds;
  kv_float "ckoverhead_pct" overhead_pct;
  kv_float "ckoverhead_gate" (if gate_ok then 1.0 else 0.0)

(* §7 extension: measurement campaigns *)
let campaign () =
  section "Extension (§7) — measurement campaigns (re-route to monitor)";
  let rows =
    List.map
      (fun seed ->
        let pop = Pop.make_preset `Pop10 ~seed in
        let inst = Instance.of_pop pop ~seed:(seed * 131) in
        let budget = Passive.budgeted ~budget:3 inst in
        let c =
          Monpos.Campaign.reroute_for_monitors ~k_paths:4 inst
            ~monitors:budget.Passive.monitors
        in
        [
          string_of_int seed;
          Table.float_cell ~decimals:1 (100.0 *. c.Monpos.Campaign.coverage_before);
          Table.float_cell ~decimals:1 (100.0 *. c.Monpos.Campaign.coverage_after);
          string_of_int (List.length c.Monpos.Campaign.moves);
        ])
      (seeds (if full_mode then 10 else 5))
  in
  Table.print
    ~header:[ "seed"; "coverage % (3 taps)"; "after campaign %"; "demands moved" ]
    rows;
  note
    "with taps fixed, re-routing demands onto k-shortest alternatives that\n\
     cross a tap lifts coverage at zero hardware cost (the paper's third\n\
     future-work direction, built on the same flow model)."

let experiments =
  [
    ("fig3", fig3);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("dynamic", dynamic);
    ("warmstart", warmstart);
    ("flowscale", flowscale);
    ("parscale", parscale);
    ("obsoverhead", obsoverhead);
    ("ckoverhead", ckoverhead);
    ("sampling", sampling_sweep);
    ("campaign", campaign);
    ("ablation", ablation);
    ("micro", micro);
  ]

(* ------------------------------------------------------------------ *)
(* machine-readable report                                             *)

let report_path = "BENCH_monpos.json"

(* A run of only some of the experiments writes its report here, so it
   never replaces a report of all of them (such as the committed
   [--check] baseline). *)
let partial_report_path = "BENCH_monpos.partial.json"

(* Run one experiment against a freshly reset metrics registry so the
   solver counters (B&B nodes, simplex pivots, flow augmentations, span
   histograms) in the report are attributable to that phase alone. *)
let run_phase name f =
  Metrics.reset Metrics.default;
  extras := [];
  let (), seconds = wall f in
  let metrics = Metrics.to_json (Metrics.snapshot Metrics.default) in
  Json.Obj
    [
      ("name", Json.String name);
      ("seconds", Json.Float seconds);
      ("metrics", metrics);
      ("extras", Json.Obj (List.rev !extras));
    ]

let report_doc ~total_seconds phases =
  Json.Obj
    [
      ("schema", Json.String "monpos-bench/1");
      ("mode", Json.String (if full_mode then "full" else "default"));
      (* a chaotic run's numbers are fault-schedule artifacts (injected
         singular pivots, degraded ladder rungs); recording the seed
         lets --check tolerate-but-report instead of gating on them *)
      ( "chaos_seed",
        match Monpos_resilience.Chaos.seed () with
        | Some s -> Json.Int s
        | None -> Json.Null );
      (* the run manifest joins this report with traces and snapshots
         from the same invocation (monitorctl diff --bench reads it) *)
      ( "run",
        (* jobs/scheduler describe the default solver configuration of
           this bench process (parscale sweeps its own jobs values and
           reports them as extras) *)
        Monpos_obs.Runinfo.to_json
          (Monpos_obs.Runinfo.capture
             ?chaos_seed:(Monpos_resilience.Chaos.seed ())
             ~jobs:
               (Monpos_lp.Mip.resolved_jobs Monpos_lp.Mip.default_options)
             ~scheduler:
               (Monpos_lp.Mip.scheduler_mode Monpos_lp.Mip.default_options)
             ()) );
      ("generated_at_unix", Json.Float (Clock.now ()));
      ("total_seconds", Json.Float total_seconds);
      ("phases", Json.List phases);
    ]

let write_report path doc =
  Out_channel.with_open_text path (fun oc ->
      output_string oc (Json.to_string doc);
      output_char oc '\n');
  Printf.printf "report written to %s\n" path

(* --check BASELINE: regression gate. The baseline is loaded before
   any experiment runs (it usually IS report_path, which a run of every
   experiment overwrites at the end); a baseline that does not parse or has the
   wrong schema/mode is exit code 2, a metric outside its threshold is
   exit code 1. *)
let load_baseline path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg ->
    Printf.printf "bench check: cannot read baseline: %s\n" msg;
    exit 2
  | contents -> (
    match Monpos_obs.Json.parse contents with
    | Error msg ->
      Printf.printf "bench check: baseline %s does not parse: %s\n" path msg;
      exit 2
    | Ok doc -> doc)

let run_check ~baseline ~current =
  match Monpos_obs.Bench_check.compare_reports ~baseline ~current with
  | Error msg ->
    Printf.printf "bench check: %s\n" msg;
    2
  | Ok report ->
    print_string (Monpos_obs.Bench_check.render report);
    if report.Monpos_obs.Bench_check.findings = [] then 0 else 1

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let check_path, args =
    let rec extract acc = function
      | "--check" :: path :: rest -> (Some path, List.rev_append acc rest)
      | "--check" :: [] ->
        Printf.printf "bench check: --check needs a baseline path\n";
        exit 2
      | a :: rest -> extract (a :: acc) rest
      | [] -> (None, List.rev acc)
    in
    extract [] args
  in
  let requested =
    match args with
    | _ :: _ as picks ->
      (* flag spellings kept for muscle memory:
         bench --compare-warmstart / --compare-flow *)
      List.map
        (function
          | "--compare-warmstart" -> "warmstart"
          | "--compare-flow" -> "flowscale"
          | "--compare-jobs" -> "parscale"
          | "--compare-obs" -> "obsoverhead"
          | "--compare-checkpoint" -> "ckoverhead"
          | pick -> pick)
        picks
    | [] -> List.map fst experiments
  in
  let baseline = Option.map load_baseline check_path in
  Printf.printf
    "monpos bench harness — reproduction of CoNEXT'05 monitoring placement\n";
  Printf.printf "mode: %s\n"
    (if full_mode then "FULL (paper-scale)" else "default (set MONPOS_BENCH_FULL=1 for paper-scale)");
  let t0 = Clock.now () in
  let phases =
    List.filter_map
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> Some (run_phase name f)
        | None ->
          Printf.printf "unknown experiment %S (available: %s)\n" name
            (String.concat " " (List.map fst experiments));
          None)
      requested
  in
  Printf.printf "\n";
  let doc = report_doc ~total_seconds:(Clock.elapsed t0) phases in
  let complete =
    List.for_all (fun (name, _) -> List.mem name requested) experiments
  in
  write_report (if complete then report_path else partial_report_path) doc;
  (match baseline with
  | None -> Printf.printf "done.\n"
  | Some baseline ->
    Printf.printf "done.\n\n";
    exit (run_check ~baseline ~current:doc))
