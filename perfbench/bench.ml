(* The repository benchmark: four workloads from the paper, each leaning
   on a different library layer, measured end to end with tracing off
   and split into layers by a separate traced pass.

   Usage (normally through run.py, which builds this executable first):
     bench.exe --workload NAME --seed N --seconds S --trace 0|1
     bench.exe --smoke

   A run sets its workload up several times ([setup_s] is the median),
   then repeats passes over the workload's operations until [--seconds]
   have elapsed. A pass is a fixed list of operations: solves, drift
   ticks or beacon placements. It is a closed loop with one client: an
   operation starts only when the previous one has returned. Answers
   are checked after each pass, outside the timed region. End-to-end
   times are scaled to a nominal machine speed measured by interleaved
   reference slices (see [reference_slice]). The last line
   of standard output is one JSON object with the keys [correct],
   [attempted], [failed] and [metrics]. README.md lists the metrics. *)

module Passive = Monpos.Passive
module Instance = Monpos.Instance
module Sampling = Monpos.Sampling
module Active = Monpos.Active
module Pop = Monpos_topo.Pop
module Synthetic = Monpos_topo.Synthetic
module Traffic = Monpos_traffic.Traffic
module Graph = Monpos_graph.Graph
module Prng = Monpos_util.Prng
module Stats = Monpos_util.Stats
module Mincost = Monpos_flow.Mincost
module Mip = Monpos_lp.Mip
module Clock = Monpos_obs.Clock
module Metrics = Monpos_obs.Metrics
module Span = Monpos_obs.Span
module Trace = Monpos_obs.Trace
module Trace_reader = Monpos_obs.Trace_reader
module Profile = Monpos_obs.Profile
module Json = Monpos_obs.Json
module Runinfo = Monpos_obs.Runinfo

(* ------------------------------------------------------------------ *)
(* Pinned solver settings and environment                              *)

(* Every MIP runs on the calling domain in wave mode, with explicit
   budgets generous enough that every solve here ends proven optimal. *)
let mip_options =
  {
    Mip.default_options with
    Mip.jobs = 1;
    deterministic = true;
    time_limit = 600.0;
    max_nodes = 200_000;
    checkpoint = None;
    log = false;
  }

let exact_node_limit = 300_000

(* Variables that change what the library does. run.py removes them;
   a direct invocation under any of them is refused. *)
let pinned_env =
  [
    "MONPOS_JOBS"; "MONPOS_CHAOS"; "MONPOS_CHAOS_KILL"; "MONPOS_TRACE_SAMPLE";
    "MONPOS_BENCH_FULL";
  ]

(* ------------------------------------------------------------------ *)
(* Layer timers                                                        *)

(* Seconds spent in each layer's public calls. During the traced pass
   every call is also a [bench.<layer>] span. *)
let layer_seconds : (string, float ref) Hashtbl.t = Hashtbl.create 16

let tracing = ref false

let layer name f =
  let t0 = Clock.now () in
  let r = if !tracing then Span.run ("bench." ^ name) f else f () in
  let dt = Clock.elapsed t0 in
  (match Hashtbl.find_opt layer_seconds name with
  | Some acc -> acc := !acc +. dt
  | None -> Hashtbl.add layer_seconds name (ref dt));
  r

(* The accumulated seconds so far, and a fresh start. *)
let take_layers () =
  let taken = Hashtbl.fold (fun name acc l -> (name, !acc) :: l) layer_seconds [] in
  Hashtbl.reset layer_seconds;
  taken

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)

type size = Full | Tiny  (** [Tiny] is the smoke test's size *)

type prepared = {
  ops : int;  (** operations per pass *)
  in_order : bool;  (** drift ticks run in sequence; other passes are shuffled *)
  run_op : int -> unit;  (** run operation [i] and keep its answer *)
  check : pass:int -> int * int;
      (** [(wrong, failed)] over the answers kept by the pass just run *)
  probe : unit -> (string * float) list;
      (** per-pass layer seconds measured outside the passes *)
}

type workload = {
  name : string;
  setup : size -> seed:int -> prepared;
}

let report_failure what e =
  Printf.eprintf "%s raised %s\n%!" what (Printexc.to_string e)

(* Run [f] and keep its result or exception in [answers.(i)]. *)
let keep answers i f =
  answers.(i) <- Some (try Ok (f ()) with e -> Error e)

(* Fold the kept answers into [(wrong, failed)] and forget them, so a
   stale answer is never checked twice. [judge] returns
   [(wrong, failed)] flags for one answer. *)
let tally name answers judge =
  let wrong = ref 0 and failed = ref 0 in
  Array.iteri
    (fun i a ->
      (match a with
      | Some (Ok v) ->
        let w, f = judge i v in
        if w then incr wrong;
        if f then incr failed
      | Some (Error e) ->
        report_failure name e;
        incr failed
      | None -> incr failed);
      answers.(i) <- None)
    answers;
  (!wrong, !failed)

let loaded_links inst =
  List.filter
    (fun e -> inst.Instance.loads.(e) > 0.0)
    (List.init (Graph.num_edges inst.Instance.graph) Fun.id)

(* The first [count] nodes of a fixed shuffle: the endpoint choice of
   the repository's Waxman and grid series. *)
let pick_endpoints g count =
  let nodes = Array.init (Graph.num_nodes g) Fun.id in
  Prng.shuffle (Prng.create 17) nodes;
  Array.to_list (Array.sub nodes 0 (min count (Array.length nodes)))

(* --- passive placement: ppm-exact and ppm-mip --- *)

type passive_case = { inst : Instance.t; k : float; pinned : int }

(* An answer is wrong when its links miss the coverage target (recomputed
   from the instance), when its count disagrees with its links, or when
   the count differs from the pinned optimum. *)
let passive_wrong ~pinned ~k inst (s : Passive.solution) =
  let distinct = List.length (List.sort_uniq compare s.Passive.monitors) in
  s.Passive.count <> pinned
  || s.Passive.count <> distinct
  || Instance.coverage_fraction inst s.Passive.monitors < k -. 1e-9

let passive_prepared ~name ~solve ?(probe = fun () -> []) cases =
  let cases = Array.of_list cases in
  let answers = Array.make (Array.length cases) None in
  {
    ops = Array.length cases;
    in_order = false;
    run_op = (fun i -> keep answers i (fun () -> solve cases.(i)));
    check =
      (fun ~pass:_ ->
        tally name answers (fun i s ->
            let c = cases.(i) in
            (passive_wrong ~pinned:c.pinned ~k:c.k c.inst s, not s.Passive.optimal)));
    probe;
  }

let pop15_instance seed =
  let pop = layer "topology.build" (fun () -> Pop.make_preset `Pop15 ~seed) in
  let matrix =
    layer "traffic.generate" (fun () ->
        Traffic.generate pop.Pop.graph ~endpoints:(Pop.endpoints pop)
          ~seed:(seed * 131))
  in
  layer "core.instance" (fun () -> Instance.make pop.Pop.graph matrix)

(* Optimal device counts on fig8's Pop15 instances, by topology seed,
   for k = 75, 80, 85, 90, 95 %. *)
let exact_pins =
  [
    (1, [ 5; 6; 7; 10; 15 ]);
    (2, [ 6; 7; 9; 12; 18 ]);
    (3, [ 7; 8; 9; 12; 16 ]);
    (4, [ 6; 8; 9; 12; 18 ]);
    (5, [ 5; 6; 7; 9; 16 ]);
  ]

(* k = 95 % on seeds 2 and 4 takes 3 s and 7 s: kept out so that a run
   holds several passes. *)
let exact_points = function
  | Tiny -> [ (1, [ 75; 80; 85 ]) ]
  | Full ->
    List.map
      (fun seed ->
        (seed, if seed = 2 || seed = 4 then [ 75; 80; 85; 90 ] else [ 75; 80; 85; 90; 95 ]))
      [ 1; 2; 3; 4; 5 ]

let ppm_exact size ~seed:_ =
  let cases =
    List.concat_map
      (fun (topo, ks) ->
        let inst = pop15_instance topo in
        let pins = List.assoc topo exact_pins in
        List.map
          (fun kp ->
            let pinned = List.nth pins ((kp - 75) / 5) in
            { inst; k = float_of_int kp /. 100.0; pinned })
          ks)
      (exact_points size)
  in
  let probe () =
    (* the set-cover view is built inside every solve; time it alone *)
    let t0 = Clock.now () in
    List.iter (fun c -> ignore (Instance.cover_view c.inst)) cases;
    [ ("core.cover_view_s", Clock.elapsed t0) ]
  in
  passive_prepared ~name:"ppm-exact" ~probe
    ~solve:(fun c ->
      layer "passive.exact" (fun () ->
          Passive.solve_exact ~k:c.k ~node_limit:exact_node_limit c.inst))
    cases

let waxman n = Synthetic.waxman ~n ~alpha:0.22 ~beta:0.35 ~seed:5

let graph_instance ~graph ~endpoints ~traffic_seed =
  let g = layer "topology.build" graph in
  let matrix =
    layer "traffic.generate" (fun () ->
        Traffic.generate g ~endpoints:(pick_endpoints g endpoints) ~seed:traffic_seed)
  in
  layer "core.instance" (fun () -> Instance.make g matrix)

(* Linear program 2 to proven optimality, with its optimal device
   counts. waxman140 (5-8 s a solve) is left out so that a run holds
   several passes. *)
let ppm_mip size ~seed:_ =
  let grid = graph_instance ~graph:(fun () -> Synthetic.grid 8 8) ~endpoints:16 ~traffic_seed:41 in
  let cases =
    match size with
    | Tiny -> [ { inst = grid; k = 0.93; pinned = 16 } ]
    | Full ->
      let wax = graph_instance ~graph:(fun () -> waxman 100) ~endpoints:18 ~traffic_seed:41 in
      [
        { inst = wax; k = 0.93; pinned = 45 };
        { inst = wax; k = 0.95; pinned = 50 };
        { inst = grid; k = 0.93; pinned = 16 };
        { inst = grid; k = 0.95; pinned = 18 };
      ]
  in
  passive_prepared ~name:"ppm-mip" cases ~solve:(fun c ->
      layer "passive.mip" (fun () ->
          Passive.solve_mip ~k:c.k ~formulation:`Lp2 ~options:mip_options c.inst))

(* --- §5.4 drift: ppme-drift --- *)

let costs_agree ~cold ~warm =
  Float.is_finite warm && Float.abs (warm -. cold) <= 1e-6 *. (1.0 +. Float.abs cold)

(* Each tick applies the next matrix of a fixed drift walk (σ = .15 a
   tick) and re-solves the warm flow handle. A pass is one walk, entered
   at a tick set by the seed; the handle persists across passes. The
   walk and its base matrix are fixed because seeded ones moved the
   pivots of a pass by up to 14 % from seed to seed. *)
let ppme_drift size ~seed =
  let n, endpoints, ticks = match size with Full -> (300, 40, 100) | Tiny -> (60, 12, 10) in
  let inst = graph_instance ~graph:(fun () -> waxman n) ~endpoints ~traffic_seed:41 in
  let matrices =
    layer "traffic.generate" (fun () ->
        let walk = Array.make ticks inst.Instance.demands in
        Array.iteri
          (fun i _ ->
            let prev = if i = 0 then inst.Instance.demands else walk.(i - 1) in
            walk.(i) <- Traffic.drift prev ~seed:(1_000_003 + i) ~sigma:0.15)
          walk;
        walk)
  in
  let pb = Sampling.make_problem ~k:0.9 inst in
  let installed = loaded_links inst in
  let handle = Sampling.reopt_create ~algo:Mincost.Net_simplex pb ~installed in
  let matrix i = matrices.((i + (seed mod ticks) + ticks) mod ticks) in
  let problem i = { pb with Sampling.instance = Instance.replace_demands inst (matrix i) } in
  let answers = Array.make ticks None in
  let run_op i =
    keep answers i (fun () ->
        let tick_inst =
          layer "core.replace_demands" (fun () -> Instance.replace_demands inst (matrix i))
        in
        let s =
          layer "sampling.reopt" (fun () ->
              Sampling.reopt_solve handle { pb with Sampling.instance = tick_inst })
        in
        s.Sampling.exploit_cost)
  in
  (* four ticks a pass, rotating with the pass, are re-solved cold by
     the SSP kernel: the warm exploit cost must match *)
  let check ~pass =
    let sampled i = i mod (max 1 (ticks / 4)) = pass mod (max 1 (ticks / 4)) in
    tally "ppme-drift" answers (fun i cost ->
        let wrong =
          (not (Float.is_finite cost))
          || cost < 0.0
          || sampled i
             && not
                  (costs_agree ~warm:cost
                     ~cold:
                       (Sampling.reoptimize_flow ~algo:Mincost.Ssp (problem i) ~installed)
                         .Sampling.exploit_cost)
        in
        (wrong, false))
  in
  { ops = ticks; in_order = true; run_op; check; probe = (fun () -> []) }

(* --- §6 beacons --- *)

let beacon_sizes = function
  | Tiny -> [ 1; 6; 11 ]
  | Full -> List.init 17 (fun i -> min 80 (1 + (5 * i)))

type beacon_answer = {
  probes : Active.probe list;
  placements : (Active.placement * Active.placement * Active.placement) option;
      (** ILP, greedy, Thiran; [None] when there is no probe to place *)
}

(* Wrong when a placement leaves a probe without a beacon extremity or
   uses a non-candidate, or when the ILP places more beacons than the
   greedy or Thiran's baseline. *)
let beacon_wrong ~candidates { probes; placements } =
  match placements with
  | None -> false
  | Some (ilp, greedy, thiran) ->
    let valid (p : Active.placement) = Active.validate probes ~beacons:p.Active.beacons ~candidates in
    let n (p : Active.placement) = List.length p.Active.beacons in
    not (valid ilp && valid greedy && valid thiran && n ilp <= n greedy && n ilp <= n thiran)

(* fig11's Pop80 topologies 1-6, with the candidate sets the figure
   draws per (topology, |V_B|). They are fixed because seeded draws
   moved the ILP nodes of a pass by up to 20 % from seed to seed; the
   seed sets the order of the placements. *)
let beacons size ~seed:_ =
  let topologies = match size with Full -> 6 | Tiny -> 1 in
  let points =
    List.concat_map
      (fun j ->
        let pop = layer "topology.build" (fun () -> Pop.make_preset `Pop80 ~seed:j) in
        let routers = Array.of_list (Pop.routers pop) in
        List.map
          (fun vb_size ->
            let shuffled = Array.copy routers in
            Prng.shuffle (Prng.create ((j * 104729) + vb_size)) shuffled;
            let vb =
              List.sort compare
                (Array.to_list (Array.sub shuffled 0 (min vb_size (Array.length shuffled))))
            in
            (pop.Pop.graph, vb))
          (beacon_sizes size))
      (List.init topologies (fun j -> j + 1))
    |> Array.of_list
  in
  let answers = Array.make (Array.length points) None in
  let run_op i =
    let graph, vb = points.(i) in
    keep answers i (fun () ->
        let probes =
          layer "active.probes" (fun () ->
              Active.compute_probes ~targets:vb graph ~candidates:vb)
        in
        if probes = [] then { probes; placements = None }
        else
          let ilp =
            layer "active.ilp" (fun () ->
                Active.place_ilp ~options:mip_options probes ~candidates:vb)
          in
          let greedy = layer "active.greedy" (fun () -> Active.place_greedy probes ~candidates:vb) in
          let thiran = layer "active.thiran" (fun () -> Active.place_thiran probes ~candidates:vb) in
          { probes; placements = Some (ilp, greedy, thiran) })
  in
  let check ~pass:_ =
    tally "beacons" answers (fun i a ->
        let failed =
          match a.placements with Some (ilp, _, _) -> not ilp.Active.optimal | None -> false
        in
        (beacon_wrong ~candidates:(snd points.(i)) a, failed))
  in
  { ops = Array.length points; in_order = false; run_op; check; probe = (fun () -> []) }

let workloads =
  [
    { name = "ppm-exact"; setup = ppm_exact };
    { name = "ppm-mip"; setup = ppm_mip };
    { name = "ppme-drift"; setup = ppme_drift };
    { name = "beacons"; setup = beacons };
  ]

(* ------------------------------------------------------------------ *)
(* Machine speed                                                       *)

(* This benchmark runs on machines whose memory system is shared with
   other tenants; their speed drifts by tens of percent over tens of
   seconds. A fixed kernel that never calls the library runs for a few
   milliseconds after the operation that ends each [slice_period]
   seconds of a pass. End-to-end times are scaled by [nominal_slice_s]
   over the pass's mean slice time, so they read as seconds on a
   machine where one slice takes [nominal_slice_s]. The kernel
   allocates nothing on the OCaml heap and its table is a bigarray, so
   a library change to heap size or GC work cannot move it. *)
let slice_period = 0.1

let nominal_slice_s = 0.006

let slice_keys = Array.init (1 lsl 14) (fun i -> (i * 2654435761) land 0xffffff)

let slice_sorted = Array.make (Array.length slice_keys) 0

(* 16 MiB: beyond the caches, like the solvers' working sets *)
let slice_table = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21)

let reference_slice () =
  let t0 = Clock.now () in
  Array.blit slice_keys 0 slice_sorted 0 (Array.length slice_keys);
  Array.sort Int.compare slice_sorted;
  let mask = Bigarray.Array1.dim slice_table - 1 in
  let j = ref slice_sorted.(0) in
  for _ = 1 to 60_000 do
    j := ((!j * 1103515245) + 12345) land mask;
    let k = (!j * 7) land mask in
    Bigarray.Array1.unsafe_set slice_table !j
      (Bigarray.Array1.unsafe_get slice_table !j + Bigarray.Array1.unsafe_get slice_table k + 1)
  done;
  Clock.elapsed t0

(* Reference slices taken while a stretch of work runs: when each one
   ended, and how long it took. *)
type speed = { mutable slices : (float * float) list; mutable last : float }

let speed_start () = { slices = []; last = Clock.now () }

let maybe_slice sp =
  if Clock.elapsed sp.last >= slice_period then begin
    let dt = reference_slice () in
    sp.last <- Clock.now ();
    sp.slices <- (sp.last, dt) :: sp.slices
  end

(* Slices this close to an operation measure the speed it ran at. *)
let slice_window = 0.5

(* The factor from measured seconds to seconds at nominal speed for
   work done between [t0] and [t1]: from the slices within
   [slice_window] of that interval, or from all of them when none is. *)
let speed_factor ?(t0 = neg_infinity) ?(t1 = infinity) sp =
  if sp.slices = [] then sp.slices <- [ (Clock.now (), reference_slice ()) ];
  let near =
    List.filter (fun (t, _) -> t >= t0 -. slice_window && t <= t1 +. slice_window) sp.slices
  in
  let used = if near = [] then sp.slices else near in
  nominal_slice_s /. Stats.mean (Array.of_list (List.map snd used))

(* ------------------------------------------------------------------ *)
(* Running passes                                                      *)

type phase = {
  passes : float array;  (** seconds per pass, at nominal speed *)
  measured : float array;  (** seconds per pass, as measured *)
  latencies : float array;
      (** each operation's median seconds over the passes, at nominal speed *)
  slices : float array;  (** seconds per reference slice *)
  attempted : int;
  wrong : int;
  failed : int;
  minor_words : float;  (** allocated during passes *)
  major_collections : int;
}

let median xs = Stats.percentile xs 50.0

(* Passes until [seconds] have elapsed, at least one. A pass's time is
   the sum of its operations' times, each scaled by the slices near it;
   the reference slices, GC counts and answer checks are taken between
   operations or after the pass. *)
let run_phase prep ~rng ~seconds =
  let start = Clock.now () in
  let order = Array.init prep.ops Fun.id in
  let passes = ref [] and measured = ref [] and slices = ref [] in
  let latencies = Array.make prep.ops [] in
  let wrong = ref 0 and failed = ref 0 in
  let minor = ref 0.0 and major = ref 0 in
  let pass = ref 0 in
  while !pass = 0 || Clock.elapsed start < seconds do
    if not prep.in_order then Prng.shuffle rng order;
    let sp = speed_start () in
    let g0 = Gc.quick_stat () in
    let spans =
      Array.map
        (fun i ->
          let t = Clock.now () in
          prep.run_op i;
          let dt = Clock.elapsed t in
          maybe_slice sp;
          (t, dt))
        order
    in
    let g1 = Gc.quick_stat () in
    let scaled = Array.map (fun (t, dt) -> dt *. speed_factor ~t0:t ~t1:(t +. dt) sp) spans in
    measured := Stats.sum (Array.map snd spans) :: !measured;
    passes := Stats.sum scaled :: !passes;
    Array.iteri (fun j v -> latencies.(order.(j)) <- v :: latencies.(order.(j))) scaled;
    slices := List.map snd sp.slices @ !slices;
    minor := !minor +. (g1.Gc.minor_words -. g0.Gc.minor_words);
    major := !major + (g1.Gc.major_collections - g0.Gc.major_collections);
    let w, f = Trace.with_current Trace.null (fun () -> prep.check ~pass:!pass) in
    wrong := !wrong + w;
    failed := !failed + f;
    incr pass
  done;
  {
    passes = Array.of_list (List.rev !passes);
    measured = Array.of_list (List.rev !measured);
    latencies = Array.map (fun l -> median (Array.of_list l)) latencies;
    slices = Array.of_list !slices;
    attempted = !pass * prep.ops;
    wrong = !wrong;
    failed = !failed;
    minor_words = !minor;
    major_collections = !major;
  }

(* Set up at least three times and for at least a second, so the
   median of a millisecond set-up is still steady. Returns the set-up
   times at nominal speed, the repetitions, and the last set-up, which
   is the one measured. *)
let setup_repeated w size ~seed =
  let sp = speed_start () in
  let rec go times reps spent last =
    if reps >= 3 && (spent >= 1.0 || reps >= 5000) then
      let factor = speed_factor sp in
      (Array.of_list (List.map (fun dt -> dt *. factor) times), reps, Option.get last)
    else begin
      let t0 = Clock.now () in
      let prep = w.setup size ~seed in
      let dt = Clock.elapsed t0 in
      maybe_slice sp;
      go (dt :: times) (reps + 1) (spent +. dt) (Some prep)
    end
  in
  go [] 0 0.0 None

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let ratio a b = if b > 0.0 then a /. b else 0.0

let span_seconds snap name =
  match Metrics.find ~labels:[ ("span", name) ] snap "span.seconds" with
  | Some (Metrics.Histogram_value { sum; _ }) -> sum
  | _ -> 0.0

(* One labelled series, or the whole family summed over its labels. *)
let counter ?labels snap name =
  match (labels, Metrics.find ?labels snap name) with
  | None, _ -> float_of_int (Metrics.sum_counter snap name)
  | Some _, Some (Metrics.Counter_value v) -> float_of_int v
  | Some _, _ -> 0.0

(* Spans of the traced pass, reported by name: the benchmark's own
   [bench.<layer>] spans and the ones the library already opens. *)
let traced_spans =
  [
    "bench.passive.exact"; "passive.exact"; "bench.passive.mip"; "passive.mip";
    "mip.solve"; "lu_factor"; "bench.core.replace_demands"; "bench.sampling.reopt";
    "sampling.reoptimize_flow"; "flow_solve"; "bench.active.probes"; "bench.active.ilp";
    "bench.active.greedy"; "bench.active.thiran";
  ]

(* Spans whose allocation is reported. *)
let alloc_spans =
  [
    "passive.exact"; "mip.solve"; "lu_factor"; "flow_solve"; "bench.core.replace_demands";
    "bench.active.probes";
  ]

(* The smallest value with at least [p] % of the values at or below
   it. Unlike an interpolated percentile it is always one operation's
   time, so it never lands between two clusters of a fixed workload's
   operations (the k = 90 % and k = 95 % solves of ppm-exact). *)
let nearest_rank xs p =
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let n = Array.length sorted in
  sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) - 1)))

let end_to_end_metrics ~setup_times (ph : phase) =
  [
    ("wall_s", median ph.passes, "s");
    ("latency_p50_s", nearest_rank ph.latencies 50.0, "s");
    ("latency_p90_s", nearest_rank ph.latencies 90.0, "s");
    ("setup_s", median setup_times, "s");
    ("heap_peak_mb", heap_peak_mb (), "MB");
  ]

(* Span events of the traced pass, decoded as the trace reader would. *)
let collecting_sink () =
  let records = ref [] in
  let sink =
    Trace.custom (fun ts ev fields ->
        if ev = "span_open" || ev = "span_close" then
          records :=
            { Trace_reader.ts; domain = 0; event = Trace_reader.decode ~ev fields }
            :: !records)
  in
  (sink, records)

let per_layer_metrics ~setup_layers ~setup_reps ~untraced:(a : phase) ~layers ~snap
    ~probe ~traced:(b : phase) ~records =
  let na = float_of_int (Array.length a.passes) in
  let nb = float_of_int (Array.length b.passes) in
  let per_pass x = x /. na in
  let c ?labels name = per_pass (counter ?labels snap name) in
  let s name = per_pass (span_seconds snap name) in
  let taken layers name = Option.value (List.assoc_opt name layers) ~default:0.0 in
  let l name = per_pass (taken layers name) in
  let probed name = Option.value (List.assoc_opt name probe) ~default:0.0 in
  let cover_view = probed "core.cover_view_s" in
  let cover_exact = Float.max 0.0 (s "passive.exact" -. cover_view) in
  let cover_nodes = c "cover.nodes" in
  let mip_solve = s "mip.solve" and lu = s "lu_factor" in
  let primal = c ~labels:[ ("phase", "primal") ] "simplex.iterations" in
  let dual = c ~labels:[ ("phase", "dual") ] "simplex.iterations" in
  let mip_nodes = c "mip.nodes" in
  let reopt = l "sampling.reopt" in
  let flow_pivots = c "flow.pivots" in
  let ops_per_pass = float_of_int a.attempted /. na in
  let profile = Profile.of_records (List.rev records) in
  let totals = Profile.totals profile in
  let self name =
    match List.assoc_opt name totals with Some (_, _, self) -> self /. nb | None -> 0.0
  in
  let traced_wall = Stats.sum b.measured /. nb in
  let self_all = List.fold_left (fun acc (_, (_, _, self)) -> acc +. self) 0.0 totals /. nb in
  let self_listed = List.fold_left (fun acc name -> acc +. self name) 0.0 traced_spans in
  let unattributed = traced_wall -. self_all in
  let alloc name =
    List.fold_left
      (fun acc (r : Trace_reader.record) ->
        match r.Trace_reader.event with
        | Trace_reader.Span_close { name = n; gc = Some gc; _ } when n = name ->
          acc +. gc.Trace.minor_words
        | _ -> acc)
      0.0 records
    /. nb
  in
  let setup name = taken setup_layers name /. float_of_int setup_reps in
  [
    ("cover.exact_s", cover_exact, "s");
    ("cover.nodes", cover_nodes, "count");
    ("cover.s_per_node", ratio cover_exact cover_nodes, "s/node");
    ("cover.incumbents", c "cover.incumbents", "count");
    ("core.cover_view_s", cover_view, "s");
    ("passive.mip_s", l "passive.mip", "s");
    ("mip.solve_s", mip_solve, "s");
    ("lu.factor_s", lu, "s");
    ("lp.unattributed_s", mip_solve -. lu, "s");
    ("mip.nodes", mip_nodes, "count");
    ("mip.prunes", c "mip.prunes", "count");
    ("simplex.pivots_primal", primal, "count");
    ("simplex.pivots_dual", dual, "count");
    ("simplex.s_per_pivot", ratio mip_solve (primal +. dual), "s/pivot");
    ("simplex.refactorizations", c "simplex.refactorizations", "count");
    ("simplex.warm_start_ratio", ratio (c "simplex.warm_starts") mip_nodes, "1");
    ("presolve.bounds_tightened", c "presolve.bounds_tightened", "count");
    ("sampling.reopt_s", reopt, "s");
    ("core.replace_demands_s", l "core.replace_demands", "s");
    ("flow.pivots_per_tick", (if reopt > 0.0 then ratio flow_pivots ops_per_pass else 0.0), "count");
    ("flow.s_per_pivot", ratio reopt flow_pivots, "s/pivot");
    ("active.probes_s", l "active.probes", "s");
    ("active.ilp_s", l "active.ilp", "s");
    ("active.greedy_s", l "active.greedy", "s");
    ("active.thiran_s", l "active.thiran", "s");
    ("topology.build_s", setup "topology.build", "s");
    ("traffic.generate_s", setup "traffic.generate", "s");
    ("core.instance_s", setup "core.instance", "s");
    ("gc.minor_words", per_pass a.minor_words, "words");
    ("gc.major_collections", per_pass (float_of_int a.major_collections), "count");
  ]
  @ List.map (fun name -> ("alloc.minor_words." ^ name, alloc name, "words")) alloc_spans
  @ [
      ("resilience.fallbacks", c "resilience.fallbacks", "count");
      ("resilience.recoveries", c "resilience.recoveries", "count");
      ("resilience.stale_ticks", c "resilience.stale_ticks", "count");
      ("machine.reference_s", median a.slices, "s");
      ("trace.overhead_frac", (median b.passes /. median a.passes) -. 1.0, "1");
      ("trace.wall_s", traced_wall, "s");
    ]
  @ List.map (fun name -> ("self_s." ^ name, self name, "s")) traced_spans
  @ [
      ("self_s.other", self_all -. self_listed, "s");
      ("self_s.unattributed", unattributed, "s");
      ("trace.unattributed_frac", ratio unattributed traced_wall, "1");
    ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)

let finite x = if Float.is_finite x then x else 0.0

let print_result ~attempted ~failed ~wrong metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "  %-40s %14.6g %s\n" name v unit) metrics;
  Printf.printf "failed_frac %g (%d of %d operations), wrong %d\n"
    (float_of_int failed /. float_of_int attempted) failed attempted wrong;
  let json =
    Json.Obj
      [
        ("correct", Json.Bool (wrong = 0));
        ("attempted", Json.Int attempted);
        ("failed", Json.Int failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (name, v, unit) ->
                 (name, Json.Obj [ ("value", Json.Float (finite v)); ("unit", Json.String unit) ]))
               metrics) );
      ]
  in
  print_endline (Json.to_string json)

let run_workload w ~seed ~seconds ~trace =
  let manifest = Runinfo.capture ~jobs:mip_options.Mip.jobs ~scheduler:(Mip.scheduler_mode mip_options) () in
  Printf.printf "run-info %s\n%!" (Json.to_string (Runinfo.to_json manifest));
  let setup_times, setup_reps, prep = setup_repeated w Full ~seed in
  let setup_layers = take_layers () in
  let rng = Prng.create seed in
  if not trace then begin
    let ph = run_phase prep ~rng ~seconds in
    let show xs = String.concat "" (List.map (Printf.sprintf " %.3f") (Array.to_list xs)) in
    Printf.printf "%s: %d passes of %d operations\n  seconds per pass, measured:%s\n  at nominal speed:%s\n"
      w.name (Array.length ph.passes) prep.ops (show ph.measured) (show ph.passes);
    print_result ~attempted:ph.attempted ~failed:ph.failed ~wrong:ph.wrong
      (end_to_end_metrics ~setup_times ph);
    ph.wrong
  end
  else begin
    Metrics.reset Metrics.default;
    let a = run_phase prep ~rng ~seconds:(seconds /. 2.0) in
    let snap = Metrics.snapshot Metrics.default in
    let layers = take_layers () in
    let probe = prep.probe () in
    let sink, records = collecting_sink () in
    Trace.set_current sink;
    tracing := true;
    let b = Fun.protect
        ~finally:(fun () -> tracing := false; Trace.set_current Trace.null)
        (fun () -> run_phase prep ~rng ~seconds:(seconds /. 2.0))
    in
    Printf.printf "%s: %d untraced and %d traced passes of %d operations\n" w.name
      (Array.length a.passes) (Array.length b.passes) prep.ops;
    let wrong = a.wrong + b.wrong in
    print_result ~attempted:(a.attempted + b.attempted) ~failed:(a.failed + b.failed) ~wrong
      (per_layer_metrics ~setup_layers ~setup_reps ~untraced:a ~layers ~snap ~probe ~traced:b
         ~records:!records);
    wrong
  end

(* ------------------------------------------------------------------ *)
(* Smoke test                                                          *)

(* Every workload at its tiny size, then the checkers on tampered
   answers: each must be flagged as wrong. *)
let smoke () =
  let ok = ref true in
  let expect label cond =
    Printf.printf "%-58s %s\n%!" label (if cond then "ok" else "FAILED");
    if not cond then ok := false
  in
  List.iter
    (fun w ->
      let prep = w.setup Tiny ~seed:1 in
      let ph = run_phase prep ~rng:(Prng.create 1) ~seconds:0.0 in
      expect
        (Printf.sprintf "%s: %d operations, none wrong or failed" w.name ph.attempted)
        (ph.attempted > 0 && ph.wrong = 0 && ph.failed = 0))
    workloads;
  let inst = pop15_instance 1 in
  let k = 0.85 in
  let s = Passive.solve_exact ~k ~node_limit:exact_node_limit inst in
  expect "passive checker accepts the pinned optimum" (not (passive_wrong ~pinned:7 ~k inst s));
  let fewer =
    { s with Passive.monitors = List.tl s.Passive.monitors; count = s.Passive.count - 1 }
  in
  expect "passive checker flags an answer missing one device"
    (passive_wrong ~pinned:(s.Passive.count - 1) ~k inst fewer);
  expect "passive checker flags a count off the pinned table" (passive_wrong ~pinned:8 ~k inst s);
  let pop = Pop.make_preset `Pop80 ~seed:1 in
  let vb = List.filteri (fun i _ -> i mod 5 = 0) (Pop.routers pop) in
  let probes = Active.compute_probes ~targets:vb pop.Pop.graph ~candidates:vb in
  let ilp = Active.place_ilp ~options:mip_options probes ~candidates:vb in
  let greedy = Active.place_greedy probes ~candidates:vb in
  let thiran = Active.place_thiran probes ~candidates:vb in
  let answer ilp = { probes; placements = Some (ilp, greedy, thiran) } in
  expect "beacon checker accepts the three placements"
    (not (beacon_wrong ~candidates:vb (answer ilp)));
  expect "beacon checker flags an ILP placement missing one beacon"
    (beacon_wrong ~candidates:vb
       (answer { ilp with Active.beacons = List.tl ilp.Active.beacons }));
  expect "drift checker flags an exploit cost 1% off the cold re-solve"
    (not (costs_agree ~cold:10.0 ~warm:10.1));
  if !ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let smoke_only = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  ppm-exact, ppm-mip, ppme-drift or beacons");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  how long the passes run");
      ("--trace", Arg.Set_int trace, "0|1  1 runs the traced pass and reports per-layer metrics");
      ("--smoke", Arg.Set smoke_only, " run every workload at a tiny size and test the checkers");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 | --smoke";
  (match List.filter (fun v -> Sys.getenv_opt v <> None) pinned_env with
  | [] -> ()
  | set ->
    Printf.eprintf "bench: refusing to run with %s set\n" (String.concat ", " set);
    exit 2);
  if !smoke_only then exit (smoke ());
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
    Printf.eprintf "bench: unknown workload %S (try %s)\n" !workload
      (String.concat ", " (List.map (fun w -> w.name) workloads));
    exit 2
  | Some w ->
    let wrong = run_workload w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
    exit (if wrong > 0 then 1 else 0)
