module Pop = Monpos_topo.Pop
module Traffic = Monpos_traffic.Traffic
module Prng = Monpos_util.Prng

type preset = [ `Pop10 | `Pop15 | `Pop29 | `Pop80 ]

type passive_point = {
  k_percent : int;
  greedy_devices : float;
  greedy_static_devices : float;
  ilp_devices : float;
  ilp_optimal : bool;
}

let default_seeds = List.init 20 (fun i -> i + 1)

let instance_of ?endpoint_limit preset seed =
  let pop = Pop.make_preset preset ~seed in
  let endpoints = Pop.endpoints pop in
  let endpoints =
    match endpoint_limit with
    | None -> endpoints
    | Some limit when limit >= List.length endpoints -> endpoints
    | Some limit ->
      let arr = Array.of_list endpoints in
      let rng = Prng.create (seed * 7919) in
      Prng.shuffle rng arr;
      Array.to_list (Array.sub arr 0 limit)
  in
  let m =
    Traffic.generate pop.Pop.graph ~endpoints ~seed:(seed * 131)
  in
  Instance.make pop.Pop.graph m

let passive_sweep ?(preset = `Pop10) ?(seeds = default_seeds)
    ?(ks = [ 75; 80; 85; 90; 95; 100 ]) ?endpoint_limit ?node_limit () =
  let instances =
    List.map (fun seed -> instance_of ?endpoint_limit preset seed) seeds
  in
  List.map
    (fun kp ->
      let k = float_of_int kp /. 100.0 in
      let greedy_counts = ref []
      and static_counts = ref []
      and ilp_counts = ref [] in
      let all_optimal = ref true in
      List.iter
        (fun inst ->
          let g = Passive.greedy ~k inst in
          let st = Passive.greedy_static ~k inst in
          let e = Passive.solve_exact ~k ?node_limit inst in
          if not e.Passive.optimal then all_optimal := false;
          greedy_counts := float_of_int g.Passive.count :: !greedy_counts;
          static_counts := float_of_int st.Passive.count :: !static_counts;
          ilp_counts := float_of_int e.Passive.count :: !ilp_counts)
        instances;
      {
        k_percent = kp;
        greedy_devices =
          Monpos_util.Stats.mean (Array.of_list !greedy_counts);
        greedy_static_devices =
          Monpos_util.Stats.mean (Array.of_list !static_counts);
        ilp_devices = Monpos_util.Stats.mean (Array.of_list !ilp_counts);
        ilp_optimal = !all_optimal;
      })
    ks

type active_point = {
  vb_size : int;
  thiran_beacons : float;
  greedy_beacons : float;
  ilp_beacons : float;
  ilp_optimal : bool;
  probes : float;
}

let active_sweep ?(preset = `Pop15) ?(seeds = default_seeds) ?sizes () =
  let pops = List.map (fun seed -> (seed, Pop.make_preset preset ~seed)) seeds in
  let nrouters =
    match pops with (_, p) :: _ -> Pop.num_routers p | [] -> 0
  in
  let sizes =
    match sizes with
    | Some s -> s
    | None -> List.init nrouters (fun i -> i + 1)
  in
  List.map
    (fun vb_size ->
      let th = ref [] and gr = ref [] and il = ref [] and pr = ref [] in
      let all_optimal = ref true in
      List.iter
        (fun (seed, pop) ->
          let routers = Array.of_list (Pop.routers pop) in
          let rng = Prng.create ((seed * 104729) + vb_size) in
          Prng.shuffle rng routers;
          let vb =
            List.sort compare
              (Array.to_list (Array.sub routers 0 (min vb_size (Array.length routers))))
          in
          let probes =
            Active.compute_probes ~targets:vb pop.Pop.graph ~candidates:vb
          in
          if probes <> [] then begin
            let t = Active.place_thiran probes ~candidates:vb in
            let g = Active.place_greedy probes ~candidates:vb in
            let i = Active.place_ilp probes ~candidates:vb in
            th := float_of_int (List.length t.Active.beacons) :: !th;
            gr := float_of_int (List.length g.Active.beacons) :: !gr;
            il := float_of_int (List.length i.Active.beacons) :: !il;
            all_optimal := !all_optimal && i.Active.optimal;
            pr := float_of_int (List.length probes) :: !pr
          end)
        pops;
      {
        vb_size;
        thiran_beacons = Monpos_util.Stats.mean (Array.of_list !th);
        greedy_beacons = Monpos_util.Stats.mean (Array.of_list !gr);
        ilp_beacons = Monpos_util.Stats.mean (Array.of_list !il);
        ilp_optimal = !all_optimal;
        probes = Monpos_util.Stats.mean (Array.of_list !pr);
      })
    sizes

type dynamic_point = {
  step : int;
  coverage_before : float;
  coverage_after : float;
  reoptimizations : int;
}

let dynamic_run ?(preset = `Pop10) ?(seed = 1) ?(k = 0.9) ?(threshold = 0.85)
    ?(steps = 30) ?(sigma = 0.15) ?kernel ?jobs () =
  let inst = instance_of preset seed in
  let pb = Sampling.make_problem ~k ~costs:(Sampling.load_scaled_costs inst ()) inst in
  let milp_options =
    match jobs with
    | None -> Sampling.default_milp_options
    | Some jobs -> { Sampling.default_milp_options with Monpos_lp.Mip.jobs }
  in
  let placement = Sampling.solve_milp ~options:milp_options pb in
  let ticks =
    Sampling.run_dynamic ?kernel pb ~installed:placement.Sampling.installed
      ~threshold ~steps ~sigma ~seed:(seed * 31)
  in
  let reopt = ref 0 in
  List.map
    (fun (t : Sampling.tick) ->
      if t.Sampling.reoptimized then incr reopt;
      {
        step = t.Sampling.step;
        coverage_before = t.Sampling.fraction_before;
        coverage_after = t.Sampling.fraction_after;
        reoptimizations = !reopt;
      })
    ticks

type agreement = {
  instances : int;
  disagreements : int;
  methods : string list;
}

let solver_agreement ?(seeds = [ 1; 2; 3; 4; 5 ]) ?(k = 0.9) ?endpoint_limit () =
  let methods = [ "exact"; "mip-lp2"; "mip-lp1"; "mecf-mip" ] in
  let disagreements = ref 0 in
  List.iter
    (fun seed ->
      let inst = instance_of ?endpoint_limit `Pop10 seed in
      let counts =
        [
          (Passive.solve_exact ~k inst).Passive.count;
          (Passive.solve_mip ~k ~formulation:`Lp2 inst).Passive.count;
          (Passive.solve_mip ~k ~formulation:`Lp1 inst).Passive.count;
          (Mecf.solve_mip ~k inst).Passive.count;
        ]
      in
      match counts with
      | first :: rest ->
        if not (List.for_all (( = ) first) rest) then incr disagreements
      | [] -> ())
    seeds;
  { instances = List.length seeds; disagreements = !disagreements; methods }
