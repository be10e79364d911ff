(* Active monitoring tests: probe computation covers all coverable
   links, placements are valid covers, ILP <= greedy <= thiran, ILP
   matches brute force on small candidate sets. *)

module Active = Monpos.Active
module Pop = Monpos_topo.Pop
module Synthetic = Monpos_topo.Synthetic
module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Prng = Monpos_util.Prng
module Metrics = Monpos_obs.Metrics

let probes_cover_links g probes expected =
  let covered = Array.make (Graph.num_edges g) false in
  List.iter
    (fun (p : Active.probe) ->
      List.iter (fun e -> covered.(e) <- true) p.Active.path.Paths.edges)
    probes;
  List.for_all (fun e -> covered.(e)) expected

let test_probes_cover_ring () =
  let g = Synthetic.ring 6 in
  let candidates = [ 0; 3 ] in
  let probes = Active.compute_probes g ~candidates in
  let coverable = Active.coverable_links g ~candidates in
  Alcotest.(check int) "ring fully coverable" 6 (List.length coverable);
  Alcotest.(check bool) "probes cover coverable" true
    (probes_cover_links g probes coverable);
  (* all probe a-endpoints are candidates *)
  List.iter
    (fun (p : Active.probe) ->
      Alcotest.(check bool) "endpoint_a candidate" true
        (List.mem p.Active.endpoint_a candidates))
    probes

let test_probe_paths_are_shortest () =
  let pop = Pop.make_preset `Pop15 ~seed:2 in
  let g = pop.Pop.graph in
  let candidates =
    match Pop.routers pop with a :: b :: c :: _ -> [ a; b; c ] | _ -> []
  in
  let probes = Active.compute_probes g ~candidates in
  List.iter
    (fun (p : Active.probe) ->
      let sp =
        Option.get
          (Paths.shortest_path g ~weight:(fun _ -> 1.0) p.Active.endpoint_a
             p.Active.endpoint_b)
      in
      Alcotest.(check (float 1e-9)) "probe is a shortest path" sp.Paths.cost
        p.Active.path.Paths.cost)
    probes

let test_placements_valid_and_ordered () =
  let pop = Pop.make_preset `Pop15 ~seed:3 in
  let g = pop.Pop.graph in
  let routers = Array.of_list (Pop.routers pop) in
  let rng = Prng.create 5 in
  Prng.shuffle rng routers;
  let candidates = List.sort compare (Array.to_list (Array.sub routers 0 8)) in
  let probes = Active.compute_probes g ~candidates in
  let t = Active.place_thiran probes ~candidates in
  let gr = Active.place_greedy probes ~candidates in
  let ilp = Active.place_ilp probes ~candidates in
  List.iter
    (fun (p : Active.placement) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s valid" p.Active.method_name)
        true
        (Active.validate probes ~beacons:p.Active.beacons ~candidates))
    [ t; gr; ilp ];
  Alcotest.(check bool) "ilp <= greedy" true
    (List.length ilp.Active.beacons <= List.length gr.Active.beacons);
  Alcotest.(check bool) "ilp <= thiran" true
    (List.length ilp.Active.beacons <= List.length t.Active.beacons);
  Alcotest.(check bool) "ilp proved" true ilp.Active.optimal

let test_single_candidate () =
  let g = Synthetic.star 5 in
  let probes = Active.compute_probes g ~candidates:[ 0 ] in
  Alcotest.(check bool) "some probes" true (probes <> []);
  let ilp = Active.place_ilp probes ~candidates:[ 0 ] in
  Alcotest.(check (list int)) "hub beacon" [ 0 ] ilp.Active.beacons;
  let gr = Active.place_greedy probes ~candidates:[ 0 ] in
  Alcotest.(check (list int)) "greedy hub" [ 0 ] gr.Active.beacons

let test_probe_set_is_minimal_enough () =
  (* compute_probes designates at most [redundancy] probes per covered
     link (deduplicated), so the set stays linear in the link count *)
  let pop = Pop.make_preset `Pop29 ~seed:4 in
  let g = pop.Pop.graph in
  let routers = Pop.routers pop in
  let probes = Active.compute_probes g ~candidates:routers in
  let coverable = Active.coverable_links g ~candidates:routers in
  Alcotest.(check bool) "covers everything coverable" true
    (probes_cover_links g probes coverable);
  Alcotest.(check bool) "not absurdly many probes" true
    (List.length probes <= 3 * List.length coverable);
  (* redundancy 1 keeps it below one probe per link *)
  let single = Active.compute_probes ~redundancy:1 g ~candidates:routers in
  Alcotest.(check bool) "redundancy 1 bound" true
    (List.length single <= List.length coverable);
  Alcotest.(check bool) "redundancy 1 still covers" true
    (probes_cover_links g single coverable)

let test_overhead_accounting () =
  let pop = Pop.make_preset `Pop15 ~seed:6 in
  let g = pop.Pop.graph in
  let candidates = Pop.routers pop in
  let probes = Active.compute_probes ~targets:candidates g ~candidates in
  let ilp = Active.place_ilp probes ~candidates in
  let cost = Active.overhead probes ~beacons:ilp.Active.beacons in
  Alcotest.(check int) "every probe is sent" (List.length probes)
    cost.Active.messages;
  let expected_hops =
    List.fold_left
      (fun acc (p : Active.probe) -> acc + List.length p.Active.path.Paths.edges)
      0 probes
  in
  Alcotest.(check int) "hops add up" expected_hops cost.Active.hops;
  let per_beacon_sum =
    List.fold_left (fun acc (_, c) -> acc + c) 0 cost.Active.per_beacon
  in
  Alcotest.(check int) "per-beacon counts sum to messages"
    cost.Active.messages per_beacon_sum;
  (* senders are beacons *)
  List.iter
    (fun (b, _) ->
      Alcotest.(check bool) "sender is beacon" true
        (List.mem b ilp.Active.beacons))
    cost.Active.per_beacon

(* fig9-fig11's candidate draws as in Scenario.active_sweep: for each
   seed and each |V_B| = 1..|routers|, a seeded shuffle of the routers
   gives the candidates, and the probes go towards them. *)
let fig_draws (preset, name) ~seeds =
  List.concat_map
    (fun seed ->
      let pop = Pop.make_preset preset ~seed in
      List.init (Pop.num_routers pop) (fun i ->
          let vb_size = i + 1 in
          let routers = Array.of_list (Pop.routers pop) in
          Prng.shuffle (Prng.create ((seed * 104729) + vb_size)) routers;
          let candidates =
            List.sort compare (Array.to_list (Array.sub routers 0 vb_size))
          in
          (Printf.sprintf "%s seed %d, |V_B| %d" name seed vb_size,
           pop.Pop.graph, candidates)))
    seeds

(* Calls [f] on every fig draw with a non-empty probe set and returns
   how many it saw. *)
let iter_fig_draws spec ~seeds f =
  List.fold_left
    (fun draws (what, g, candidates) ->
      let probes = Active.compute_probes ~targets:candidates g ~candidates in
      if probes = [] then draws
      else begin
        f what probes candidates;
        draws + 1
      end)
    0 (fig_draws spec ~seeds)

(* The perfbench beacons workload's placements: Pop80 topologies 1-6,
   |V_B| in 1, 6, .., 76, 80, drawn with the same shuffle seeds. *)
let beacons_bench_draws () =
  List.concat_map
    (fun j ->
      let pop = Pop.make_preset `Pop80 ~seed:j in
      let routers = Array.of_list (Pop.routers pop) in
      List.init 17 (fun i ->
          let vb_size = min 80 (1 + (5 * i)) in
          let shuffled = Array.copy routers in
          Prng.shuffle (Prng.create ((j * 104729) + vb_size)) shuffled;
          let candidates =
            List.sort compare
              (Array.to_list
                 (Array.sub shuffled 0 (min vb_size (Array.length shuffled))))
          in
          (Printf.sprintf "pop80 topology %d, |V_B| %d" j vb_size,
           pop.Pop.graph, candidates)))
    [ 1; 2; 3; 4; 5; 6 ]

(* Tie-heavy graphs: on a grid and on a ring with chords many probes
   share a length and an extremity degree, so the hash tie-break and
   the parent choice among equal-length paths decide the probe set.
   Candidate lists come unsorted and with repeats. *)
let tie_heavy_graphs () =
  let ring = Synthetic.ring 24 in
  List.iter (fun (u, v) -> ignore (Graph.add_edge ring u v))
    [ (0, 12); (3, 15); (6, 18); (9, 21); (2, 7); (13, 20) ];
  [ ("grid 6x7", Synthetic.grid 6 7, [ [ 0; 41; 20; 7 ]; List.init 42 Fun.id;
      [ 35; 3; 3; 17; 28; 10; 35 ] ]);
    ("ring 24 with chords", ring, [ [ 0; 12 ]; List.init 24 (fun i -> 23 - i);
      [ 5; 1; 19; 5; 14; 8; 22 ] ]) ]

(* The linear-pass probe computation against the sort-based oracle:
   the identical list (probes, order, owning endpoint, paths) on every
   perfbench beacons placement, on fig9/fig10's draws, and on
   tie-heavy graphs with every node a target at redundancy 1, 3, 5. *)
let test_probes_match_oracle () =
  let compared = ref 0 in
  let check what ?targets ?redundancy g candidates =
    incr compared;
    if
      Active.compute_probes ?targets ?redundancy g ~candidates
      <> Beacon_oracle.probes ?targets ?redundancy g ~candidates
    then Alcotest.failf "%s: probe lists differ" what
  in
  List.iter
    (fun (what, g, candidates) -> check what ~targets:candidates g candidates)
    (beacons_bench_draws ()
    @ fig_draws (`Pop15, "pop15") ~seeds:(List.init 10 (fun i -> i + 1))
    @ fig_draws (`Pop29, "pop29") ~seeds:[ 1; 2; 3 ]);
  List.iter
    (fun (name, g, candidate_sets) ->
      List.iter
        (fun candidates ->
          List.iter
            (fun redundancy ->
              check
                (Printf.sprintf "%s, %d candidates, redundancy %d" name
                   (List.length candidates) redundancy)
                ~redundancy g candidates)
            [ 1; 3; 5 ])
        candidate_sets)
    (tie_heavy_graphs ());
  Alcotest.(check int) "draws compared" 357 !compared

(* The set-cover engine against the beacon ILP solved as a 0-1 MIP, on
   fig9's candidate draws (Pop15, seeds 1..10). Among equal-size optima
   the two engines may pick different beacons, so the contract is the
   count, the proof and validity. *)
let test_ilp_matches_mip_oracle () =
  let placements =
    iter_fig_draws (`Pop15, "pop15") ~seeds:(List.init 10 (fun i -> i + 1))
      (fun what probes candidates ->
        let ilp = Active.place_ilp probes ~candidates in
        let mip = Beacon_oracle.place probes ~candidates in
        Alcotest.(check int) (what ^ ": count")
          (List.length mip.Active.beacons)
          (List.length ilp.Active.beacons);
        Alcotest.(check bool) (what ^ ": both proven") true
          (ilp.Active.optimal && mip.Active.optimal);
        List.iter
          (fun (p : Active.placement) ->
            Alcotest.(check bool) (what ^ ": valid") true
              (Active.validate probes ~beacons:p.Active.beacons ~candidates))
          [ ilp; mip ])
  in
  Alcotest.(check int) "placements compared" 140 placements

(* The ILP beacon counts of the perfbench beacons placements, by
   topology over the non-empty placements in |V_B| order, as the
   general set-cover search found them before pair systems had their
   own path. Each must stay proven optimal. The pair path's reductions
   leave [kernel_sets] sets to its search over all 96 placements. *)
let bench_ilp_counts =
  [
    ("pop80 topology 1", [ 5; 9; 12; 14; 18; 19; 19; 18; 19; 19; 20; 17; 15; 17; 14; 15 ]);
    ("pop80 topology 2", [ 5; 9; 13; 14; 18; 16; 19; 20; 20; 21; 18; 20; 18; 17; 17; 15 ]);
    ("pop80 topology 3", [ 5; 8; 12; 14; 17; 17; 15; 20; 19; 18; 19; 17; 15; 15; 13; 12 ]);
    ("pop80 topology 4", [ 4; 9; 13; 15; 15; 19; 20; 18; 21; 19; 20; 20; 18; 17; 13; 13 ]);
    ("pop80 topology 5", [ 5; 9; 13; 14; 18; 16; 17; 19; 19; 21; 18; 22; 18; 16; 16; 14 ]);
    ("pop80 topology 6", [ 5; 8; 13; 15; 15; 16; 19; 20; 21; 17; 17; 16; 18; 18; 15; 13 ]);
  ]

let kernel_sets = 840

let test_ilp_bench_counts () =
  let kernel = Metrics.counter Metrics.default "cover.kernel_sets" in
  let before = Metrics.counter_value kernel in
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (what, g, candidates) ->
      let probes = Active.compute_probes ~targets:candidates g ~candidates in
      if probes <> [] then begin
        let ilp = Active.place_ilp probes ~candidates in
        Alcotest.(check bool) (what ^ ": proven") true ilp.Active.optimal;
        Alcotest.(check bool) (what ^ ": valid") true
          (Active.validate probes ~beacons:ilp.Active.beacons ~candidates);
        let topo = String.sub what 0 (String.index what ',') in
        Hashtbl.replace counts topo
          (List.length ilp.Active.beacons
          :: Option.value (Hashtbl.find_opt counts topo) ~default:[])
      end)
    (beacons_bench_draws ());
  List.iter
    (fun (topo, want) ->
      Alcotest.(check (list int)) topo want
        (List.rev (Option.value (Hashtbl.find_opt counts topo) ~default:[])))
    bench_ilp_counts;
  Alcotest.(check int) "kernel sets" kernel_sets
    (Metrics.counter_value kernel - before)

(* The greedy runs on Cover; the old loop over probes is its oracle,
   and both must name the same beacons on fig9/fig10's candidate draws
   (Pop15 and Pop29, seeds 1..3). *)
let test_greedy_matches_oracle () =
  let placements =
    List.fold_left
      (fun acc preset ->
        acc
        + iter_fig_draws preset ~seeds:[ 1; 2; 3 ]
            (fun what probes candidates ->
              Alcotest.(check (list int)) what
                (Beacon_oracle.greedy probes ~candidates).Active.beacons
                (Active.place_greedy probes ~candidates).Active.beacons))
      0
      [ (`Pop15, "pop15"); (`Pop29, "pop29") ]
  in
  Alcotest.(check int) "placements compared" 126 placements

(* Three probes on a triangle of candidates: every candidate can send
   two of them, so the first pick is a three-way tie and the second a
   two-way tie. The lower id wins both, whatever the candidate order. *)
let test_greedy_tie_lowest_id () =
  let probe a b =
    { Active.endpoint_a = a; endpoint_b = b;
      path = { Paths.nodes = [ a; b ]; edges = []; cost = 1.0 } }
  in
  let probes = [ probe 4 7; probe 4 9; probe 7 9 ] in
  let candidates = [ 4; 7; 9 ] in
  Alcotest.(check (list int)) "oracle" [ 4; 7 ]
    (Beacon_oracle.greedy probes ~candidates).Active.beacons;
  List.iter
    (fun candidates ->
      Alcotest.(check (list int)) "greedy" [ 4; 7 ]
        (Active.place_greedy probes ~candidates).Active.beacons)
    [ candidates; List.rev candidates ]

(* A probe neither of whose extremities is a candidate cannot be sent;
   the error names the placement that was asked. *)
let check_unplaceable ~fn place =
  let g = Synthetic.ring 6 in
  let probes = Active.compute_probes g ~candidates:[ 0; 3 ] in
  match place probes ~candidates:[ 1 ] with
  | _ -> Alcotest.fail "expected Infeasible_model"
  | exception
      Monpos_resilience.Error.Error
        (Monpos_resilience.Error.Infeasible_model { what }) ->
    Alcotest.(check bool) (what ^ " names " ^ fn) true
      (String.starts_with ~prefix:(fn ^ ":") what)

let test_ilp_unplaceable_probe () =
  check_unplaceable ~fn:"Active.place_ilp" (fun probes ~candidates ->
      Active.place_ilp probes ~candidates)

let test_greedy_unplaceable_probe () =
  check_unplaceable ~fn:"Active.place_greedy" Active.place_greedy

let brute_force_vertex_cover probes candidates =
  let cands = Array.of_list candidates in
  let n = Array.length cands in
  let best = ref max_int in
  for mask = 0 to (1 lsl n) - 1 do
    let chosen =
      List.filter_map
        (fun i -> if mask land (1 lsl i) <> 0 then Some cands.(i) else None)
        (List.init n Fun.id)
    in
    if
      List.length chosen < !best
      && List.for_all
           (fun (p : Active.probe) ->
             List.mem p.Active.endpoint_a chosen
             || List.mem p.Active.endpoint_b chosen)
           probes
    then best := List.length chosen
  done;
  !best

let prop_ilp_matches_brute_force =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"beacon ILP matches brute-force vertex cover"
    ~count:15 gen (fun seed ->
      let pop = Pop.make_preset `Pop10 ~seed:(1 + (seed mod 29)) in
      let g = pop.Pop.graph in
      let routers = Array.of_list (Pop.routers pop) in
      let rng = Prng.create seed in
      Prng.shuffle rng routers;
      let vb_size = 2 + Prng.int rng 7 in
      let candidates =
        List.sort compare (Array.to_list (Array.sub routers 0 vb_size))
      in
      let probes = Active.compute_probes g ~candidates in
      probes = []
      ||
      let ilp = Active.place_ilp probes ~candidates in
      ilp.Active.optimal
      && List.length ilp.Active.beacons = brute_force_vertex_cover probes candidates)

let prop_greedy_between_ilp_and_thiran =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"ilp <= greedy placements always valid" ~count:15
    gen (fun seed ->
      let pop = Pop.make_preset `Pop15 ~seed:(1 + (seed mod 17)) in
      let g = pop.Pop.graph in
      let routers = Array.of_list (Pop.routers pop) in
      let rng = Prng.create seed in
      Prng.shuffle rng routers;
      let vb_size = 2 + Prng.int rng 10 in
      let candidates =
        List.sort compare (Array.to_list (Array.sub routers 0 vb_size))
      in
      let probes = Active.compute_probes g ~candidates in
      probes = []
      ||
      let t = Active.place_thiran probes ~candidates in
      let gr = Active.place_greedy probes ~candidates in
      let ilp = Active.place_ilp probes ~candidates in
      Active.validate probes ~beacons:t.Active.beacons ~candidates
      && Active.validate probes ~beacons:gr.Active.beacons ~candidates
      && Active.validate probes ~beacons:ilp.Active.beacons ~candidates
      && List.length ilp.Active.beacons <= List.length gr.Active.beacons
      && List.length ilp.Active.beacons <= List.length t.Active.beacons)

let suite =
  [
    Alcotest.test_case "probes cover ring" `Quick test_probes_cover_ring;
    Alcotest.test_case "probe paths shortest" `Quick test_probe_paths_are_shortest;
    Alcotest.test_case "placements valid" `Quick test_placements_valid_and_ordered;
    Alcotest.test_case "single candidate" `Quick test_single_candidate;
    Alcotest.test_case "probe set small" `Quick test_probe_set_is_minimal_enough;
    Alcotest.test_case "probes match oracle" `Quick test_probes_match_oracle;
    Alcotest.test_case "overhead accounting" `Quick test_overhead_accounting;
    Alcotest.test_case "ilp matches mip oracle" `Quick test_ilp_matches_mip_oracle;
    Alcotest.test_case "ilp unplaceable probe" `Quick test_ilp_unplaceable_probe;
    Alcotest.test_case "greedy unplaceable probe" `Quick test_greedy_unplaceable_probe;
    Alcotest.test_case "greedy matches oracle" `Quick test_greedy_matches_oracle;
    Alcotest.test_case "greedy tie lowest id" `Quick test_greedy_tie_lowest_id;
    QCheck_alcotest.to_alcotest prop_ilp_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_greedy_between_ilp_and_thiran;
    Alcotest.test_case "ilp counts on the bench draws" `Quick test_ilp_bench_counts;
  ]
