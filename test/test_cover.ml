(* Set-cover tests: greedy vs exact vs brute force, partial covers,
   the Figure 3 greedy counterexample pattern, and both Theorem 1
   reductions. *)

module Cover = Monpos_cover.Cover
module Graph = Monpos_graph.Graph
module Prng = Monpos_util.Prng
module Instance = Monpos.Instance
module Pop = Monpos_topo.Pop
module Traffic = Monpos_traffic.Traffic
module Trace = Monpos_obs.Trace
module Json = Monpos_obs.Json

let mk ?weights sets = Cover.make ~num_items:(
    1 + List.fold_left (fun acc s -> List.fold_left max acc s) 0
          (Array.to_list sets))
    ?weights sets

let test_basic_cover () =
  let inst = mk [| [ 0; 1 ]; [ 2; 3 ]; [ 0; 2 ]; [ 1; 3 ] |] in
  let g = Cover.greedy inst in
  Alcotest.(check bool) "greedy covers" true (Cover.is_cover inst g);
  let e = Cover.exact inst in
  Alcotest.(check bool) "exact covers" true (Cover.is_cover inst e);
  Alcotest.(check int) "optimum 2" 2 (List.length e)

let test_greedy_suboptimal_classic () =
  (* classic lnN counterexample: greedy picks the big set first and
     needs 3 sets where 2 suffice *)
  let inst =
    mk [| [ 0; 1; 3; 4 ]; [ 0; 1; 2 ]; [ 3; 4; 5 ] |]
  in
  let g = Cover.greedy inst in
  let e = Cover.exact inst in
  Alcotest.(check int) "greedy 3" 3 (List.length g);
  Alcotest.(check int) "exact 2" 2 (List.length e)

let test_figure3_counterexample () =
  (* The paper's Figure 3: four traffics, two of weight 2 and two of
     weight 1. The greedy takes the load-4 link first and ends with 3
     monitors; the optimum uses the two load-3 links.
     Sets(=links): l0 covers {t0,t1} (the two weight-2 traffics),
     l1 covers {t0,t2}, l2 covers {t1,t3}, l3 covers {t2}, l4 covers
     {t3}. *)
  let weights = [| 2.0; 2.0; 1.0; 1.0 |] in
  let inst =
    Cover.make ~num_items:4 ~weights
      [| [ 0; 1 ]; [ 0; 2 ]; [ 1; 3 ]; [ 2 ]; [ 3 ] |]
  in
  let g = Cover.greedy inst in
  let e = Cover.exact inst in
  Alcotest.(check int) "greedy uses 3" 3 (List.length g);
  Alcotest.(check int) "optimum is 2" 2 (List.length e);
  Alcotest.(check bool) "greedy starts with the heaviest link" true
    (List.hd g = 0)

let test_partial_cover () =
  let weights = [| 10.0; 5.0; 1.0 |] in
  let inst = Cover.make ~num_items:3 ~weights [| [ 0 ]; [ 1 ]; [ 2 ] |] in
  (* covering 14/16 of the weight needs the two big singletons *)
  let g = Cover.greedy ~target:14.0 inst in
  Alcotest.(check int) "greedy picks 2" 2 (List.length g);
  let e = Cover.exact ~target:14.0 inst in
  Alcotest.(check int) "exact picks 2" 2 (List.length e);
  Alcotest.(check bool) "partial cover ok" true
    (Cover.is_cover ~target:14.0 inst e);
  Alcotest.(check bool) "not full cover" false (Cover.is_cover inst e)

let test_unreachable_target () =
  let inst = Cover.make ~num_items:2 [| [ 0 ] |] in
  Alcotest.(check bool) "greedy raises Infeasible_model" true
    (try
       ignore (Cover.greedy inst);
       false
     with
    | Monpos_resilience.Error.Error (Monpos_resilience.Error.Infeasible_model _)
      ->
      true);
  (* a pair system (every item in at most two sets) with an item in none *)
  let pairs = Cover.make ~num_items:3 [| [ 0; 1 ]; [ 1 ] |] in
  Alcotest.(check bool) "exact raises Infeasible_model" true
    (try
       ignore (Cover.exact_detailed pairs);
       false
     with
    | Monpos_resilience.Error.Error (Monpos_resilience.Error.Infeasible_model _)
      ->
      true)

let test_guarantee_value () =
  let inst = mk [| [ 0; 1; 2 ]; [ 0 ] |] in
  Alcotest.(check (float 1e-9)) "H_3" (1.0 +. 0.5 +. (1.0 /. 3.0))
    (Cover.greedy_guarantee inst)

let brute_force_cover ?target inst =
  let nsets = Array.length inst.Cover.sets in
  let best = ref None in
  for mask = 0 to (1 lsl nsets) - 1 do
    let chosen =
      List.filter (fun j -> mask land (1 lsl j) <> 0) (List.init nsets Fun.id)
    in
    if Cover.is_cover ?target inst chosen then
      match !best with
      | Some b when List.length b <= List.length chosen -> ()
      | _ -> best := Some chosen
  done;
  !best

(* The branch and bound must explore the same tree as the list-based
   solver it replaced. The node counts, answers and incumbent events
   below were recorded from that solver on the Pop15 instances of
   fig8; any change to the branching order, the tie rule or a bound
   moves them. *)

let pop15_cover topo =
  let pop = Pop.make_preset `Pop15 ~seed:topo in
  let matrix =
    Traffic.generate pop.Pop.graph ~endpoints:(Pop.endpoints pop)
      ~seed:(topo * 131)
  in
  let inst = Instance.make pop.Pop.graph matrix in
  (Instance.cover_view inst, inst.Instance.total_volume)

(* [f ()] with the [(node, objective)] of every incumbent event. *)
let with_incumbents f =
  let incs = ref [] in
  let sink =
    Trace.custom (fun _ ev fields ->
        if ev = "incumbent" then
          match (List.assoc "node" fields, List.assoc "objective" fields) with
          | Json.Int n, Json.Float o -> incs := (n, int_of_float o) :: !incs
          | _ -> ())
  in
  let r = Trace.with_current sink f in
  (r, List.rev !incs)

type pinned_tree = {
  topo : int;
  k : int;  (** coverage target in percent; 100 is a full cover *)
  node_limit : int option;
  nodes : int;
  proven : bool;
  chosen : int list;
  incumbents : (int * int) list;
}

let solve_pinned (cover, total) p =
  let target = float_of_int p.k /. 100.0 *. total in
  with_incumbents (fun () ->
      if p.k = 100 then Cover.exact_detailed ?node_limit:p.node_limit cover
      else Cover.exact_detailed ~target ?node_limit:p.node_limit cover)

let pinned_trees =
  [
    {
      topo = 1;
      k = 75;
      node_limit = None;
      nodes = 15;
      proven = true;
      chosen = [ 5; 7; 8; 10; 20 ];
      incumbents = [ (0, 5) ];
    };
    {
      topo = 1;
      k = 80;
      node_limit = None;
      nodes = 29;
      proven = true;
      chosen = [ 5; 7; 8; 10; 20; 24 ];
      incumbents = [ (0, 6) ];
    };
    {
      topo = 1;
      k = 85;
      node_limit = None;
      nodes = 45;
      proven = true;
      chosen = [ 5; 7; 8; 10; 14; 20; 24 ];
      incumbents = [ (0, 7) ];
    };
    {
      topo = 1;
      k = 90;
      node_limit = None;
      nodes = 313;
      proven = true;
      chosen = [ 5; 7; 8; 9; 10; 14; 17; 20; 24; 59 ];
      incumbents = [ (0, 10) ];
    };
    {
      topo = 1;
      k = 95;
      node_limit = None;
      nodes = 8241;
      proven = true;
      chosen = [ 5; 6; 7; 8; 9; 10; 14; 17; 20; 24; 26; 29; 30; 51; 59 ];
      incumbents = [ (0, 15) ];
    };
    {
      topo = 5;
      k = 75;
      node_limit = None;
      nodes = 7;
      proven = true;
      chosen = [ 6; 7; 12; 14; 19 ];
      incumbents = [ (0, 5) ];
    };
    {
      topo = 5;
      k = 80;
      node_limit = None;
      nodes = 15;
      proven = true;
      chosen = [ 6; 7; 8; 12; 14; 19 ];
      incumbents = [ (0, 6) ];
    };
    {
      topo = 5;
      k = 85;
      node_limit = None;
      nodes = 17;
      proven = true;
      chosen = [ 6; 7; 8; 12; 14; 19; 29 ];
      incumbents = [ (0, 7) ];
    };
    {
      topo = 5;
      k = 90;
      node_limit = None;
      nodes = 41;
      proven = true;
      chosen = [ 6; 7; 8; 12; 13; 14; 19; 24; 29 ];
      incumbents = [ (0, 9) ];
    };
    {
      topo = 5;
      k = 95;
      node_limit = None;
      nodes = 4547;
      proven = true;
      chosen = [ 6; 7; 8; 9; 11; 12; 13; 14; 19; 24; 27; 29; 32; 47; 59; 60 ];
      incumbents = [ (0, 16) ];
    };
    {
      topo = 1;
      k = 100;
      node_limit = Some 20_000;
      nodes = 20037;
      proven = false;
      chosen =
        [
          5; 7; 8; 9; 10; 14; 24; 26; 27; 29; 30; 31; 32; 33; 34; 35; 36; 37;
          38; 39; 40; 41; 42; 43; 44; 45; 46; 47; 48; 49; 50; 51; 52; 53; 55;
          56; 57; 58; 59; 61; 64; 65; 66; 67
        ];
      incumbents = [ (0, 44) ];
    };
  ]

let test_pinned_trees () =
  let covers = List.map (fun t -> (t, pop15_cover t)) [ 1; 5 ] in
  List.iter
    (fun p ->
      let r, incumbents = solve_pinned (List.assoc p.topo covers) p in
      let name what = Printf.sprintf "topology %d k=%d%% %s" p.topo p.k what in
      Alcotest.(check int) (name "nodes") p.nodes r.Cover.nodes;
      Alcotest.(check bool) (name "proven") p.proven r.Cover.proven_optimal;
      Alcotest.(check (list int)) (name "chosen") p.chosen r.Cover.chosen;
      Alcotest.(check (list (pair int int)))
        (name "incumbents") p.incumbents incumbents)
    pinned_trees

(* Tie-heavy instances: unit or {1,2,3} weights, so many sets share a
   gain, with targets at an attainable weight, half a unit below one,
   or the full weight. *)
let tie_heavy_instance i =
  let rng = Prng.create (7_000 + i) in
  let n = 12 + Prng.int rng 12 in
  let nsets = 8 + Prng.int rng 5 in
  let sets =
    Array.init nsets (fun _ ->
        List.filter (fun _ -> Prng.int rng 3 = 0) (List.init n Fun.id))
  in
  let weights =
    if i mod 2 = 0 then Array.make n 1.0
    else Array.init n (fun _ -> float_of_int (1 + Prng.int rng 3))
  in
  let inst = Cover.make ~num_items:n ~weights sets in
  let attainable () =
    Cover.covered_weight inst
      (List.filter (fun _ -> Prng.bool rng) (List.init nsets Fun.id))
  in
  let target =
    match Prng.int rng 3 with
    | 0 -> None
    | 1 -> Some (attainable ())
    | _ -> Some (Float.max 0.5 (attainable () -. 0.5))
  in
  (inst, target)

let tie_heavy_count = 400

(* B&B nodes over the tie-heavy instances, recorded from the list-based
   solver: the total, and the sum of [(i + 1) * nodes_i], which moves when
   any one instance's tree does. A tie broken the other way changes them. *)
let tie_heavy_nodes = (1837, 377_109)

(* Greedy as specified: the largest uncovered weight, summed in set
   order, first index on ties. *)
let reference_greedy ?target inst =
  let target =
    match target with Some t -> t | None -> Cover.total_weight inst
  in
  let covered = Array.make inst.Cover.num_items false in
  let gain s =
    List.fold_left
      (fun acc u -> if covered.(u) then acc else acc +. inst.Cover.item_weight.(u))
      0.0 s
  in
  let rec go covered_w picks =
    if covered_w >= target -. 1e-9 then Some (List.rev picks)
    else begin
      let best = ref (-1) and best_gain = ref 0.0 in
      Array.iteri
        (fun j s ->
          let g = gain s in
          if g > !best_gain +. 1e-12 then begin
            best := j;
            best_gain := g
          end)
        inst.Cover.sets;
      if !best < 0 then None
      else begin
        List.iter (fun u -> covered.(u) <- true) inst.Cover.sets.(!best);
        go (covered_w +. !best_gain) (!best :: picks)
      end
    end
  in
  go 0.0 []

let infeasible f =
  try
    ignore (f ());
    false
  with
  | Monpos_resilience.Error.Error (Monpos_resilience.Error.Infeasible_model _)
    ->
    true

let test_tie_heavy () =
  let nodes = ref 0 and weighted = ref 0 in
  for i = 0 to tie_heavy_count - 1 do
    let inst, target = tie_heavy_instance i in
    let name what = Printf.sprintf "instance %d %s" i what in
    (match reference_greedy ?target inst with
     | None ->
       Alcotest.(check bool) (name "greedy infeasible") true
         (infeasible (fun () -> Cover.greedy ?target inst))
     | Some picks ->
       Alcotest.(check (list int)) (name "greedy picks") picks
         (Cover.greedy ?target inst));
    match brute_force_cover ?target inst with
    | None ->
      Alcotest.(check bool) (name "exact infeasible") true
        (infeasible (fun () -> Cover.exact_detailed ?target inst))
    | Some bf ->
      let r = Cover.exact_detailed ?target inst in
      nodes := !nodes + r.Cover.nodes;
      weighted := !weighted + ((i + 1) * r.Cover.nodes);
      Alcotest.(check int) (name "optimum") (List.length bf)
        (List.length r.Cover.chosen);
      Alcotest.(check bool) (name "is a cover") true
        (Cover.is_cover ?target inst r.Cover.chosen)
  done;
  Alcotest.(check (pair int int)) "nodes" tie_heavy_nodes (!nodes, !weighted)

let prop_exact_matches_brute_force =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"exact cover matches brute force" ~count:100 gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let nsets = 1 + Prng.int rng 9 in
      let sets =
        Array.init nsets (fun _ ->
            List.filter (fun _ -> Prng.bool rng) (List.init n Fun.id))
      in
      let weights = Array.init n (fun _ -> 0.5 +. Prng.float rng 4.5) in
      let inst = Cover.make ~num_items:n ~weights sets in
      let target =
        if Prng.bool rng then None
        else Some (Prng.float rng (Cover.total_weight inst))
      in
      match brute_force_cover ?target inst with
      | None -> (
        try
          ignore (Cover.exact ?target inst);
          false
        with
        | Monpos_resilience.Error.Error
            (Monpos_resilience.Error.Infeasible_model _) ->
          true)
      | Some bf ->
        let e = Cover.exact ?target inst in
        List.length e = List.length bf && Cover.is_cover ?target inst e)

let prop_greedy_feasible_and_bounded =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"greedy is feasible and within its guarantee"
    ~count:100 gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 8 in
      let nsets = 2 + Prng.int rng 8 in
      let sets =
        Array.init nsets (fun j ->
            if j = 0 then List.init n Fun.id (* ensure coverable *)
            else List.filter (fun _ -> Prng.bool rng) (List.init n Fun.id))
      in
      let inst = Cover.make ~num_items:n sets in
      let g = Cover.greedy inst in
      let e = Cover.exact inst in
      Cover.is_cover inst g
      && float_of_int (List.length g)
         <= (Cover.greedy_guarantee inst *. float_of_int (List.length e)) +. 1e-9)

let test_exact_detailed_node_limit () =
  (* a tiny node budget must still return a feasible cover, flagged as
     unproven *)
  let g = Monpos_util.Prng.create 3 in
  let n = 40 and nsets = 25 in
  let sets =
    Array.init nsets (fun j ->
        if j = 0 then List.init n Fun.id
        else List.filter (fun _ -> Monpos_util.Prng.bool g) (List.init n Fun.id))
  in
  (* a 5-cycle pair system is its own kernel: no forced set, every
     degree 2, and the LP at 1/2 everywhere *)
  let cycle = [| [ 0; 4 ]; [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ]; [ 3; 4 ] |] in
  List.iter
    (fun inst ->
      (* a zero budget trips before the first node: the greedy/local-search
         incumbent comes back feasible but unproven *)
      let r = Cover.exact_detailed ~node_limit:0 inst in
      Alcotest.(check bool) "feasible" true (Cover.is_cover inst r.Cover.chosen);
      Alcotest.(check bool) "not proven" false r.Cover.proven_optimal;
      (* with a generous budget the same instance proves *)
      let r2 = Cover.exact_detailed inst in
      Alcotest.(check bool) "proven" true r2.Cover.proven_optimal;
      Alcotest.(check bool) "no worse" true
        (List.length r2.Cover.chosen <= List.length r.Cover.chosen))
    [ Cover.make ~num_items:n sets; Cover.make ~num_items:5 cycle ]

(* Pair systems: full covers in which every item lies in one or two
   sets, i.e. vertex covers with forced vertices. Up to 12 sets, with
   one-set items, repeated pairs, sets in no pair and the items in a
   random order, against brute force. Half the instances join a few
   hubs to the other sets only, so many of those sets meet two hubs or
   more: crowns that the degree rules leave and the LP fixing takes. *)
let pair_system rng =
  let nsets = 1 + Prng.int rng 12 in
  let hubs = if Prng.bool rng then 1 + Prng.int rng 3 else nsets in
  let items =
    List.init (Prng.int rng 30) (fun _ ->
        let a = Prng.int rng (Int.min hubs nsets) in
        match Prng.int rng 6 with
        | 0 -> [ a ]
        | _ ->
          let b =
            if hubs < nsets then hubs + Prng.int rng (nsets - hubs)
            else Prng.int rng nsets
          in
          if a = b then [ a ] else [ a; b ])
  in
  (* repeat some pairs, then shuffle the items *)
  let items =
    Array.of_list
      (items @ List.filter (fun _ -> Prng.int rng 4 = 0) items)
  in
  Prng.shuffle rng items;
  let sets = Array.make nsets [] in
  Array.iteri
    (fun u owners -> List.iter (fun j -> sets.(j) <- u :: sets.(j)) owners)
    items;
  Cover.make ~num_items:(Array.length items) (Array.map List.rev sets)

let prop_pair_systems_match_brute_force =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"pair systems match brute force" ~count:300 gen
    (fun seed ->
      let inst = pair_system (Prng.create seed) in
      match brute_force_cover inst with
      | None -> false
      | Some bf ->
        let r = Cover.exact_detailed inst in
        List.length r.Cover.chosen = List.length bf
        && Cover.is_cover inst r.Cover.chosen
        && r.Cover.proven_optimal)

let test_reduction_to_monitoring_structure () =
  (* Figure 4 example shape: items covered by overlapping sets *)
  let inst = mk [| [ 0; 1 ]; [ 1; 2 ]; [ 2; 3 ] |] in
  let red = Cover.Reduction.to_monitoring inst in
  (* 2 nodes per set; edges: one per set + 2 per intersecting pair *)
  Alcotest.(check int) "nodes" 6 (Graph.num_nodes red.Cover.Reduction.graph);
  Alcotest.(check int) "edges" (3 + 4) (Graph.num_edges red.Cover.Reduction.graph);
  (* every item's path visits exactly the edges of its containing sets *)
  Array.iteri
    (fun u (_, edges) ->
      let expected =
        List.filter
          (fun j -> List.mem u inst.Cover.sets.(j))
          (List.init 3 Fun.id)
        |> List.map (fun j -> red.Cover.Reduction.edge_of_set.(j))
      in
      let set_edges =
        List.filter
          (fun e -> Array.exists (( = ) e) red.Cover.Reduction.edge_of_set)
          edges
      in
      Alcotest.(check (list int)) "set edges on path" expected set_edges)
    red.Cover.Reduction.paths

let test_reduction_paths_are_walks () =
  let inst = mk [| [ 0; 1; 2 ]; [ 0; 2 ]; [ 1; 2; 3 ]; [ 3 ] |] in
  let red = Cover.Reduction.to_monitoring inst in
  let g = red.Cover.Reduction.graph in
  Array.iter
    (fun (nodes, edges) ->
      Alcotest.(check int) "lengths" (List.length nodes) (List.length edges + 1);
      let rec walk ns es =
        match (ns, es) with
        | [ _ ], [] -> true
        | u :: (v :: _ as rest), e :: etl ->
          let a, b = Graph.endpoints g e in
          ((a = u && b = v) || (a = v && b = u)) && walk rest etl
        | _ -> false
      in
      Alcotest.(check bool) "valid walk" true (walk nodes edges))
    red.Cover.Reduction.paths

let prop_reduction_preserves_optimum =
  (* Theorem 1: minimum monitored-link count on the reduced instance
     equals the minimum set cover size. *)
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"theorem 1 reduction preserves the optimum"
    ~count:60 gen (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 5 in
      let nsets = 2 + Prng.int rng 5 in
      let sets =
        Array.init nsets (fun j ->
            if j = 0 then List.init n Fun.id
            else List.filter (fun _ -> Prng.bool rng) (List.init n Fun.id))
      in
      let inst = Cover.make ~num_items:n sets in
      let msc_opt = List.length (Cover.exact inst) in
      let red = Cover.Reduction.to_monitoring inst in
      (* monitoring instance as cover: sets = all graph edges *)
      let mon =
        Cover.Reduction.of_monitoring
          ~num_edges:(Graph.num_edges red.Cover.Reduction.graph)
          ~weights:(Array.make n 1.0)
          (Array.map snd red.Cover.Reduction.paths)
      in
      let mon_opt = List.length (Cover.exact mon) in
      msc_opt = mon_opt)

let prop_round_trip_of_monitoring =
  (* of_monitoring builds the cover whose greedy equals monitoring
     greedy by construction *)
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"of_monitoring sets mirror path membership"
    ~count:100 gen (fun seed ->
      let rng = Prng.create seed in
      let ntraffics = 1 + Prng.int rng 6 in
      let nedges = 2 + Prng.int rng 6 in
      let paths =
        Array.init ntraffics (fun _ ->
            List.sort_uniq compare
              (List.init (1 + Prng.int rng 4) (fun _ -> Prng.int rng nedges)))
      in
      let weights = Array.make ntraffics 1.0 in
      let inst = Cover.Reduction.of_monitoring ~num_edges:nedges ~weights paths in
      Array.length inst.Cover.sets = nedges
      && Array.for_all
           (fun s -> List.for_all (fun t -> t >= 0 && t < ntraffics) s)
           inst.Cover.sets
      &&
      (* membership agrees *)
      List.for_all
        (fun e ->
          List.for_all
            (fun t ->
              List.mem t inst.Cover.sets.(e) = List.mem e paths.(t))
            (List.init ntraffics Fun.id))
        (List.init nedges Fun.id))

let suite =
  [
    Alcotest.test_case "basic cover" `Quick test_basic_cover;
    Alcotest.test_case "greedy suboptimal classic" `Quick test_greedy_suboptimal_classic;
    Alcotest.test_case "figure 3 counterexample" `Quick test_figure3_counterexample;
    Alcotest.test_case "partial cover" `Quick test_partial_cover;
    Alcotest.test_case "unreachable target" `Quick test_unreachable_target;
    Alcotest.test_case "guarantee value" `Quick test_guarantee_value;
    Alcotest.test_case "node limit behavior" `Quick test_exact_detailed_node_limit;
    Alcotest.test_case "reduction structure" `Quick test_reduction_to_monitoring_structure;
    Alcotest.test_case "reduction paths are walks" `Quick test_reduction_paths_are_walks;
    QCheck_alcotest.to_alcotest prop_exact_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_greedy_feasible_and_bounded;
    QCheck_alcotest.to_alcotest prop_reduction_preserves_optimum;
    QCheck_alcotest.to_alcotest prop_round_trip_of_monitoring;
    Alcotest.test_case "pinned pop15 search trees" `Quick test_pinned_trees;
    Alcotest.test_case "tie-heavy instances vs brute force" `Quick test_tie_heavy;
    QCheck_alcotest.to_alcotest prop_pair_systems_match_brute_force;
  ]
