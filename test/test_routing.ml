(* Randomized differential harness for the shortest-path search.

   [Paths.search] fills one reusable tree per source; [Paths_ref] is
   the pair-at-a-time heap search it replaced. On random graphs (tie-
   heavy unit weights, random weights, parallel edges and self-loops,
   with and without random banned node and edge masks) the harness
   checks, source by source, that

   - the tree's distances and parent edges equal the reference's bit
     for bit (the masks are honoured, the source is not checked),
   - [Paths.path_to], [Paths.shortest_path], [Paths.all_paths_to] and
     [Paths.k_shortest_paths] return the reference's paths exactly,
   - one search allocates nothing,
   - with zero-weight edges (where the reference's ECMP walk never
     returns), [Paths.all_paths_to] finds exactly the minimum-cost
     simple paths a brute-force enumeration finds,

   and that [Traffic.generate] and [Traffic.generate_gravity], single-
   path and ECMP, route every demand of Pop10/15/29/80 and Waxman
   graphs on the paths the reference finds pair by pair. The base seed
   comes from MONPOS_PROP_SEED (default 1) so CI can replay the same
   cases under several seeds. *)

module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Traffic = Monpos_traffic.Traffic
module Pop = Monpos_topo.Pop
module Synthetic = Monpos_topo.Synthetic
module Prng = Monpos_util.Prng

let prop_seed =
  match Sys.getenv_opt "MONPOS_PROP_SEED" with
  | Some s -> ( try int_of_string (String.trim s) with _ -> 1)
  | None -> 1

let cases = 300

let fail case fmt = Printf.ksprintf (fun m -> Alcotest.failf "case %d: %s" case m) fmt

(* families rotate with [case mod 4]:
   0 - unit weights, dense enough for many equal-length paths
   1 - weights in {1, 2, 3}: ties across paths of different lengths
   2 - random real weights (positive: [Paths_ref]'s ECMP walk goes
       round a zero-weight cycle for ever; zero weights are checked
       against brute force below)
   3 - a grid (the most tie-heavy shape) with unit weights
   every third case also draws random banned node and edge masks *)
let random_case rng case =
  let g, n =
    if case mod 4 = 3 then begin
      let rows = 2 + Prng.int rng 4 and cols = 2 + Prng.int rng 5 in
      (Synthetic.grid rows cols, rows * cols)
    end
    else begin
      let n = 2 + Prng.int rng 14 in
      let g = Graph.create ~num_nodes:n () in
      for _ = 1 to Prng.int rng (3 * n) do
        ignore (Graph.add_edge g (Prng.int rng n) (Prng.int rng n))
      done;
      (g, n)
    end
  in
  let ne = Graph.num_edges g in
  let w =
    Array.init ne (fun _ ->
        match case mod 4 with
        | 1 -> float_of_int (1 + Prng.int rng 3)
        | 2 -> 0.01 +. Prng.float rng 4.0
        | _ -> 1.0)
  in
  let masks =
    if case mod 3 = 2 then
      ( Some (Array.init n (fun _ -> Prng.int rng 5 = 0)),
        Some (Array.init ne (fun _ -> Prng.int rng 4 = 0)) )
    else (None, None)
  in
  (g, (fun e -> w.(e)), masks)

let show_path (p : Paths.path) =
  Printf.sprintf "%s (edges %s)"
    (String.concat "-" (List.map string_of_int p.nodes))
    (String.concat "," (List.map string_of_int p.edges))

let show_paths ps = "[" ^ String.concat "; " (List.map show_path ps) ^ "]"

let show_opt = function None -> "none" | Some p -> show_path p

let check_case case =
  let rng = Prng.create ((prop_seed * 1_000_003) + case) in
  let g, weight, (banned_nodes, banned_edges) = random_case rng case in
  let n = Graph.num_nodes g in
  let tree = Paths.tree g ~weight in
  for s = 0 to n - 1 do
    Paths.search ?banned_nodes ?banned_edges tree s;
    let dist, parent = Paths_ref.dijkstra ?banned_nodes ?banned_edges g ~weight s in
    for v = 0 to n - 1 do
      if Int64.bits_of_float tree.Paths.dist.(v) <> Int64.bits_of_float dist.(v)
      then fail case "source %d: dist of %d is %h, reference %h" s v tree.Paths.dist.(v) dist.(v);
      let p = Option.value parent.(v) ~default:(-1) in
      if tree.Paths.parent.(v) <> p then
        fail case "source %d: parent of %d is %d, reference %d" s v tree.Paths.parent.(v) p;
      let got = Paths.path_to tree v in
      let want = Paths_ref.shortest_path ?banned_nodes ?banned_edges g ~weight s v in
      if got <> want then
        fail case "path_to %d -> %d: %s, reference %s" s v (show_opt got) (show_opt want)
    done;
    if banned_nodes = None then
      for v = 0 to n - 1 do
        let got = Paths.shortest_path g ~weight s v in
        let want = Paths_ref.shortest_path g ~weight s v in
        if got <> want then
          fail case "shortest_path %d -> %d: %s, reference %s" s v (show_opt got)
            (show_opt want);
        List.iter
          (fun max_paths ->
            let got = Paths.all_paths_to tree ~max_paths v in
            let want = Paths_ref.all_shortest_paths g ~weight ~max_paths s v in
            if got <> want then
              fail case "all_paths_to %d -> %d (max %d): %s, reference %s" s v
                max_paths (show_paths got) (show_paths want))
          [ 1; 3; 8 ]
      done
  done;
  (* Yen on a few pairs *)
  for _ = 1 to 4 do
    let s = Prng.int rng n and t = Prng.int rng n in
    let k = 1 + Prng.int rng 4 in
    let got = Paths.k_shortest_paths g ~weight ~k s t in
    let want = Paths_ref.k_shortest_paths g ~weight ~k s t in
    if got <> want then
      fail case "k_shortest_paths %d -> %d (k %d): %s, reference %s" s t k
        (show_paths got) (show_paths want)
  done

let test_random_graphs () =
  for case = 0 to cases - 1 do
    check_case case
  done

(* Zero-weight edges: both ends of one are tight predecessors of each
   other, so the ECMP set is checked against brute force instead of
   [Paths_ref], whose walk never returns there. *)

(* every simple path from [s] to [t] costing exactly [cost] *)
let brute_min_paths g ~weight s t cost =
  let on = Array.make (Graph.num_nodes g) false in
  let found = ref [] in
  let rec go u nodes edges c =
    if u = t then begin
      if c = cost then
        found := { Paths.nodes = List.rev nodes; edges = List.rev edges; cost } :: !found
    end
    else begin
      on.(u) <- true;
      List.iter
        (fun (v, e) ->
          if not on.(v) then go v (v :: nodes) (e :: edges) (c +. weight e))
        (Graph.neighbors g u);
      on.(u) <- false
    end
  in
  go s [ s ] [] 0.0;
  List.sort compare !found

let test_zero_weight_ties () =
  (* 2 -(1)- 0 -(0)- 1, searched from 2 *)
  let g = Graph.create ~num_nodes:3 () in
  ignore (Graph.add_edge g 2 0);
  ignore (Graph.add_edge g 0 1);
  let w = [| 1.0; 0.0 |] in
  let tree = Paths.tree g ~weight:(fun e -> w.(e)) in
  Paths.search tree 2;
  Alcotest.(check string) "to 1" "[2-0-1 (edges 0,1)]"
    (show_paths (Paths.all_paths_to tree ~max_paths:4 1));
  Alcotest.(check string) "to 0" "[2-0 (edges 0)]"
    (show_paths (Paths.all_paths_to tree ~max_paths:4 0));
  let rng = Prng.create (prop_seed * 31_337) in
  for case = 0 to 199 do
    let n = 2 + Prng.int rng 6 in
    let g = Graph.create ~num_nodes:n () in
    for _ = 1 to Prng.int rng (2 * n) do
      ignore (Graph.add_edge g (Prng.int rng n) (Prng.int rng n))
    done;
    let w = Array.init (Graph.num_edges g) (fun _ -> float_of_int (Prng.int rng 3)) in
    let weight e = w.(e) in
    let tree = Paths.tree g ~weight in
    for s = 0 to n - 1 do
      Paths.search tree s;
      for t = 0 to n - 1 do
        let want =
          if tree.Paths.dist.(t) = infinity then []
          else brute_min_paths g ~weight s t tree.Paths.dist.(t)
        in
        let all = Paths.all_paths_to tree ~max_paths:max_int t in
        if List.sort compare all <> want then
          fail case "all_paths_to %d -> %d: %s, brute force %s" s t
            (show_paths all) (show_paths want);
        List.iter
          (fun max_paths ->
            let got = Paths.all_paths_to tree ~max_paths t in
            if got <> List.filteri (fun i _ -> i < max_paths) all then
              fail case "all_paths_to %d -> %d (max %d): %s, not a prefix of %s"
                s t max_paths (show_paths got) (show_paths all))
          [ 1; 3 ]
      done
    done
  done

(* A search reuses the tree's buffers: many searches allocate no more
   than the measurement itself. *)
let test_search_allocates_nothing () =
  let g = (Pop.make_preset `Pop29 ~seed:prop_seed).Pop.graph in
  let tree = Paths.tree g ~weight:(fun _ -> 1.0) in
  Paths.search tree 0;
  let before = Gc.minor_words () in
  for s = 0 to Graph.num_nodes g - 1 do
    Paths.search tree s
  done;
  let words = Gc.minor_words () -. before in
  if words > 64.0 then
    Alcotest.failf "%d searches allocated %.0f words" (Graph.num_nodes g) words

(* The routes a matrix must carry, from the reference pair by pair. *)
let expected_routes g ~max_paths (d : Traffic.demand) =
  let weight _ = 1.0 in
  let paths =
    if max_paths <= 1 then
      Option.to_list (Paths_ref.shortest_path g ~weight d.src d.dst)
    else Paths_ref.all_shortest_paths g ~weight ~max_paths d.src d.dst
  in
  let share = d.volume /. float_of_int (List.length paths) in
  List.map (fun path -> { Traffic.path; volume = share }) paths

let check_matrix name g ~max_paths ~pairs (m : Traffic.matrix) =
  let reachable =
    List.filter
      (fun (s, t) -> Paths_ref.shortest_path g ~weight:(fun _ -> 1.0) s t <> None)
      pairs
  in
  let got = Array.to_list (Array.map (fun (d : Traffic.demand) -> (d.src, d.dst)) m) in
  if got <> reachable then
    Alcotest.failf "%s: %d demands, %d reachable pairs" name (List.length got)
      (List.length reachable);
  Array.iter
    (fun (d : Traffic.demand) ->
      if d.routes <> expected_routes g ~max_paths d then
        Alcotest.failf "%s: demand %d -> %d routed %s, reference %s" name d.src
          d.dst
          (show_paths (List.map (fun (r : Traffic.route) -> r.path) d.routes))
          (show_paths
             (List.map
                (fun (r : Traffic.route) -> r.path)
                (expected_routes g ~max_paths d))))
    m

let ordered_pairs endpoints =
  List.concat_map
    (fun s -> List.filter_map (fun t -> if s <> t then Some (s, t) else None) endpoints)
    endpoints

let test_traffic_routes () =
  let rng = Prng.create (prop_seed * 7_654_321) in
  let waxman n =
    let g = Synthetic.waxman ~n ~alpha:0.3 ~beta:0.3 ~seed:(Prng.int rng 1_000_000) in
    (* a node off the graph: pairs that reach it are skipped *)
    let off = Graph.add_node g in
    let nodes = Array.init n Fun.id in
    Prng.shuffle rng nodes;
    (Printf.sprintf "waxman%d" n, g, off :: Array.to_list (Array.sub nodes 0 (n / 3)))
  in
  let pop preset =
    let p = Pop.make_preset preset ~seed:(1 + Prng.int rng 100) in
    (Pop.preset_name preset, p.Pop.graph, Pop.endpoints p)
  in
  let graphs =
    [ pop `Pop10; pop `Pop15; pop `Pop29; pop `Pop80; waxman 40; waxman 90 ]
  in
  List.iter
    (fun (name, g, endpoints) ->
      let pairs = ordered_pairs endpoints in
      List.iter
        (fun max_ecmp_paths ->
          let seed = Prng.int rng 1_000_000 in
          let label kind = Printf.sprintf "%s %s ecmp %d" name kind max_ecmp_paths in
          let params = { Traffic.default_gen with max_ecmp_paths } in
          check_matrix (label "generate") g ~max_paths:max_ecmp_paths ~pairs
            (Traffic.generate ~params g ~endpoints ~seed);
          check_matrix (label "gravity") g ~max_paths:max_ecmp_paths ~pairs
            (Traffic.generate_gravity ~max_ecmp_paths g ~endpoints ~seed))
        [ 1; 3 ])
    graphs

let suite =
  [
    Alcotest.test_case
      (Printf.sprintf "search vs reference on random graphs (seed %d)" prop_seed)
      `Quick test_random_graphs;
    Alcotest.test_case "ECMP paths across zero-weight ties" `Quick
      test_zero_weight_ties;
    Alcotest.test_case "search allocates nothing" `Quick
      test_search_allocates_nothing;
    Alcotest.test_case
      (Printf.sprintf "traffic routes vs per-pair reference (seed %d)" prop_seed)
      `Quick test_traffic_routes;
  ]
