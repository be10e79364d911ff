(* Graph substrate tests: structure, shortest paths (vs brute-force
   enumeration on random graphs), ECMP enumeration, Yen, components. *)

module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Prng = Monpos_util.Prng

let line n =
  (* 0 - 1 - ... - n-1 *)
  let g = Graph.create ~num_nodes:n () in
  for i = 0 to n - 2 do
    ignore (Graph.add_edge g i (i + 1))
  done;
  g

let test_structure () =
  let g = Graph.create () in
  let a = Graph.add_node ~label:"a" g in
  let b = Graph.add_node g in
  let c = Graph.add_node g in
  let e1 = Graph.add_edge g a b in
  let e2 = Graph.add_edge g b c in
  Alcotest.(check int) "nodes" 3 (Graph.num_nodes g);
  Alcotest.(check int) "edges" 2 (Graph.num_edges g);
  Alcotest.(check (pair int int)) "endpoints" (a, b) (Graph.endpoints g e1);
  Alcotest.(check int) "other end" a (Graph.other_end g e1 b);
  Alcotest.(check int) "degree b" 2 (Graph.degree g b);
  Alcotest.(check bool) "has edge" true (Graph.has_edge g b a);
  Alcotest.(check bool) "no edge" false (Graph.has_edge g a c);
  Alcotest.(check (option int)) "find edge" (Some e2) (Graph.find_edge g c b);
  Alcotest.(check string) "label" "a" (Graph.label g a);
  Alcotest.(check string) "default label" "n1" (Graph.label g b)

let test_parallel_edges () =
  let g = Graph.create ~num_nodes:2 () in
  let e1 = Graph.add_edge g 0 1 in
  let e2 = Graph.add_edge g 0 1 in
  Alcotest.(check bool) "distinct ids" true (e1 <> e2);
  Alcotest.(check int) "degree counts both" 2 (Graph.degree g 0)

let test_bfs () =
  let g = line 5 in
  let d = Paths.bfs_distances g 0 in
  Alcotest.(check (array int)) "distances" [| 0; 1; 2; 3; 4 |] d;
  let g2 = Graph.create ~num_nodes:3 () in
  ignore (Graph.add_edge g2 0 1);
  let d2 = Paths.bfs_distances g2 0 in
  Alcotest.(check int) "unreachable" (-1) d2.(2)

let test_dijkstra_weighted () =
  (* triangle with a shortcut: 0-1 (1.0), 1-2 (1.0), 0-2 (3.0) *)
  let g = Graph.create ~num_nodes:3 () in
  let _e01 = Graph.add_edge g 0 1 in
  let _e12 = Graph.add_edge g 1 2 in
  let _e02 = Graph.add_edge g 0 2 in
  let weight e = if e = 2 then 3.0 else 1.0 in
  let p = Option.get (Paths.shortest_path g ~weight 0 2) in
  Alcotest.(check (float 1e-9)) "cost" 2.0 p.Paths.cost;
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2 ] p.Paths.nodes;
  Alcotest.(check (list int)) "edges" [ 0; 1 ] p.Paths.edges

let test_path_same_node () =
  let g = line 3 in
  let p = Option.get (Paths.shortest_path g ~weight:(fun _ -> 1.0) 1 1) in
  Alcotest.(check (list int)) "trivial path" [ 1 ] p.Paths.nodes;
  Alcotest.(check (list int)) "no edges" [] p.Paths.edges

let test_path_disconnected () =
  let g = Graph.create ~num_nodes:4 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 2 3);
  Alcotest.(check bool) "none" true
    (Paths.shortest_path g ~weight:(fun _ -> 1.0) 0 3 = None)

let test_ecmp_enumeration () =
  (* diamond: 0-1-3 and 0-2-3, both cost 2 *)
  let g = Graph.create ~num_nodes:4 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 3);
  ignore (Graph.add_edge g 0 2);
  ignore (Graph.add_edge g 2 3);
  let t = Paths.tree g ~weight:(fun _ -> 1.0) in
  Paths.search t 0;
  let ps = Paths.all_paths_to t ~max_paths:10 3 in
  Alcotest.(check int) "two equal-cost paths" 2 (List.length ps);
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) "cost 2" 2.0 p.Paths.cost)
    ps;
  let truncated = Paths.all_paths_to t ~max_paths:1 3 in
  Alcotest.(check int) "truncation" 1 (List.length truncated)

let test_yen_k_shortest () =
  (* square with diagonal: 0-1, 1-3, 0-2, 2-3, 0-3(direct cost 5) *)
  let g = Graph.create ~num_nodes:4 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 3);
  ignore (Graph.add_edge g 0 2);
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 0 3);
  let weight e = if e = 4 then 5.0 else 1.0 in
  let ps = Paths.k_shortest_paths g ~weight ~k:3 0 3 in
  Alcotest.(check int) "three paths" 3 (List.length ps);
  let costs = List.map (fun p -> p.Paths.cost) ps in
  Alcotest.(check (list (float 1e-9))) "costs sorted" [ 2.0; 2.0; 5.0 ] costs;
  (* loopless: no repeated nodes *)
  List.iter
    (fun p ->
      let nodes = List.sort_uniq compare p.Paths.nodes in
      Alcotest.(check int) "loopless" (List.length p.Paths.nodes)
        (List.length nodes))
    ps

let test_components () =
  let g = Graph.create ~num_nodes:6 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 3 4);
  let comp, k = Paths.connected_components g in
  Alcotest.(check int) "three components" 3 k;
  Alcotest.(check bool) "same comp" true (comp.(0) = comp.(2));
  Alcotest.(check bool) "diff comp" true (comp.(0) <> comp.(3));
  Alcotest.(check bool) "not connected" false (Paths.is_connected g);
  Alcotest.(check bool) "line connected" true (Paths.is_connected (line 4))

(* Brute-force shortest path by DFS enumeration on small random graphs. *)
let brute_shortest g weight s t =
  let n = Graph.num_nodes g in
  let best = ref infinity in
  let visited = Array.make n false in
  let rec go u cost =
    if cost < !best then
      if u = t then best := cost
      else begin
        visited.(u) <- true;
        List.iter
          (fun (v, e) -> if not visited.(v) then go v (cost +. weight e))
          (Graph.neighbors g u);
        visited.(u) <- false
      end
  in
  go s 0.0;
  if !best = infinity then None else Some !best

let prop_dijkstra_matches_brute_force =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"dijkstra matches exhaustive search" ~count:100 gen
    (fun seed ->
      let rng = Prng.create seed in
      let n = 2 + Prng.int rng 7 in
      let g = Graph.create ~num_nodes:n () in
      let medges = Prng.int rng (n * 2) in
      let weights = ref [] in
      for _ = 1 to medges do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v then begin
          ignore (Graph.add_edge g u v);
          weights := (0.5 +. Prng.float rng 5.0) :: !weights
        end
      done;
      let wa = Array.of_list (List.rev !weights) in
      let weight e = wa.(e) in
      let s = Prng.int rng n and t = Prng.int rng n in
      let expected = brute_shortest g weight s t in
      let got = Paths.shortest_path g ~weight s t in
      match (expected, got) with
      | None, None -> true
      | Some c, Some p ->
        abs_float (c -. p.Paths.cost) < 1e-9
        && List.length p.Paths.nodes = List.length p.Paths.edges + 1
      | _ -> false)

let prop_path_edges_consistent =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"shortest-path edge list matches node list"
    ~count:100 gen (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 8 in
      let g = Graph.create ~num_nodes:n () in
      (* random connected graph: spanning tree + extras *)
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g (Prng.int rng v) v)
      done;
      for _ = 1 to Prng.int rng n do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v then ignore (Graph.add_edge g u v)
      done;
      let weight _ = 1.0 in
      let s = Prng.int rng n and t = Prng.int rng n in
      match Paths.shortest_path g ~weight s t with
      | None -> false (* graph is connected *)
      | Some p ->
        let rec walk nodes edges =
          match (nodes, edges) with
          | [ last ], [] -> last = t
          | u :: (v :: _ as rest), e :: es ->
            let a, b = Graph.endpoints g e in
            ((a = u && b = v) || (a = v && b = u)) && walk rest es
          | _ -> false
        in
        List.hd p.Paths.nodes = s && walk p.Paths.nodes p.Paths.edges)

module Metrics = Monpos_graph.Metrics

let test_all_pairs_hops () =
  let g = line 4 in
  let d = Metrics.all_pairs_hops g in
  Alcotest.(check int) "d(0,3)" 3 d.(0).(3);
  Alcotest.(check int) "d(2,1)" 1 d.(2).(1);
  Alcotest.(check int) "diameter" 3 (Metrics.diameter g);
  let g2 = Graph.create ~num_nodes:2 () in
  let d2 = Metrics.all_pairs_hops g2 in
  Alcotest.(check int) "unreachable" (-1) d2.(0).(1)

let test_edge_betweenness_line () =
  (* on a path 0-1-2-3 the middle edge carries the most pairs *)
  let g = line 4 in
  let b = Metrics.edge_betweenness g in
  (* edge 1 = (1,2): pairs {0,1}x{2,3} cross it in both directions = 8 *)
  Alcotest.(check (float 1e-9)) "middle edge" 8.0 b.(1);
  Alcotest.(check (float 1e-9)) "end edge" 6.0 b.(0)

let test_edge_betweenness_split () =
  (* diamond: two equal shortest paths split the pair's weight *)
  let g = Graph.create ~num_nodes:4 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 3);
  ignore (Graph.add_edge g 0 2);
  ignore (Graph.add_edge g 2 3);
  let b = Metrics.edge_betweenness g in
  (* by symmetry all four edges carry the same weight *)
  Alcotest.(check (float 1e-9)) "symmetric 0-1" b.(0) b.(2);
  Alcotest.(check (float 1e-9)) "symmetric 1-3" b.(1) b.(3)

let test_bridges_line_and_cycle () =
  let g = line 4 in
  Alcotest.(check (list int)) "all line edges are bridges" [ 0; 1; 2 ]
    (Metrics.bridges g);
  let c = Graph.create ~num_nodes:3 () in
  ignore (Graph.add_edge c 0 1);
  ignore (Graph.add_edge c 1 2);
  ignore (Graph.add_edge c 2 0);
  Alcotest.(check (list int)) "cycle has none" [] (Metrics.bridges c)

let test_bridges_parallel_edges () =
  let g = Graph.create ~num_nodes:2 () in
  ignore (Graph.add_edge g 0 1);
  Alcotest.(check (list int)) "single edge is a bridge" [ 0 ] (Metrics.bridges g);
  ignore (Graph.add_edge g 0 1);
  Alcotest.(check (list int)) "parallel edges are not" [] (Metrics.bridges g)

let test_articulation_points () =
  (* two triangles sharing node 2 *)
  let g = Graph.create ~num_nodes:5 () in
  ignore (Graph.add_edge g 0 1);
  ignore (Graph.add_edge g 1 2);
  ignore (Graph.add_edge g 2 0);
  ignore (Graph.add_edge g 2 3);
  ignore (Graph.add_edge g 3 4);
  ignore (Graph.add_edge g 4 2);
  Alcotest.(check (list int)) "shared node" [ 2 ] (Metrics.articulation_points g);
  Alcotest.(check (list int)) "line interior" [ 1; 2 ]
    (Metrics.articulation_points (line 4))

let prop_bridges_disconnect =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"removing a bridge disconnects; removing a non-bridge does not"
    ~count:60 gen (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 9 in
      let g = Graph.create ~num_nodes:n () in
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g (Prng.int rng v) v)
      done;
      for _ = 1 to Prng.int rng n do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v then ignore (Graph.add_edge g u v)
      done;
      let bridges = Metrics.bridges g in
      let components_without dropped =
        (* rebuild without edge [dropped] *)
        let h = Graph.create ~num_nodes:n () in
        Graph.iter_edges
          (fun e u v -> if e <> dropped then ignore (Graph.add_edge h u v))
          g;
        snd (Paths.connected_components h)
      in
      List.for_all (fun e -> components_without e = 2) bridges
      && List.for_all
           (fun e ->
             List.mem e bridges || components_without e = 1)
           (List.init (Graph.num_edges g) Fun.id))

let prop_betweenness_total_mass =
  let gen = QCheck2.Gen.int_range 0 1_000_000 in
  QCheck2.Test.make ~name:"edge betweenness mass = sum of pair distances"
    ~count:40 gen (fun seed ->
      let rng = Prng.create seed in
      let n = 3 + Prng.int rng 8 in
      let g = Graph.create ~num_nodes:n () in
      for v = 1 to n - 1 do
        ignore (Graph.add_edge g (Prng.int rng v) v)
      done;
      for _ = 1 to Prng.int rng n do
        let u = Prng.int rng n and v = Prng.int rng n in
        if u <> v && not (Graph.has_edge g u v) then ignore (Graph.add_edge g u v)
      done;
      let b = Metrics.edge_betweenness g in
      let total = Array.fold_left ( +. ) 0.0 b in
      let d = Metrics.all_pairs_hops g in
      let expected = ref 0.0 in
      Array.iter
        (Array.iter (fun x -> if x > 0 then expected := !expected +. float_of_int x))
        d;
      abs_float (total -. !expected) < 1e-6 *. (1.0 +. !expected))

let test_dot_export () =
  let g = line 3 in
  let s = Monpos_graph.Dot.to_string g in
  Alcotest.(check bool) "has graph header" true
    (String.length s >= 5 && String.sub s 0 5 = "graph");
  let loads = [| 1.0; 3.0 |] in
  let s2 = Monpos_graph.Dot.with_loads g ~loads in
  Alcotest.(check bool) "has penwidth" true
    (Astring.String.is_infix ~affix:"penwidth" s2)

let suite =
  [
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
    Alcotest.test_case "bfs" `Quick test_bfs;
    Alcotest.test_case "dijkstra weighted" `Quick test_dijkstra_weighted;
    Alcotest.test_case "trivial path" `Quick test_path_same_node;
    Alcotest.test_case "disconnected" `Quick test_path_disconnected;
    Alcotest.test_case "ecmp enumeration" `Quick test_ecmp_enumeration;
    Alcotest.test_case "yen k-shortest" `Quick test_yen_k_shortest;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "all pairs hops" `Quick test_all_pairs_hops;
    Alcotest.test_case "betweenness line" `Quick test_edge_betweenness_line;
    Alcotest.test_case "betweenness split" `Quick test_edge_betweenness_split;
    Alcotest.test_case "bridges" `Quick test_bridges_line_and_cycle;
    Alcotest.test_case "bridges parallel" `Quick test_bridges_parallel_edges;
    Alcotest.test_case "articulation points" `Quick test_articulation_points;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    QCheck_alcotest.to_alcotest prop_bridges_disconnect;
    QCheck_alcotest.to_alcotest prop_betweenness_total_mass;
    QCheck_alcotest.to_alcotest prop_dijkstra_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_path_edges_consistent;
  ]
