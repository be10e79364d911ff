module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Prng = Monpos_util.Prng

type route = { path : Paths.path; volume : float }

type demand = {
  src : Graph.node;
  dst : Graph.node;
  volume : float;
  routes : route list;
}

type matrix = demand array

type gen_params = {
  hot_pairs : int;
  hot_factor : float;
  pareto_alpha : float;
  base_volume : float;
  max_ecmp_paths : int;
}

let default_gen =
  {
    hot_pairs = 4;
    hot_factor = 20.0;
    pareto_alpha = 1.3;
    base_volume = 1.0;
    max_ecmp_paths = 1;
  }

(* The hop-count routes of every pair, as paths: a pair's shortest
   path, or under ECMP its first [max_paths] equal-cost ones, and []
   when it is unreachable. All the pairs of a source are answered from
   one shortest-path tree. *)
let routes g ~max_paths pairs =
  let tree = Paths.tree g ~weight:(fun _ -> 1.0) in
  let of_src = Array.make (Graph.num_nodes g) [] in
  Array.iteri (fun i (src, _) -> of_src.(src) <- i :: of_src.(src)) pairs;
  let paths = Array.make (Array.length pairs) [] in
  Array.iteri
    (fun src is ->
      if is <> [] then begin
        Paths.search tree src;
        List.iter
          (fun i ->
            let dst = snd pairs.(i) in
            paths.(i) <-
              (if max_paths <= 1 then Option.to_list (Paths.path_to tree dst)
               else Paths.all_paths_to tree ~max_paths dst))
          is
      end)
    of_src;
  paths

(* [volume] split evenly over the paths *)
let share volume paths =
  let v = volume /. float_of_int (List.length paths) in
  List.map (fun path -> { path; volume = v }) paths

let generate_pairs ?(params = default_gen) g ~pairs ~seed =
  let rng = Prng.create seed in
  let pairs = Array.of_list pairs in
  let npairs = Array.length pairs in
  (* preferred high-traffic pairs *)
  let hot = Array.make npairs false in
  if params.hot_pairs > 0 && npairs > 0 then
    List.iter
      (fun i -> hot.(i) <- true)
      (Prng.sample_without_replacement rng (min params.hot_pairs npairs) npairs);
  let paths = routes g ~max_paths:params.max_ecmp_paths pairs in
  let demands = ref [] in
  Array.iteri
    (fun i (src, dst) ->
      let volume =
        let v = Prng.pareto rng ~alpha:params.pareto_alpha ~xmin:params.base_volume in
        if hot.(i) then v *. params.hot_factor else v
      in
      if paths.(i) <> [] then
        demands := { src; dst; volume; routes = share volume paths.(i) } :: !demands)
    pairs;
  Array.of_list (List.rev !demands)

let generate ?params g ~endpoints ~seed =
  let pairs =
    List.concat_map
      (fun s -> List.filter_map (fun t -> if s <> t then Some (s, t) else None) endpoints)
      endpoints
  in
  generate_pairs ?params g ~pairs ~seed

let generate_gravity ?(pareto_alpha = 1.2) ?(total_volume = 1000.0)
    ?(max_ecmp_paths = 1) g ~endpoints ~seed =
  let rng = Prng.create seed in
  let eps = Array.of_list endpoints in
  let masses =
    Array.map (fun _ -> Prng.pareto rng ~alpha:pareto_alpha ~xmin:1.0) eps
  in
  let total_mass = Monpos_util.Stats.sum masses in
  let n = Array.length eps in
  (* pair k is (endpoint k / n, endpoint k mod n); the diagonal is dropped *)
  let paths =
    routes g ~max_paths:max_ecmp_paths
      (Array.init (n * n) (fun k -> (eps.(k / n), eps.(k mod n))))
  in
  let demands = ref [] in
  for k = 0 to (n * n) - 1 do
    let i = k / n and j = k mod n in
    let volume =
      total_volume *. masses.(i) *. masses.(j) /. (total_mass *. total_mass)
    in
    if i <> j && paths.(k) <> [] && volume > 0.0 then
      demands :=
        { src = eps.(i); dst = eps.(j); volume; routes = share volume paths.(k) }
        :: !demands
  done;
  Array.of_list (List.rev !demands)

let total_volume m = Monpos_util.Stats.sum (Array.map (fun d -> d.volume) m)

let loads g m =
  let loads = Array.make (Graph.num_edges g) 0.0 in
  Array.iter
    (fun d ->
      List.iter
        (fun (r : route) ->
          List.iter
            (fun e -> loads.(e) <- loads.(e) +. r.volume)
            r.path.Paths.edges)
        d.routes)
    m;
  loads

let demand_edges d =
  List.concat_map (fun r -> r.path.Paths.edges) d.routes
  |> List.sort_uniq compare

let scale_volumes m ~factor =
  Array.mapi
    (fun i d ->
      let f = factor i in
      {
        d with
        volume = d.volume *. f;
        routes =
          List.map (fun (r : route) -> { r with volume = r.volume *. f }) d.routes;
      })
    m

let drift m ~seed ~sigma =
  let rng = Prng.create seed in
  let factors =
    Array.init (Array.length m) (fun _ ->
        (* Irwin-Hall(12) - 6 approximates a standard normal *)
        let z = ref (-6.0) in
        for _ = 1 to 12 do
          z := !z +. Prng.float rng 1.0
        done;
        exp (sigma *. !z))
  in
  scale_volumes m ~factor:(fun i -> factors.(i))
