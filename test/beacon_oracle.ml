(* Reference forms of the §6 beacon placements, outside [Cover].

   [place] is the beacon ILP as a 0-1 program for [Mip]: one binary y_c
   per candidate, minimise Σ y_c subject to y_φu + y_φv >= 1 per probe
   (terms only for extremities in the candidate set).
   [Active.place_ilp] answers the same program with the set-cover
   branch and bound; this formulation is its differential oracle, and a
   small real-world model for the Mip warm-start, jobs-invariance and
   checkpoint tests.

   [greedy] is the max-coverage greedy written directly over probes,
   the oracle for [Active.place_greedy], which runs [Cover.greedy].

   [probes] is the §6 probe computation written with the reference
   Dijkstra of [Paths_ref] and its path lists, a full sort of each link's probes and pair hash tables, the
   oracle for [Active.compute_probes], which must return the identical
   list. *)

module Active = Monpos.Active
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths

(* All candidate probes: shortest paths from each candidate to every
   target node (default: every node), deduplicated as unordered
   pairs, in candidate order and then target order. *)
let candidate_probes ?targets g ~candidates =
  let n = Graph.num_nodes g in
  let is_target = Array.make n false in
  (match targets with
  | None -> Array.fill is_target 0 n true
  | Some ts -> List.iter (fun v -> is_target.(v) <- true) ts);
  let seen = Hashtbl.create 64 in
  let probes = ref [] in
  List.iter
    (fun u ->
      let dist, parent = Paths_ref.dijkstra g ~weight:(fun _ -> 1.0) u in
      for v = 0 to n - 1 do
        if v <> u && is_target.(v) && dist.(v) < infinity then begin
          let key = (min u v, max u v) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            let rec go node nodes edges =
              if node = u then (node :: nodes, edges)
              else
                match parent.(node) with
                | None -> assert false
                | Some e ->
                  go (Graph.other_end g e node) (node :: nodes) (e :: edges)
            in
            let nodes, edges = go v [] [] in
            probes :=
              {
                Active.endpoint_a = u;
                endpoint_b = v;
                path = { Paths.nodes; edges; cost = dist.(v) };
              }
              :: !probes
          end
        end
      done)
    candidates;
  List.rev !probes

(* Each link keeps the first [redundancy] crossing probes of a stable
   sort by (-(max extremity degree), hash of (link, pair)) over the
   probes in reverse candidate order; the links' picks, in link order,
   are deduplicated as pairs, and a probe between two candidates is
   owned by the end its hash bit names. *)
let probes ?targets ?(redundancy = 3) g ~candidates =
  let all = candidate_probes ?targets g ~candidates in
  let per_link = Array.make (Graph.num_edges g) [] in
  let score e (p : Active.probe) =
    ( -(max (Graph.degree g p.endpoint_a) (Graph.degree g p.endpoint_b)),
      Hashtbl.hash
        (e, min p.endpoint_a p.endpoint_b, max p.endpoint_a p.endpoint_b) )
  in
  List.iter
    (fun (p : Active.probe) ->
      List.iter (fun e -> per_link.(e) <- p :: per_link.(e)) p.path.Paths.edges)
    all;
  let best =
    Array.mapi
      (fun e ps ->
        List.filteri
          (fun i _ -> i < redundancy)
          (List.sort (fun p q -> compare (score e p) (score e q)) ps))
      per_link
  in
  let is_candidate = Array.make (Graph.num_nodes g) false in
  List.iter (fun v -> is_candidate.(v) <- true) candidates;
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  Array.iter
    (List.iter (fun (p : Active.probe) ->
         let key =
           (min p.endpoint_a p.endpoint_b, max p.endpoint_a p.endpoint_b)
         in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           let p =
             if
               is_candidate.(p.endpoint_a)
               && is_candidate.(p.endpoint_b)
               && Hashtbl.hash (p.endpoint_b, p.endpoint_a) land 1 = 1
             then { p with endpoint_a = p.endpoint_b; endpoint_b = p.endpoint_a }
             else p
           in
           out := p :: !out
         end))
    best;
  List.rev !out

let place ?options probes ~candidates =
  let m = Model.create Model.Minimize ~name:"beacons" in
  let y = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Hashtbl.replace y c
        (Model.add_var m ~name:(Printf.sprintf "y_%d" c) ~obj:1.0 Model.Binary))
    (List.sort_uniq compare candidates);
  List.iter
    (fun (p : Active.probe) ->
      let terms =
        List.filter_map
          (fun v -> Option.map (fun yv -> (1.0, yv)) (Hashtbl.find_opt y v))
          (List.sort_uniq compare [ p.Active.endpoint_a; p.Active.endpoint_b ])
      in
      if terms = [] then
        Monpos_resilience.Error.infeasible
          "Beacon_oracle.place: probe with no candidate extremity"
      else Model.add_constr m terms Model.Ge 1.0)
    probes;
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Beacon_oracle.place" m in
  let beacons =
    Hashtbl.fold
      (fun c v acc -> if x.(Model.var_index v) > 0.5 then c :: acc else acc)
      y []
  in
  {
    Active.beacons = List.sort compare beacons;
    optimal;
    method_name = "ilp-mip";
  }

let probes_covering probes v =
  List.filter
    (fun (p : Active.probe) -> p.Active.endpoint_a = v || p.Active.endpoint_b = v)
    probes

(* Walk [candidates] in the given order; a later candidate must send
   strictly more unsent probes to displace the best so far. *)
let greedy probes ~candidates =
  let covered = Hashtbl.create 64 in
  let is_covered (p : Active.probe) =
    Hashtbl.mem covered (p.Active.endpoint_a, p.Active.endpoint_b)
  in
  let total = List.length probes in
  let ncovered = ref 0 in
  let beacons = ref [] in
  while !ncovered < total do
    let best, best_gain =
      List.fold_left
        (fun (bc, bg) c ->
          let gx =
            List.length
              (List.filter (fun p -> not (is_covered p)) (probes_covering probes c))
          in
          if gx > bg then (Some c, gx) else (bc, bg))
        (None, 0) candidates
    in
    match best with
    | Some c when best_gain > 0 ->
      beacons := c :: !beacons;
      List.iter
        (fun (p : Active.probe) ->
          if not (is_covered p) then begin
            Hashtbl.replace covered (p.Active.endpoint_a, p.Active.endpoint_b) ();
            incr ncovered
          end)
        (probes_covering probes c)
    | _ ->
      Monpos_resilience.Error.infeasible
        "Beacon_oracle.greedy: some probe has no candidate extremity"
  done;
  {
    Active.beacons = List.sort_uniq compare !beacons;
    optimal = false;
    method_name = "greedy";
  }
