module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Mip = Monpos_lp.Mip
module Cover = Monpos_cover.Cover

type probe = {
  endpoint_a : Graph.node;
  endpoint_b : Graph.node;
  path : Paths.path;
}

let unit_weight _ = 1.0

(* All candidate probes: shortest paths from each candidate to every
   target node (default: every node), deduplicated as unordered
   pairs. *)
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
      let dist, parent = Paths.dijkstra g ~weight:unit_weight u in
      for v = 0 to n - 1 do
        if v <> u && is_target.(v) && dist.(v) < infinity then begin
          let key = (min u v, max u v) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            (* rebuild the path from the parent array *)
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
                endpoint_a = u;
                endpoint_b = v;
                path = { Paths.nodes; edges; cost = dist.(v) };
              }
              :: !probes
          end
        end
      done)
    candidates;
  List.rev !probes

let coverable_links ?targets g ~candidates =
  let covered = Array.make (Graph.num_edges g) false in
  List.iter
    (fun p -> List.iter (fun e -> covered.(e) <- true) p.path.Paths.edges)
    (candidate_probes ?targets g ~candidates);
  List.filter (fun e -> covered.(e)) (List.init (Graph.num_edges g) Fun.id)

(* The [15]-flavoured probe set: every coverable link gets a
   designated probe testing it — the shortest candidate probe crossing
   the link (deterministic tie-break on endpoints) — and the set is
   deduplicated. A failed link is then located by its designated
   probe's failure, which is the diagnosis contract of [15]; the
   per-link assignment also reproduces the structure that makes the
   §6.2 placement comparison meaningful (probe extremities are spread
   over the network rather than consolidated). *)
let compute_probes ?targets ?(redundancy = 3) g ~candidates =
  let all = candidate_probes ?targets g ~candidates in
  let ne = Graph.num_edges g in
  let per_link : probe list array = Array.make ne [] in
  (* the designation is arbitrary in [15]; a deterministic hash keeps
     it reproducible without favouring low-id (backbone) candidates,
     which would accidentally hand the baseline an optimal cover *)
  let score e (p : probe) =
    (* prefer probes anchored at well-connected vantage points (the
       shortest-path-tree flavour of [15]: central beacons see most
       links), then break ties by hash *)
    ( -(max (Graph.degree g p.endpoint_a) (Graph.degree g p.endpoint_b)),
      Hashtbl.hash
        (e, min p.endpoint_a p.endpoint_b, max p.endpoint_a p.endpoint_b) )
  in
  List.iter
    (fun p ->
      List.iter (fun e -> per_link.(e) <- p :: per_link.(e)) p.path.Paths.edges)
    all;
  let best : probe list array =
    Array.mapi
      (fun e ps ->
        let ranked =
          List.sort (fun p q -> compare (score e p) (score e q)) ps
        in
        List.filteri (fun i _ -> i < redundancy) ranked)
      per_link
  in
  let is_candidate =
    let a = Array.make (Graph.num_nodes g) false in
    List.iter (fun v -> a.(v) <- true) candidates;
    a
  in
  let seen = Hashtbl.create 64 in
  let probes = ref [] in
  Array.iter
    (List.iter (fun p ->
         let key =
           (min p.endpoint_a p.endpoint_b, max p.endpoint_a p.endpoint_b)
         in
         if not (Hashtbl.mem seen key) then begin
           Hashtbl.replace seen key ();
           (* the owning extremity is arbitrary too: when both ends are
              candidates, pick by hash; the path direction is
              irrelevant for coverage *)
           let p =
             if
               is_candidate.(p.endpoint_a)
               && is_candidate.(p.endpoint_b)
               && Hashtbl.hash (p.endpoint_b, p.endpoint_a) land 1 = 1
             then { p with endpoint_a = p.endpoint_b; endpoint_b = p.endpoint_a }
             else p
           in
           probes := p :: !probes
         end))
    best;
  List.rev !probes

type placement = {
  beacons : Graph.node list;
  optimal : bool;
  method_name : string;
}

let mk_placement ~optimal ~method_name beacons =
  { beacons = List.sort_uniq compare beacons; optimal; method_name }

(* [15]'s placement: walk the probe set in order; every probe not yet
   sendable gets its own source chosen as a beacon ("they first select
   a beacon, remove the set of probes that can be sent with this
   beacon, and so on") — the beacon choice is the arbitrary one the
   probe computation produced, with no look-ahead. *)
let place_thiran probes ~candidates =
  ignore candidates;
  let probes_covering v =
    List.filter (fun p -> p.endpoint_a = v || p.endpoint_b = v) probes
  in
  let covered = Hashtbl.create 64 in
  let is_covered p = Hashtbl.mem covered (p.endpoint_a, p.endpoint_b) in
  let beacons = ref [] in
  List.iter
    (fun p ->
      if not (is_covered p) then begin
        let beacon = p.endpoint_a in
        beacons := beacon :: !beacons;
        List.iter
          (fun q -> Hashtbl.replace covered (q.endpoint_a, q.endpoint_b) ())
          (probes_covering beacon)
      end)
    probes;
  mk_placement ~optimal:false ~method_name:"thiran" !beacons

(* The §6 set system that both placements below run on: one set per
   candidate (ascending), one item per probe, and a candidate's set
   holds the probes it can send. Returns the candidates in set order
   with the instance; [fn] names the caller in the error for a probe
   that no candidate can send. *)
let beacon_cover ~fn probes ~candidates =
  let cands = Array.of_list (List.sort_uniq compare candidates) in
  let set_of = Hashtbl.create 16 in
  Array.iteri (fun j c -> Hashtbl.replace set_of c j) cands;
  let sets = Array.make (Array.length cands) [] in
  List.iteri
    (fun i p ->
      match
        List.filter_map (Hashtbl.find_opt set_of)
          (List.sort_uniq compare [ p.endpoint_a; p.endpoint_b ])
      with
      | [] ->
        Monpos_resilience.Error.infeasible
          (fn ^ ": probe with no candidate extremity")
      | owners -> List.iter (fun j -> sets.(j) <- i :: sets.(j)) owners)
    probes;
  (cands, Cover.make ~num_items:(List.length probes) (Array.map List.rev sets))

(* The greedy picks the candidate sending the most unsent probes; ties
   go to the smallest set index, so to the lowest candidate id. *)
let place_greedy probes ~candidates =
  let cands, inst = beacon_cover ~fn:"Active.place_greedy" probes ~candidates in
  mk_placement ~optimal:false ~method_name:"greedy"
    (List.map (fun j -> cands.(j)) (Cover.greedy inst))

let place_ilp ?(options = Mip.default_options) probes ~candidates =
  let cands, inst = beacon_cover ~fn:"Active.place_ilp" probes ~candidates in
  let r = Cover.exact_detailed ~node_limit:options.Mip.max_nodes inst in
  mk_placement ~optimal:r.Cover.proven_optimal ~method_name:"ilp"
    (List.map (fun j -> cands.(j)) r.Cover.chosen)

type traffic_overhead = {
  messages : int;
  hops : int;
  per_beacon : (Graph.node * int) list;
}

let overhead probes ~beacons =
  let counts = Hashtbl.create 16 in
  List.iter (fun b -> Hashtbl.replace counts b 0) beacons;
  let count b = try Hashtbl.find counts b with Not_found -> max_int in
  let hops = ref 0 and messages = ref 0 in
  List.iter
    (fun p ->
      let senders =
        List.filter (fun b -> Hashtbl.mem counts b)
          [ p.endpoint_a; p.endpoint_b ]
      in
      match senders with
      | [] -> () (* unplaceable probe: placement invalid, skip *)
      | _ ->
        let sender =
          List.fold_left
            (fun best b -> if count b < count best then b else best)
            (List.hd senders) senders
        in
        Hashtbl.replace counts sender (count sender + 1);
        incr messages;
        hops := !hops + List.length p.path.Paths.edges)
    probes;
  let per_beacon =
    Hashtbl.fold (fun b c acc -> (b, c) :: acc) counts []
    |> List.sort (fun (_, a) (_, b) -> compare b a)
  in
  { messages = !messages; hops = !hops; per_beacon }

let validate probes ~beacons ~candidates =
  let bs = List.sort_uniq compare beacons in
  List.for_all (fun b -> List.mem b candidates) bs
  && List.for_all
       (fun p -> List.mem p.endpoint_a bs || List.mem p.endpoint_b bs)
       probes
