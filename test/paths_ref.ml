(* Reference shortest-path routines, outside [Paths].

   This is the search [Paths] ran before it had one reusable tree: a
   fresh [Monpos_util.Heap], a distance and an option parent array per
   call, with optional banned node and edge masks (the masks come from
   the copy that Yen's spur search used). [shortest_path],
   [all_shortest_paths] and [k_shortest_paths] are the pair-at-a-time
   forms built on it. They are the oracles for [Paths.search],
   [Paths.path_to], [Paths.all_paths_to] and [Paths.k_shortest_paths],
   for the routes of [Traffic], and for the probe paths of
   [Beacon_oracle], which must all be identical. *)

module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Heap = Monpos_util.Heap

let no_ban = [||]

let dijkstra ?(banned_nodes = no_ban) ?(banned_edges = no_ban) g ~weight s =
  let n = Graph.num_nodes g in
  let dist = Array.make n infinity in
  let parent = Array.make n None in
  let settled = Array.make n false in
  let banned mask i = Array.length mask > 0 && mask.(i) in
  let heap = Heap.create () in
  dist.(s) <- 0.0;
  Heap.push heap 0.0 s;
  let rec loop () =
    match Heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        List.iter
          (fun (v, e) ->
            if not (banned banned_nodes v || banned banned_edges e) then begin
              let w = weight e in
              assert (w >= 0.0);
              let nd = d +. w in
              if nd < dist.(v) -. 1e-12 then begin
                dist.(v) <- nd;
                parent.(v) <- Some e;
                Heap.push heap nd v
              end
            end)
          (Graph.neighbors g u)
      end;
      loop ()
  in
  loop ();
  (dist, parent)

let extract_path g parent s t =
  let rec go node acc_nodes acc_edges =
    if node = s then (node :: acc_nodes, acc_edges)
    else
      match parent.(node) with
      | None -> assert false
      | Some e -> go (Graph.other_end g e node) (node :: acc_nodes) (e :: acc_edges)
  in
  go t [] []

let shortest_path ?banned_nodes ?banned_edges g ~weight s t =
  if s = t then Some { Paths.nodes = [ s ]; edges = []; cost = 0.0 }
  else begin
    let dist, parent = dijkstra ?banned_nodes ?banned_edges g ~weight s in
    if dist.(t) = infinity then None
    else begin
      let nodes, edges = extract_path g parent s t in
      Some { Paths.nodes; edges; cost = dist.(t) }
    end
  end

let all_shortest_paths g ~weight ~max_paths s t =
  if s = t then [ { Paths.nodes = [ s ]; edges = []; cost = 0.0 } ]
  else begin
    let dist, _ = dijkstra g ~weight s in
    if dist.(t) = infinity then []
    else begin
      let results = ref [] and count = ref 0 in
      let rec go node acc_nodes acc_edges =
        if !count < max_paths then
          if node = s then begin
            incr count;
            results :=
              { Paths.nodes = node :: acc_nodes; edges = acc_edges; cost = dist.(t) }
              :: !results
          end
          else begin
            let preds =
              List.filter
                (fun (v, e) ->
                  abs_float (dist.(v) +. weight e -. dist.(node)) <= 1e-9)
                (Graph.neighbors g node)
              |> List.sort compare
            in
            List.iter
              (fun (v, e) ->
                if !count < max_paths then go v (node :: acc_nodes) (e :: acc_edges))
              preds
          end
      in
      go t [] [];
      List.rev !results
    end
  end

(* Yen's algorithm, each spur search a fresh masked [dijkstra]. *)
let k_shortest_paths g ~weight ~k s t =
  match shortest_path g ~weight s t with
  | None -> []
  | Some first ->
    if k <= 1 then [ first ]
    else begin
      let n = Graph.num_nodes g and ne = Graph.num_edges g in
      let key (p : Paths.path) = (p.edges, p.nodes) in
      let accepted = ref [ first ] and candidates = ref [] in
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen (key first) ();
      let rec fill () =
        if List.length !accepted < k then begin
          let last = List.hd !accepted in
          let prev_nodes = Array.of_list last.Paths.nodes in
          let prev_edges = Array.of_list last.Paths.edges in
          for i = 0 to Array.length prev_edges - 1 do
            let banned_nodes = Array.make n false in
            let banned_edges = Array.make ne false in
            for j = 0 to i - 1 do
              banned_nodes.(prev_nodes.(j)) <- true
            done;
            let root_edges = Array.sub prev_edges 0 i in
            List.iter
              (fun (p : Paths.path) ->
                let pe = Array.of_list p.edges in
                if
                  Array.length pe > i
                  && Array.for_all2 ( = ) (Array.sub pe 0 i) root_edges
                then banned_edges.(pe.(i)) <- true)
              !accepted;
            match
              shortest_path ~banned_nodes ~banned_edges g ~weight prev_nodes.(i) t
            with
            | None -> ()
            | Some tail ->
              let root_cost =
                Array.fold_left (fun c e -> c +. weight e) 0.0 root_edges
              in
              let p =
                {
                  Paths.nodes = Array.to_list (Array.sub prev_nodes 0 i) @ tail.nodes;
                  edges = Array.to_list root_edges @ tail.edges;
                  cost = root_cost +. tail.cost;
                }
              in
              if not (Hashtbl.mem seen (key p)) then begin
                Hashtbl.replace seen (key p) ();
                candidates := p :: !candidates
              end
          done;
          match
            List.sort (fun (a : Paths.path) b -> compare a.cost b.cost) !candidates
          with
          | [] -> ()
          | best :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            fill ()
        end
      in
      fill ();
      List.sort (fun (a : Paths.path) b -> compare a.cost b.cost) !accepted
    end
