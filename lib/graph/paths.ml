type path = { nodes : Graph.node list; edges : Graph.edge list; cost : float }

let bfs_distances g s =
  let n = Graph.num_nodes g in
  let dist = Array.make n (-1) in
  dist.(s) <- 0;
  let q = Queue.create () in
  Queue.add s q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (v, _) ->
        if dist.(v) = -1 then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      (Graph.neighbors g u)
  done;
  dist

let dijkstra g ~weight s =
  let n = Graph.num_nodes g in
  let dist = Array.make n infinity in
  let parent = Array.make n None in
  let settled = Array.make n false in
  let heap = Monpos_util.Heap.create () in
  dist.(s) <- 0.0;
  Monpos_util.Heap.push heap 0.0 s;
  let rec loop () =
    match Monpos_util.Heap.pop_min heap with
    | None -> ()
    | Some (d, u) ->
      if not settled.(u) then begin
        settled.(u) <- true;
        List.iter
          (fun (v, e) ->
            let w = weight e in
            assert (w >= 0.0);
            let nd = d +. w in
            if nd < dist.(v) -. 1e-12 then begin
              dist.(v) <- nd;
              parent.(v) <- Some e;
              Monpos_util.Heap.push heap nd v
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
      | Some e ->
        let prev = Graph.other_end g e node in
        go prev (node :: acc_nodes) (e :: acc_edges)
  in
  go t [] []

let shortest_path g ~weight s t =
  if s = t then Some { nodes = [ s ]; edges = []; cost = 0.0 }
  else begin
    let dist, parent = dijkstra g ~weight s in
    if dist.(t) = infinity then None
    else begin
      let nodes, edges = extract_path g parent s t in
      Some { nodes; edges; cost = dist.(t) }
    end
  end

let all_shortest_paths g ~weight ~max_paths s t =
  if s = t then [ { nodes = [ s ]; edges = []; cost = 0.0 } ]
  else begin
    let dist, _ = dijkstra g ~weight s in
    if dist.(t) = infinity then []
    else begin
      (* walk back from t along tight edges, enumerating the DAG *)
      let results = ref [] and count = ref 0 in
      let rec go node acc_nodes acc_edges =
        if !count < max_paths then
          if node = s then begin
            incr count;
            results :=
              { nodes = node :: acc_nodes; edges = acc_edges; cost = dist.(t) }
              :: !results
          end
          else begin
            (* deterministic order: sort predecessors by (node, edge) *)
            let preds =
              List.filter
                (fun (v, e) ->
                  abs_float (dist.(v) +. weight e -. dist.(node)) <= 1e-9)
                (Graph.neighbors g node)
              |> List.sort compare
            in
            List.iter
              (fun (v, e) ->
                if !count < max_paths then
                  go v (node :: acc_nodes) (e :: acc_edges))
              preds
          end
      in
      go t [] [];
      List.rev !results
    end
  end

(* Dijkstra restricted by banned nodes/edges, for Yen's spur paths. *)
let shortest_path_filtered g ~weight ~banned_nodes ~banned_edges s t =
  if banned_nodes.(s) || banned_nodes.(t) then None
  else if s = t then Some { nodes = [ s ]; edges = []; cost = 0.0 }
  else begin
    let n = Graph.num_nodes g in
    let dist = Array.make n infinity in
    let parent = Array.make n None in
    let settled = Array.make n false in
    let heap = Monpos_util.Heap.create () in
    dist.(s) <- 0.0;
    Monpos_util.Heap.push heap 0.0 s;
    let rec loop () =
      match Monpos_util.Heap.pop_min heap with
      | None -> ()
      | Some (d, u) ->
        if not settled.(u) then begin
          settled.(u) <- true;
          List.iter
            (fun (v, e) ->
              if (not banned_nodes.(v)) && not banned_edges.(e) then begin
                let nd = d +. weight e in
                if nd < dist.(v) -. 1e-12 then begin
                  dist.(v) <- nd;
                  parent.(v) <- Some e;
                  Monpos_util.Heap.push heap nd v
                end
              end)
            (Graph.neighbors g u)
        end;
        loop ()
    in
    loop ();
    if dist.(t) = infinity then None
    else begin
      let nodes, edges = extract_path g parent s t in
      Some { nodes; edges; cost = dist.(t) }
    end
  end

let path_key p = (p.edges, p.nodes)

let k_shortest_paths g ~weight ~k s t =
  match shortest_path g ~weight s t with
  | None -> []
  | Some first ->
    if k <= 1 then [ first ]
    else begin
      let n = Graph.num_nodes g in
      let ne = Graph.num_edges g in
      let accepted = ref [ first ] in
      let candidates = ref [] in
      let seen = Hashtbl.create 16 in
      Hashtbl.replace seen (path_key first) ();
      let add_candidate p =
        if not (Hashtbl.mem seen (path_key p)) then begin
          Hashtbl.replace seen (path_key p) ();
          candidates := p :: !candidates
        end
      in
      let rec fill () =
        if List.length !accepted < k then begin
          let last = List.hd !accepted in
          let prev_nodes = Array.of_list last.nodes in
          let prev_edges = Array.of_list last.edges in
          (* spur from every node of the previous path except t *)
          for i = 0 to Array.length prev_edges - 1 do
            let spur = prev_nodes.(i) in
            let banned_nodes = Array.make n false in
            let banned_edges = Array.make ne false in
            (* root = prefix up to spur node *)
            for j = 0 to i - 1 do
              banned_nodes.(prev_nodes.(j)) <- true
            done;
            (* ban edges used after this root by any accepted path
               sharing the root *)
            let root_edges = Array.sub prev_edges 0 i in
            List.iter
              (fun p ->
                let pe = Array.of_list p.edges in
                if
                  Array.length pe > i
                  && Array.for_all2 ( = ) (Array.sub pe 0 i) root_edges
                then banned_edges.(pe.(i)) <- true)
              !accepted;
            match
              shortest_path_filtered g ~weight ~banned_nodes ~banned_edges spur
                t
            with
            | None -> ()
            | Some tail ->
              let root_cost = ref 0.0 in
              Array.iter (fun e -> root_cost := !root_cost +. weight e) root_edges;
              let nodes =
                Array.to_list (Array.sub prev_nodes 0 i) @ tail.nodes
              in
              let edges = Array.to_list root_edges @ tail.edges in
              add_candidate { nodes; edges; cost = !root_cost +. tail.cost }
          done;
          match List.sort (fun a b -> compare a.cost b.cost) !candidates with
          | [] -> ()
          | best :: rest ->
            candidates := rest;
            accepted := best :: !accepted;
            fill ()
        end
      in
      fill ();
      List.sort (fun a b -> compare a.cost b.cost) !accepted
    end

let connected_components g =
  let n = Graph.num_nodes g in
  let comp = Array.make n (-1) in
  let next = ref 0 in
  for s = 0 to n - 1 do
    if comp.(s) = -1 then begin
      let id = !next in
      incr next;
      let stack = Stack.create () in
      Stack.push s stack;
      comp.(s) <- id;
      while not (Stack.is_empty stack) do
        let u = Stack.pop stack in
        List.iter
          (fun (v, _) ->
            if comp.(v) = -1 then begin
              comp.(v) <- id;
              Stack.push v stack
            end)
          (Graph.neighbors g u)
      done
    end
  done;
  (comp, !next)

let is_connected g =
  let _, k = connected_components g in
  k <= 1
