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

(* One search's buffers, reused from source to source. The heap is
   [Monpos_util.Heap]'s binary heap (same sift rules) with its keys
   unboxed; it gets one push per improvement, so at most one per
   adjacency entry plus the source. *)
type work = {
  weight : float array;
  unbanned : bool array;  (** all false, the mask of a search without one *)
  on_path : bool array;  (** all false between [all_paths_to] calls *)
  hkey : float array;
  hnode : int array;
  mutable hlen : int;
}

type tree = {
  graph : Graph.t;
  dist : float array;
  parent : Graph.edge array;
  work : work;
}

let tree g ~weight =
  let n = Graph.num_nodes g and ne = Graph.num_edges g in
  let weight =
    Array.init ne (fun e ->
        let w = weight e in
        assert (w >= 0.0);
        w)
  in
  {
    graph = g;
    dist = Array.make n infinity;
    parent = Array.make n (-1);
    work =
      {
        weight;
        unbanned = Array.make (max n ne) false;
        on_path = Array.make n false;
        hkey = Array.make ((2 * ne) + 1) 0.0;
        hnode = Array.make ((2 * ne) + 1) 0;
        hlen = 0;
      };
  }

let heap_swap w i j =
  let k = w.hkey.(i) and v = w.hnode.(i) in
  w.hkey.(i) <- w.hkey.(j);
  w.hnode.(i) <- w.hnode.(j);
  w.hkey.(j) <- k;
  w.hnode.(j) <- v

let rec heap_up w i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if w.hkey.(p) > w.hkey.(i) then begin
      heap_swap w p i;
      heap_up w p
    end
  end

let rec heap_down w i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < w.hlen && w.hkey.(l) < w.hkey.(!smallest) then smallest := l;
  if r < w.hlen && w.hkey.(r) < w.hkey.(!smallest) then smallest := r;
  if !smallest <> i then begin
    heap_swap w i !smallest;
    heap_down w !smallest
  end

(* pushes [v] keyed by its distance *)
let push t v =
  let w = t.work in
  w.hkey.(w.hlen) <- t.dist.(v);
  w.hnode.(w.hlen) <- v;
  w.hlen <- w.hlen + 1;
  heap_up w (w.hlen - 1)

let search ?banned_nodes ?banned_edges t s =
  let n = Array.length t.dist and w = t.work in
  let dist = t.dist and parent = t.parent and weight = w.weight in
  let banned_node = Option.value banned_nodes ~default:w.unbanned in
  let banned_edge = Option.value banned_edges ~default:w.unbanned in
  Array.fill dist 0 n infinity;
  Array.fill parent 0 n (-1);
  w.hlen <- 0;
  dist.(s) <- 0.0;
  push t s;
  while w.hlen > 0 do
    let du = w.hkey.(0) and u = w.hnode.(0) in
    w.hlen <- w.hlen - 1;
    if w.hlen > 0 then begin
      w.hkey.(0) <- w.hkey.(w.hlen);
      w.hnode.(0) <- w.hnode.(w.hlen);
      heap_down w 0
    end;
    (* A node's pushes have strictly falling keys, and a settled
       node's distance never falls again, so [u] settles at its first
       pop, keyed [dist.(u)], and every later pop of [u] is stale. A
       strictly shorter distance wins, so the first settled parent
       keeps a node. *)
    if du <= dist.(u) then begin
      let adj = ref (Graph.neighbors t.graph u) in
      while
        match !adj with
        | [] -> false
        | (v, e) :: rest ->
          adj := rest;
          if not (banned_node.(v) || banned_edge.(e)) then begin
            let nd = du +. weight.(e) in
            if nd < dist.(v) -. 1e-12 then begin
              dist.(v) <- nd;
              parent.(v) <- e;
              push t v
            end
          end;
          true
      do
        ()
      done
    end
  done

let path_to t v =
  if t.dist.(v) = infinity then None
  else begin
    let rec go node nodes edges =
      let e = t.parent.(node) in
      if e < 0 then (node :: nodes, edges)
      else go (Graph.other_end t.graph e node) (node :: nodes) (e :: edges)
    in
    let nodes, edges = go v [] [] in
    Some { nodes; edges; cost = t.dist.(v) }
  end

let all_paths_to t ~max_paths v =
  if t.dist.(v) = infinity then []
  else begin
    (* walk back from v along tight edges. A zero-weight edge is tight
       both ways, so the walk never steps onto a node of the path it
       is building: every result is a simple path, and the walk ends.
       With positive weights the distance falls at every step and the
       marks never bite. *)
    let on_path = t.work.on_path in
    let results = ref [] and count = ref 0 in
    let rec go node nodes edges =
      if !count < max_paths then
        if t.parent.(node) < 0 then begin
          incr count;
          results :=
            { nodes = node :: nodes; edges; cost = t.dist.(v) } :: !results
        end
        else begin
          on_path.(node) <- true;
          (* deterministic order: sort predecessors by (node, edge) *)
          let preds =
            List.filter
              (fun (u, e) ->
                (not on_path.(u))
                && abs_float (t.dist.(u) +. t.work.weight.(e) -. t.dist.(node))
                   <= 1e-9)
              (Graph.neighbors t.graph node)
            |> List.sort compare
          in
          List.iter
            (fun (u, e) ->
              if !count < max_paths then go u (node :: nodes) (e :: edges))
            preds;
          on_path.(node) <- false
        end
    in
    go v [] [];
    List.rev !results
  end

let shortest_path g ~weight s t =
  let tr = tree g ~weight in
  search tr s;
  path_to tr t

let path_key p = (p.edges, p.nodes)

let k_shortest_paths g ~weight ~k s t =
  let tr = tree g ~weight in
  search tr s;
  match path_to tr t with
  | None -> []
  | Some first ->
    if k <= 1 then [ first ]
    else begin
      let banned_nodes = Array.make (Graph.num_nodes g) false in
      let banned_edges = Array.make (Graph.num_edges g) false in
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
            Array.fill banned_nodes 0 (Array.length banned_nodes) false;
            Array.fill banned_edges 0 (Array.length banned_edges) false;
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
            search ~banned_nodes ~banned_edges tr spur;
            match path_to tr t with
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
