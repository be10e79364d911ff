module Graph = Monpos_graph.Graph
module Paths = Monpos_graph.Paths
module Mip = Monpos_lp.Mip
module Cover = Monpos_cover.Cover

type probe = {
  endpoint_a : Graph.node;
  endpoint_b : Graph.node;
  path : Paths.path;
}

(* Unit-weight shortest paths that settle nodes in exactly the order
   [Paths.dijkstra ~weight:(fun _ -> 1.0)] does, so every node gets the
   same parent edge: the same binary heap as [Monpos_util.Heap] (same
   sift rules, one push per improvement, stale entries skipped when
   popped) with int keys, in buffers reused from source to source. A
   FIFO BFS would pop equal-distance nodes in another order and hand
   some nodes another parent, so another path. *)
type search = {
  dist : int array;  (** hops from the source; [max_int] when unreached *)
  settled : Bytes.t;
  hkey : int array;
  hnode : int array;
  mutable hlen : int;
}

let search_create n ne =
  (* a push per improvement: at most one per adjacency entry, plus the
     source *)
  let cap = (2 * ne) + 1 in
  {
    dist = Array.make n max_int;
    settled = Bytes.make n '\000';
    hkey = Array.make cap 0;
    hnode = Array.make cap 0;
    hlen = 0;
  }

let heap_swap sr i j =
  let k = sr.hkey.(i) and v = sr.hnode.(i) in
  sr.hkey.(i) <- sr.hkey.(j);
  sr.hnode.(i) <- sr.hnode.(j);
  sr.hkey.(j) <- k;
  sr.hnode.(j) <- v

let rec heap_up sr i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if sr.hkey.(p) > sr.hkey.(i) then begin
      heap_swap sr p i;
      heap_up sr p
    end
  end

let rec heap_down sr i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < sr.hlen && sr.hkey.(l) < sr.hkey.(!smallest) then smallest := l;
  if r < sr.hlen && sr.hkey.(r) < sr.hkey.(!smallest) then smallest := r;
  if !smallest <> i then begin
    heap_swap sr i !smallest;
    heap_down sr !smallest
  end

let heap_push sr k v =
  sr.hkey.(sr.hlen) <- k;
  sr.hnode.(sr.hlen) <- v;
  sr.hlen <- sr.hlen + 1;
  heap_up sr (sr.hlen - 1)

(* Fills [sr.dist] from [s], and [parent.(off + v)] with the edge that
   reaches each reached node [v <> s]. *)
let unit_dijkstra g sr s ~parent ~off =
  Array.fill sr.dist 0 (Array.length sr.dist) max_int;
  Bytes.fill sr.settled 0 (Bytes.length sr.settled) '\000';
  sr.hlen <- 0;
  sr.dist.(s) <- 0;
  heap_push sr 0 s;
  while sr.hlen > 0 do
    let d = sr.hkey.(0) and u = sr.hnode.(0) in
    sr.hlen <- sr.hlen - 1;
    if sr.hlen > 0 then begin
      sr.hkey.(0) <- sr.hkey.(sr.hlen);
      sr.hnode.(0) <- sr.hnode.(sr.hlen);
      heap_down sr 0
    end;
    if Bytes.get sr.settled u = '\000' then begin
      Bytes.set sr.settled u '\001';
      let nd = d + 1 in
      let rec relax = function
        | [] -> ()
        | (v, e) :: rest ->
          if nd < sr.dist.(v) then begin
            sr.dist.(v) <- nd;
            parent.(off + v) <- e;
            heap_push sr nd v
          end;
          relax rest
      in
      relax (Graph.neighbors g u)
    end
  done

(* The candidate probes and each link's designated ones. The candidate
   probes are the unordered pairs (candidate u, target v), numbered in
   the order of the distinct candidates and then of the targets, each
   with the shortest path from its first-listed end. A link keeps the
   [slots] best pairs crossing it by the key (-(max extremity degree),
   hash of (link, pair)), a later pair before an earlier one on equal
   keys: the first [slots] of a stable sort of the crossing pairs in
   reverse order. *)
type designation = {
  n : int;
  sources : int array;  (** the distinct candidates, in order *)
  parent : int array;  (** source [i]'s parent edge of node [v] at [i * n + v] *)
  ends : int array;  (** edge [e]'s endpoints at [2e] and [2e + 1] *)
  pair_src : int array;  (** per pair: the index of its source *)
  pair_dst : int array;  (** per pair: its target node *)
  slots : int;
  count : int array;  (** per link: how many of its slots are filled *)
  pick : int array;  (** link [e]'s pairs, best first, from [e * slots] *)
}

let designate ?targets ~redundancy g ~candidates =
  let n = Graph.num_nodes g and ne = Graph.num_edges g in
  let is_target = Array.make n (targets = None) in
  Option.iter (List.iter (fun v -> is_target.(v) <- true)) targets;
  (* a repeated candidate adds no pair, so it runs no search *)
  let first = Array.make n (-1) in
  let nsrc = ref 0 in
  List.iter
    (fun u ->
      if first.(u) < 0 then begin
        first.(u) <- !nsrc;
        incr nsrc
      end)
    candidates;
  let sources = Array.make !nsrc 0 in
  Array.iteri (fun u i -> if i >= 0 then sources.(i) <- u) first;
  let parent = Array.make (!nsrc * n) (-1) in
  let pair_src = Array.make (!nsrc * n) 0 in
  let pair_dst = Array.make (!nsrc * n) 0 in
  let npairs = ref 0 in
  let sr = search_create n ne in
  Array.iteri
    (fun i u ->
      unit_dijkstra g sr u ~parent ~off:(i * n);
      for v = 0 to n - 1 do
        (* an earlier source v that targets u already owns the pair *)
        if
          v <> u && is_target.(v) && sr.dist.(v) < max_int
          && not (first.(v) >= 0 && first.(v) < i && is_target.(u))
        then begin
          pair_src.(!npairs) <- i;
          pair_dst.(!npairs) <- v;
          incr npairs
        end
      done)
    sources;
  let ends = Array.make (2 * ne) 0 in
  Graph.iter_edges
    (fun e a b ->
      ends.(2 * e) <- a;
      ends.((2 * e) + 1) <- b)
    g;
  let deg = Array.init n (Graph.degree g) in
  let slots = max 0 (min redundancy !npairs) in
  let count = Array.make ne 0 in
  let pick = Array.make (ne * slots) 0 in
  let key_deg = Array.make (ne * slots) 0 in
  let key_hash = Array.make (ne * slots) 0 in
  (* Offer pair [k] to link [e]: it goes before the first kept pair
     whose key is not smaller, and the last one drops off a full link. *)
  let offer e k kd lo hi =
    let base = e * slots and len = count.(e) in
    if len < slots || key_deg.(base + slots - 1) >= kd then begin
      let kh = Hashtbl.hash (e, lo, hi) in
      let i = ref 0 in
      while
        !i < len
        && (key_deg.(base + !i) < kd
           || (key_deg.(base + !i) = kd && key_hash.(base + !i) < kh))
      do
        incr i
      done;
      if !i < slots then begin
        for j = min len (slots - 1) downto !i + 1 do
          pick.(base + j) <- pick.(base + j - 1);
          key_deg.(base + j) <- key_deg.(base + j - 1);
          key_hash.(base + j) <- key_hash.(base + j - 1)
        done;
        pick.(base + !i) <- k;
        key_deg.(base + !i) <- kd;
        key_hash.(base + !i) <- kh;
        if len < slots then count.(e) <- len + 1
      end
    end
  in
  if slots > 0 then
    for k = 0 to !npairs - 1 do
      let i = pair_src.(k) and v = pair_dst.(k) in
      let u = sources.(i) in
      let kd = -max deg.(u) deg.(v) in
      let lo = min u v and hi = max u v in
      let node = ref v in
      while !node <> u do
        let e = parent.((i * n) + !node) in
        offer e k kd lo hi;
        node := if ends.(2 * e) = !node then ends.((2 * e) + 1) else ends.(2 * e)
      done
    done;
  { n; sources; parent; ends; pair_src; pair_dst; slots; count; pick }

let coverable_links ?targets g ~candidates =
  let d = designate ?targets ~redundancy:1 g ~candidates in
  List.filter (fun e -> d.count.(e) > 0) (List.init (Graph.num_edges g) Fun.id)

(* The [15]-flavoured probe set: every coverable link gets up to
   [redundancy] designated candidate probes crossing it, and the set
   is deduplicated in link order. A failed link is then located by its
   designated probes' failure, which is the diagnosis contract of
   [15]; the per-link assignment also reproduces the structure that
   makes the §6.2 placement comparison meaningful (probe extremities
   are spread over the network rather than consolidated). The
   designation is arbitrary in [15]: probes anchored at well-connected
   vantage points come first (the shortest-path-tree flavour of [15]:
   central beacons see most links), then a deterministic hash keeps it
   reproducible without favouring low-id (backbone) candidates, which
   would accidentally hand the baseline an optimal cover. Only the
   designated pairs get a path record. *)
let compute_probes ?targets ?(redundancy = 3) g ~candidates =
  let d = designate ?targets ~redundancy g ~candidates in
  let is_candidate = Array.make d.n false in
  List.iter (fun v -> is_candidate.(v) <- true) candidates;
  let emitted = Bytes.make (Array.length d.pair_src) '\000' in
  let probe k =
    let i = d.pair_src.(k) and v = d.pair_dst.(k) in
    let u = d.sources.(i) in
    let rec walk node nodes edges hops =
      if node = u then (node :: nodes, edges, hops)
      else
        let e = d.parent.((i * d.n) + node) in
        let prev =
          if d.ends.(2 * e) = node then d.ends.((2 * e) + 1) else d.ends.(2 * e)
        in
        walk prev (node :: nodes) (e :: edges) (hops + 1)
    in
    let nodes, edges, hops = walk v [] [] 0 in
    let path = { Paths.nodes; edges; cost = float_of_int hops } in
    (* the owning extremity is arbitrary too: when both ends are
       candidates, pick by hash; the path direction is irrelevant for
       coverage *)
    if is_candidate.(v) && Hashtbl.hash (v, u) land 1 = 1 then
      { endpoint_a = v; endpoint_b = u; path }
    else { endpoint_a = u; endpoint_b = v; path }
  in
  let probes = ref [] in
  Array.iteri
    (fun e len ->
      for j = 0 to len - 1 do
        let k = d.pick.((e * d.slots) + j) in
        if Bytes.get emitted k = '\000' then begin
          Bytes.set emitted k '\001';
          probes := probe k :: !probes
        end
      done)
    d.count;
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
   probe computation produced, with no look-ahead. A probe is sendable
   once a beacon sits at either extremity. *)
let place_thiran probes ~candidates =
  ignore candidates;
  let max_node =
    List.fold_left (fun m p -> max m (max p.endpoint_a p.endpoint_b)) (-1) probes
  in
  let is_beacon = Array.make (max_node + 1) false in
  let beacons = ref [] in
  List.iter
    (fun p ->
      if not (is_beacon.(p.endpoint_a) || is_beacon.(p.endpoint_b)) then begin
        is_beacon.(p.endpoint_a) <- true;
        beacons := p.endpoint_a :: !beacons
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
  let size = List.fold_left max (-1) (beacons @ candidates) + 1 in
  let mark vs =
    let a = Array.make size false in
    List.iter (fun v -> if v >= 0 then a.(v) <- true) vs;
    fun v -> v >= 0 && v < size && a.(v)
  in
  let is_candidate = mark candidates and is_beacon = mark beacons in
  List.for_all is_candidate beacons
  && List.for_all
       (fun p -> is_beacon p.endpoint_a || is_beacon p.endpoint_b)
       probes
