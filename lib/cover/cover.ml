module Bitset = Monpos_util.Bitset
module Graph = Monpos_graph.Graph
module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Sampler = Monpos_obs.Sampler
module Error = Monpos_resilience.Error
module Maxflow = Monpos_flow.Maxflow

let m_nodes = lazy (Metrics.counter Metrics.default "cover.nodes")

let m_incumbents = lazy (Metrics.counter Metrics.default "cover.incumbents")

let m_greedy_picks = lazy (Metrics.counter Metrics.default "greedy.picks")

let m_kernel_sets = lazy (Metrics.counter Metrics.default "cover.kernel_sets")

type instance = {
  num_items : int;
  item_weight : float array;
  sets : int list array;
}

let make ~num_items ?weights sets =
  let item_weight =
    match weights with Some w -> w | None -> Array.make num_items 1.0
  in
  if Array.length item_weight <> num_items then
    invalid_arg "Cover.make: weights length mismatch";
  Array.iter
    (fun w -> if w < 0.0 then invalid_arg "Cover.make: negative weight")
    item_weight;
  Array.iter
    (List.iter (fun u ->
         if u < 0 || u >= num_items then invalid_arg "Cover.make: bad item"))
    sets;
  { num_items; item_weight; sets }

let total_weight inst = Monpos_util.Stats.sum inst.item_weight

let covered_weight inst chosen =
  let seen = Bitset.create inst.num_items in
  List.iter
    (fun j -> List.iter (fun u -> Bitset.add seen u) inst.sets.(j))
    chosen;
  Bitset.fold (fun u acc -> acc +. inst.item_weight.(u)) seen 0.0

let is_cover ?target inst chosen =
  let target = match target with Some t -> t | None -> total_weight inst in
  covered_weight inst chosen >= target -. 1e-9

let slack = 1e-9

(* The flat view of an instance that the solvers below work on, built
   once per solve. Set [j] lists the items
   [items.(start.(j)) .. items.(start.(j+1) - 1)] in the order of
   [inst.sets.(j)], so every gain sums its weights in list order. Item
   [u] is listed by the sets [sets_of.(first.(u)) .. sets_of.(first.(u+1) - 1)],
   in increasing order, once per listing. *)
type flat = {
  start : int array;
  items : int array;
  first : int array;
  sets_of : int array;
}

let flatten inst =
  let nsets = Array.length inst.sets and n = inst.num_items in
  let start = Array.make (nsets + 1) 0 in
  Array.iteri (fun j s -> start.(j + 1) <- start.(j) + List.length s) inst.sets;
  let items = Array.make start.(nsets) 0 in
  Array.iteri
    (fun j s -> List.iteri (fun k u -> items.(start.(j) + k) <- u) s)
    inst.sets;
  (* [first.(u)] counts down from the end of item [u]'s range to its
     start as the sets are placed, last set first *)
  let first = Array.make (n + 1) 0 in
  Array.iter (fun u -> first.(u) <- first.(u) + 1) items;
  for u = 1 to n do
    first.(u) <- first.(u) + first.(u - 1)
  done;
  let sets_of = Array.make (Array.length items) 0 in
  for j = nsets - 1 downto 0 do
    for p = start.(j + 1) - 1 downto start.(j) do
      let u = items.(p) in
      first.(u) <- first.(u) - 1;
      sets_of.(first.(u)) <- j
    done
  done;
  { start; items; first; sets_of }

(* [gains.(j) <-] the weight of set [j]'s items not marked in [covered].
   Stored rather than returned, so the float is never boxed. *)
let store_gain inst fl covered gains j =
  let acc = ref 0.0 in
  for p = fl.start.(j) to fl.start.(j + 1) - 1 do
    let u = fl.items.(p) in
    if Bytes.get covered u = '\000' then acc := !acc +. inst.item_weight.(u)
  done;
  gains.(j) <- !acc

(* Mark set [j]'s uncovered items covered and append them to [trail]
   from index [len]. Returns the new trail length. *)
let cover_set fl covered trail len j =
  let len = ref len in
  for p = fl.start.(j) to fl.start.(j + 1) - 1 do
    let u = fl.items.(p) in
    if Bytes.get covered u = '\000' then begin
      Bytes.set covered u '\001';
      trail.(!len) <- u;
      incr len
    end
  done;
  !len

(* Recompute the gains of the sets not [excluded] that list one of the
   items [trail.(from) .. trail.(upto - 1)], all just covered. No other
   gain changed, so [gains] ends as a full recomputation would leave it.
   [touched] is all zeros on entry and on return; [dirty] is working space. *)
let update_gains inst fl covered gains ~excluded ~touched ~dirty trail from upto =
  let nd = ref 0 in
  for t = from to upto - 1 do
    let u = trail.(t) in
    for q = fl.first.(u) to fl.first.(u + 1) - 1 do
      let s = fl.sets_of.(q) in
      if (not excluded.(s)) && Bytes.get touched s = '\000' then begin
        Bytes.set touched s '\001';
        dirty.(!nd) <- s;
        incr nd
      end
    done
  done;
  for d = 0 to !nd - 1 do
    let s = dirty.(d) in
    Bytes.set touched s '\000';
    store_gain inst fl covered gains s
  done

(* Each pick is the set with the largest gain; a later set must beat the
   best so far by more than 1e-12, so ties go to the smallest index.
   After a pick only the gains of the sets listing a newly covered item
   are recomputed. *)
let greedy_flat inst fl target =
  let sink = Trace.current () in
  let nsets = Array.length inst.sets in
  let covered = Bytes.make inst.num_items '\000' in
  let gains = Array.make nsets 0.0 and longest = ref 0 in
  for j = 0 to nsets - 1 do
    store_gain inst fl covered gains j;
    longest := Int.max !longest (fl.start.(j + 1) - fl.start.(j))
  done;
  let trail = Array.make !longest 0 in
  let excluded = Array.make nsets false in
  let touched = Bytes.make nsets '\000' and dirty = Array.make nsets 0 in
  let covered_w = ref 0.0 in
  let chosen = ref [] in
  while !covered_w < target -. slack do
    let best = ref (-1) and best_gain = ref 0.0 in
    for j = 0 to nsets - 1 do
      if gains.(j) > !best_gain +. 1e-12 then begin
        best := j;
        best_gain := gains.(j)
      end
    done;
    let best = !best in
    if best = -1 then Error.infeasible "Cover.greedy: target unreachable";
    chosen := best :: !chosen;
    let n = cover_set fl covered trail 0 best in
    update_gains inst fl covered gains ~excluded ~touched ~dirty trail 0 n;
    covered_w := !covered_w +. !best_gain;
    Metrics.incr (Lazy.force m_greedy_picks);
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Greedy_pick { pick = best; gain = !best_gain; covered = !covered_w })
  done;
  List.rev !chosen

let greedy ?target inst =
  let target = match target with Some t -> t | None -> total_weight inst in
  greedy_flat inst (flatten inst) target

let greedy_guarantee inst =
  let d =
    Array.fold_left (fun acc s -> max acc (List.length s)) 0 inst.sets
  in
  let h = ref 0.0 in
  for i = 1 to d do
    h := !h +. (1.0 /. float_of_int i)
  done;
  !h

type exact_result = { chosen : int list; proven_optimal : bool; nodes : int }

(* Local-search polish for full covers: drop redundant sets, then
   (2,1)-exchanges — replace two chosen sets by one set that covers
   everything the pair was needed for. Seeds the branch and bound with
   a tighter incumbent, which shrinks the search tree directly. *)
let polish_full_cover inst solution =
  let nsets = Array.length inst.sets in
  let set_bits = Array.map (Bitset.of_list inst.num_items) inst.sets in
  let current = ref (List.sort_uniq compare solution) in
  let union_of sets =
    let u = Bitset.create inst.num_items in
    List.iter (fun j -> Bitset.union_into u set_bits.(j)) sets;
    u
  in
  let full = union_of (List.init nsets (fun j -> j)) in
  let covers_all u = Bitset.subset full u in
  (* redundancy elimination *)
  let drop_redundant () =
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun a ->
          let without = List.filter (( <> ) a) !current in
          if covers_all (union_of without) then begin
            current := without;
            changed := true
          end)
        !current
    done
  in
  drop_redundant ();
  let improved = ref true in
  while !improved do
    improved := false;
    let sol = !current in
    let try_pair a b =
      if not !improved then begin
        let without = List.filter (fun j -> j <> a && j <> b) sol in
        let covered = union_of without in
        (* find one set covering everything still missing *)
        let missing = Bitset.copy full in
        Bitset.diff_into missing covered;
        let found = ref (-1) in
        for j = 0 to nsets - 1 do
          if !found = -1 && j <> a && j <> b && Bitset.subset missing set_bits.(j)
          then found := j
        done;
        if !found >= 0 then begin
          current := List.sort_uniq compare (!found :: without);
          improved := true
        end
      end
    in
    List.iter (fun a -> List.iter (fun b -> if a < b then try_pair a b) sol) sol;
    if !improved then drop_redundant ()
  done;
  !current

(* Exact branch and bound over a (possibly reduced) instance, on its
   flat view: a [Bytes] mask marks the covered items, and an undo trail
   lists them in the order they were covered, so a branch is undone by
   popping the trail and the uncovered count is [num_items] minus the
   trail length. A node allocates nothing.

   Partial covers branch on the set with the largest current gain, ties
   going to the highest set index: either it is in the solution or it is
   excluded for good. A node is pruned unless the [r] largest gains, [r]
   being the sets the incumbent still leaves room for, could reach the
   missing weight. An include recomputes the gains of the sets that list
   a newly covered item; the gains are saved per tree level across the
   include child, and the exclude child inherits them.

   Full covers branch on the uncovered item with the fewest available
   covering sets, enumerating which of them covers it (each alternative
   excludes the previously tried sets, so the subtrees partition the
   space). Bounds: the uncovered items over the largest set, and a
   disjoint-items bound: items whose candidate sets are pairwise
   disjoint each require their own set. *)
let exact_core ?(node_limit = 20_000_000) inst target ~full_cover =
  let sink = Trace.current () in
  let nsets = Array.length inst.sets in
  let n_items = inst.num_items in
  let fl = flatten inst in
  (* incumbent: greedy, polished by local search on full covers *)
  let best_sol =
    ref
      (try
         let g = greedy_flat inst fl target in
         Some (if full_cover then polish_full_cover inst g else g)
       with Error.Error (Error.Infeasible_model _) -> None)
  in
  let best_card =
    ref (match !best_sol with Some s -> List.length s | None -> max_int)
  in
  (* the polished greedy solution is the root incumbent *)
  if !best_sol <> None then begin
    Metrics.incr (Lazy.force m_incumbents);
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Incumbent
           { solver = "cover"; node = 0; objective = float_of_int !best_card })
  end;
  let covered = Bytes.make n_items '\000' in
  let trail = Array.make n_items 0 in
  let trail_len = ref 0 in
  let excluded = Array.make nsets false in
  (* the sets chosen on the current path, by depth *)
  let path = Array.make (nsets + 1) 0 in
  let node_count = ref 0 in
  let truncated = ref false in
  let enter_node depth =
    incr node_count;
    Metrics.incr (Lazy.force m_nodes);
    if Trace.enabled sink then begin
      let w = Sampler.decide Sampler.Bb_node in
      if w > 0 then
        Trace.emit sink
          (Event.Bb_node
             { solver = "cover"; node = !node_count; depth; bound = None;
               sampled_of = w })
    end
  in
  let record_incumbent depth =
    best_card := depth;
    best_sol := Some (Array.to_list (Array.sub path 0 depth));
    Metrics.incr (Lazy.force m_incumbents);
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Incumbent
           { solver = "cover"; node = !node_count; objective = float_of_int depth })
  in
  let undo_to mark =
    while !trail_len > mark do
      decr trail_len;
      Bytes.set covered trail.(!trail_len) '\000'
    done
  in
  (* Partial covers. [gains.(j)] is set j's current gain for every
     non-excluded j; [covered_w.(0)] is the covered weight, kept unboxed;
     [top.(0 .. m-1)] holds the [r] largest gains in decreasing order. *)
  let gains = Array.make nsets 0.0 in
  let saved_gains =
    Array.make (if full_cover then 0 else (nsets + 1) * nsets) 0.0
  in
  let covered_w = [| 0.0 |] in
  let top = Array.make nsets 0.0 in
  let touched = Bytes.make nsets '\000' and dirty = Array.make nsets 0 in
  let rec go level depth =
    enter_node depth;
    if !node_count > node_limit then truncated := true
    else if covered_w.(0) >= target -. slack then begin
      if depth < !best_card then record_incumbent depth
    end
    else if depth + 1 < !best_card then begin
      let r = Int.min nsets (!best_card - depth - 1) in
      let pick = ref (-1) and m = ref 0 in
      for j = 0 to nsets - 1 do
        let g = gains.(j) in
        if (not excluded.(j)) && g > slack then begin
          if !pick < 0 || g >= gains.(!pick) then pick := j;
          if !m < r || g > top.(!m - 1) then begin
            let p = ref (Int.min !m (r - 1)) in
            while !p > 0 && top.(!p - 1) < g do
              top.(!p) <- top.(!p - 1);
              decr p
            done;
            top.(!p) <- g;
            if !m < r then incr m
          end
        end
      done;
      if !pick >= 0 then begin
        let needed = target -. covered_w.(0) in
        let acc = ref 0.0 and k = ref 0 in
        while !k < !m && !acc < needed -. slack do
          acc := !acc +. top.(!k);
          incr k
        done;
        if !acc >= needed -. slack then begin
          let pick = !pick in
          let w0 = covered_w.(0) in
          let mark = !trail_len in
          Array.blit gains 0 saved_gains (level * nsets) nsets;
          (* include branch *)
          path.(depth) <- pick;
          covered_w.(0) <- w0 +. gains.(pick);
          trail_len := cover_set fl covered trail mark pick;
          update_gains inst fl covered gains ~excluded ~touched ~dirty trail
            mark !trail_len;
          go (level + 1) (depth + 1);
          undo_to mark;
          covered_w.(0) <- w0;
          Array.blit saved_gains (level * nsets) gains 0 nsets;
          (* exclude branch *)
          excluded.(pick) <- true;
          go (level + 1) depth;
          excluded.(pick) <- false
        end
      end
    end
  in
  (* Full covers. [left.(j)] counts set j's listings of uncovered items. *)
  let left = Array.init nsets (fun j -> fl.start.(j + 1) - fl.start.(j)) in
  let adjust_left mark delta =
    for t = mark to !trail_len - 1 do
      let u = trail.(t) in
      for q = fl.first.(u) to fl.first.(u + 1) - 1 do
        let s = fl.sets_of.(q) in
        left.(s) <- left.(s) + delta
      done
    done
  in
  (* per-item covering-set bitsets, and the items by increasing number
     of covering sets *)
  let item_cover, item_order =
    if not full_cover then ([||], [||])
    else begin
      let item_cover = Array.init n_items (fun _ -> Bitset.create nsets) in
      Array.iteri
        (fun j s -> List.iter (fun u -> Bitset.add item_cover.(u) j) s)
        inst.sets;
      let card = Array.map Bitset.cardinal item_cover in
      let order = Array.init n_items (fun i -> i) in
      Array.sort (fun a b -> compare card.(a) card.(b)) order;
      (item_cover, order)
    end
  in
  let excluded_bits = Bitset.create nsets in
  let blocked = Bitset.create nsets in
  (* every uncovered item whose available sets are disjoint from
     previously counted items' sets needs its own set *)
  let disjoint_bound () =
    Bitset.clear blocked;
    let count = ref 0 and infeasible = ref false and k = ref 0 in
    while (not !infeasible) && !k < n_items do
      let i = item_order.(!k) in
      if Bytes.get covered i = '\000' then begin
        let c = item_cover.(i) in
        if Bitset.diff_cardinal c excluded_bits = 0 then infeasible := true
        else if not (Bitset.diff_meets c excluded_bits blocked) then begin
          incr count;
          Bitset.union_diff_into blocked c excluded_bits
        end
      end;
      incr k
    done;
    if !infeasible then max_int else !count
  in
  (* the alternatives tried at each depth *)
  let alt = Array.make (if full_cover then (nsets + 1) * nsets else 0) 0 in
  let rec go_full depth =
    enter_node depth;
    if !node_count > node_limit then truncated := true
    else begin
      (* pick the uncovered item with fewest available sets *)
      let best_item = ref (-1) and best_avail = ref max_int and k = ref 0 in
      while !best_avail > 1 && !k < n_items do
        let i = item_order.(!k) in
        if Bytes.get covered i = '\000' then begin
          let c = Bitset.diff_cardinal item_cover.(i) excluded_bits in
          if c < !best_avail then begin
            best_avail := c;
            best_item := i
          end
        end;
        incr k
      done;
      if !best_item = -1 then begin
        (* everything covered *)
        if depth < !best_card then record_incumbent depth
      end
      else if !best_avail = 0 then () (* dead branch *)
      else if depth + 1 < !best_card then begin
        let max_gain = ref 0 in
        for j = 0 to nsets - 1 do
          if not excluded.(j) then max_gain := Int.max !max_gain left.(j)
        done;
        let max_gain = !max_gain in
        let lb =
          if max_gain = 0 then max_int
          else
            max
              ((n_items - !trail_len + max_gain - 1) / max_gain)
              (disjoint_bound ())
        in
        if lb <> max_int && depth + lb < !best_card then begin
          (* the item's available sets by decreasing gain; ties keep
             increasing index *)
          let base = depth * nsets and na = ref 0 in
          let b = !best_item in
          for q = fl.first.(b) to fl.first.(b + 1) - 1 do
            let j = fl.sets_of.(q) in
            if (not excluded.(j)) && (q = fl.first.(b) || fl.sets_of.(q - 1) <> j)
            then begin
              let p = ref !na in
              while !p > 0 && left.(alt.(base + !p - 1)) < left.(j) do
                alt.(base + !p) <- alt.(base + !p - 1);
                decr p
              done;
              alt.(base + !p) <- j;
              incr na
            end
          done;
          for a = 0 to !na - 1 do
            let j = alt.(base + a) in
            let mark = !trail_len in
            path.(depth) <- j;
            trail_len := cover_set fl covered trail mark j;
            adjust_left mark (-1);
            go_full (depth + 1);
            adjust_left mark 1;
            undo_to mark;
            (* exclude j for the remaining alternatives *)
            excluded.(j) <- true;
            Bitset.add excluded_bits j
          done;
          for a = 0 to !na - 1 do
            let j = alt.(base + a) in
            excluded.(j) <- false;
            Bitset.remove excluded_bits j
          done
        end
      end
    end
  in
  if full_cover then go_full 0
  else begin
    for j = 0 to nsets - 1 do
      store_gain inst fl covered gains j
    done;
    go 0 0
  end;
  match !best_sol with
  | Some s ->
    { chosen = s; proven_optimal = not !truncated; nodes = !node_count }
  | None -> Error.infeasible "Cover.exact: target unreachable"

(* Pair systems. A full cover in which every item lies in one or two
   sets is a minimum vertex cover: the sets are the vertices, each
   two-set item is an edge, and a one-set item forces its set. The
   solver below reduces that graph in linear time (forced sets, then
   the degree-0 and degree-1 rules, which are row and column dominance
   on pairs), fixes what the LP relaxation decides (Nemhauser &
   Trotter 1975), and hands the half-integral rest to [exact_core]. *)

(* Each item's sets: [a.(u)] and [b.(u)], in increasing order, with
   [b.(u) = -1] for an item in one set; [None] when some item lies in
   three or more. Raises [Infeasible_model] for an item in no set. *)
let pair_ends inst =
  let a = Array.make inst.num_items (-1) and b = Array.make inst.num_items (-1) in
  let pairs = ref true in
  Array.iteri
    (fun j s ->
      List.iter
        (fun u ->
          if a.(u) < 0 then a.(u) <- j
          else if a.(u) <> j && b.(u) <> j then
            if b.(u) < 0 then b.(u) <- j else pairs := false)
        s)
    inst.sets;
  if Array.exists (fun j -> j < 0) a then
    Error.infeasible "Cover.exact: target unreachable";
  if !pairs then Some (a, b) else None

let free = 0 and taken = 1 and dropped = 2

let exact_pairs ?node_limit inst a b =
  let nsets = Array.length inst.sets in
  let state = Array.make nsets free in
  Array.iteri (fun u bu -> if bu < 0 then state.(a.(u)) <- taken) b;
  (* the edges between unforced sets, once each, grouped by their
     lower end: bucket the items by [a], then stamp each bucket's
     upper ends *)
  let start = Array.make (nsets + 1) 0 in
  let open_edge u = b.(u) >= 0 && state.(a.(u)) = free && state.(b.(u)) = free in
  Array.iteri
    (fun u au -> if open_edge u then start.(au + 1) <- start.(au + 1) + 1)
    a;
  for j = 1 to nsets do
    start.(j) <- start.(j) + start.(j - 1)
  done;
  let upper = Array.make start.(nsets) 0 and fill = Array.sub start 0 nsets in
  Array.iteri
    (fun u au ->
      if open_edge u then begin
        upper.(fill.(au)) <- b.(u);
        fill.(au) <- fill.(au) + 1
      end)
    a;
  let eu = Array.make start.(nsets) 0 and ev = Array.make start.(nsets) 0 in
  let stamp = Array.make nsets (-1) and m = ref 0 in
  for lo = 0 to nsets - 1 do
    for p = start.(lo) to start.(lo + 1) - 1 do
      let hi = upper.(p) in
      if stamp.(hi) <> lo then begin
        stamp.(hi) <- lo;
        eu.(!m) <- lo;
        ev.(!m) <- hi;
        incr m
      end
    done
  done;
  let m = !m in
  (* adjacency; [deg.(v)] counts v's free neighbours *)
  let deg = Array.make nsets 0 in
  for e = 0 to m - 1 do
    deg.(eu.(e)) <- deg.(eu.(e)) + 1;
    deg.(ev.(e)) <- deg.(ev.(e)) + 1
  done;
  let adj_start = Array.make (nsets + 1) 0 in
  for v = 0 to nsets - 1 do
    adj_start.(v + 1) <- adj_start.(v) + deg.(v)
  done;
  let adj = Array.make (2 * m) 0 and fill = Array.sub adj_start 0 nsets in
  for e = 0 to m - 1 do
    let u = eu.(e) and v = ev.(e) in
    adj.(fill.(u)) <- v;
    fill.(u) <- fill.(u) + 1;
    adj.(fill.(v)) <- u;
    fill.(v) <- fill.(v) + 1
  done;
  (* degree 0: drop the set; degree 1: take its neighbour *)
  let stack = Array.make nsets 0 and top = ref 0 in
  let queued = Bytes.make nsets '\000' in
  let push v =
    if Bytes.get queued v = '\000' then begin
      Bytes.set queued v '\001';
      stack.(!top) <- v;
      incr top
    end
  in
  let take u =
    state.(u) <- taken;
    for p = adj_start.(u) to adj_start.(u + 1) - 1 do
      let w = adj.(p) in
      if state.(w) = free then begin
        deg.(w) <- deg.(w) - 1;
        if deg.(w) <= 1 then push w
      end
    done
  in
  let reduce () =
    while !top > 0 do
      decr top;
      let v = stack.(!top) in
      Bytes.set queued v '\000';
      if state.(v) = free then
        if deg.(v) = 0 then state.(v) <- dropped
        else begin
          let u = ref (-1) in
          for p = adj_start.(v) to adj_start.(v + 1) - 1 do
            if state.(adj.(p)) = free then u := adj.(p)
          done;
          take !u
        end
    done
  in
  for v = nsets - 1 downto 0 do
    if state.(v) = free && deg.(v) <= 1 then push v
  done;
  reduce ();
  (* Nemhauser-Trotter: a minimum vertex cover of the bipartite double
     cover (a left and a right copy of each free set, an edge u_L v_R
     and v_L u_R per edge uv) halves into an optimal LP solution, and
     some minimum cover takes every set at 1 and none at 0. A set at 0
     has all its neighbours at 1. Returns whether it fixed a set. *)
  let id = Array.make nsets (-1) in
  (* numbers the free sets in [id], -1 for the others, and counts them *)
  let number_free () =
    let k = ref 0 in
    for v = 0 to nsets - 1 do
      if state.(v) = free then begin
        id.(v) <- !k;
        incr k
      end
      else id.(v) <- -1
    done;
    !k
  in
  let fix_lp () =
    let k = number_free () in
    k > 0
    && begin
      let net = Maxflow.create ((2 * k) + 2) in
      let source = 2 * k and sink = (2 * k) + 1 in
      for i = 0 to k - 1 do
        ignore (Maxflow.add_arc net ~src:source ~dst:i ~capacity:1.0);
        ignore (Maxflow.add_arc net ~src:(k + i) ~dst:sink ~capacity:1.0)
      done;
      for e = 0 to m - 1 do
        let u = id.(eu.(e)) and v = id.(ev.(e)) in
        if u >= 0 && v >= 0 then begin
          ignore (Maxflow.add_arc net ~src:u ~dst:(k + v) ~capacity:infinity);
          ignore (Maxflow.add_arc net ~src:v ~dst:(k + u) ~capacity:infinity)
        end
      done;
      ignore (Maxflow.solve net ~source ~sink);
      let side = Maxflow.min_cut_side net ~source in
      (* the cover is the left copies off the source side and the right
         copies on it *)
      let fixed = ref false in
      for v = 0 to nsets - 1 do
        let i = id.(v) in
        if i >= 0 && side.(i) <> side.(k + i) then begin
          fixed := true;
          if side.(i) then state.(v) <- dropped else take v
        end
      done;
      !fixed
    end
  in
  while fix_lp () do
    reduce ()
  done;
  (* the kernel: the sets at 1/2 and the edges between them *)
  let nk = number_free () in
  Metrics.add (Lazy.force m_kernel_sets) nk;
  let r =
    if nk = 0 then { chosen = []; proven_optimal = true; nodes = 0 }
    else begin
      let item = Array.make m (-1) and me = ref 0 in
      for e = 0 to m - 1 do
        if id.(eu.(e)) >= 0 && id.(ev.(e)) >= 0 then begin
          item.(e) <- !me;
          incr me
        end
      done;
      let sets = Array.make nk [] in
      for e = m - 1 downto 0 do
        if item.(e) >= 0 then begin
          let u = id.(eu.(e)) and v = id.(ev.(e)) in
          sets.(u) <- item.(e) :: sets.(u);
          sets.(v) <- item.(e) :: sets.(v)
        end
      done;
      exact_core ?node_limit (make ~num_items:!me sets) (float_of_int !me)
        ~full_cover:true
    end
  in
  let in_kernel_cover = Array.make nk false in
  List.iter (fun i -> in_kernel_cover.(i) <- true) r.chosen;
  let chosen = ref [] in
  for v = nsets - 1 downto 0 do
    if state.(v) = taken || (id.(v) >= 0 && in_kernel_cover.(id.(v))) then
      chosen := v :: !chosen
  done;
  { r with chosen = !chosen }

(* Dominance reductions. Column (set) dominance is always valid: a set
   whose items are a subset of another set's can be swapped out of any
   solution. Row (item) dominance is valid for full covers only:
   if every set covering item i also covers item j, then covering i
   covers j for free and j can be dropped. *)
let exact_dominance ?node_limit inst target ~full_cover =
  let nsets = Array.length inst.sets in
  let set_bits =
    Array.map (fun s -> Bitset.of_list inst.num_items s) inst.sets
  in
  (* column dominance *)
  let alive = Array.make nsets true in
  for i = 0 to nsets - 1 do
    if alive.(i) then
      for j = 0 to nsets - 1 do
        if
          alive.(i) && i <> j && alive.(j)
          && Bitset.subset set_bits.(i) set_bits.(j)
          && ((not (Bitset.equal set_bits.(i) set_bits.(j))) || i > j)
        then alive.(i) <- false
      done
  done;
  (* row dominance (full cover only) *)
  let item_keep = Array.make inst.num_items true in
  if full_cover then begin
    let item_cover = Array.init inst.num_items (fun _ -> Bitset.create nsets) in
    Array.iteri
      (fun j items ->
        if alive.(j) then List.iter (fun u -> Bitset.add item_cover.(u) j) items)
      inst.sets;
    for i = 0 to inst.num_items - 1 do
      if item_keep.(i) then
        for j = 0 to inst.num_items - 1 do
          if
            item_keep.(i) && i <> j && item_keep.(j)
            && Bitset.subset item_cover.(i) item_cover.(j)
            && ((not (Bitset.equal item_cover.(i) item_cover.(j))) || i < j)
          then item_keep.(j) <- false
        done
    done
  end;
  (* build the reduced instance *)
  let new_item = Array.make inst.num_items (-1) in
  let n_items = ref 0 in
  for i = 0 to inst.num_items - 1 do
    if item_keep.(i) then begin
      new_item.(i) <- !n_items;
      incr n_items
    end
  done;
  let weights = Array.make !n_items 1.0 in
  if not full_cover then
    Array.iteri
      (fun i w -> if new_item.(i) >= 0 then weights.(new_item.(i)) <- w)
      inst.item_weight;
  let kept_sets = ref [] in
  Array.iteri
    (fun j items ->
      if alive.(j) then begin
        let mapped = List.filter_map (fun u ->
            if new_item.(u) >= 0 then Some new_item.(u) else None) items
        in
        kept_sets := (j, mapped) :: !kept_sets
      end)
    inst.sets;
  let kept_sets = List.rev !kept_sets in
  let reduced =
    make ~num_items:!n_items ~weights
      (Array.of_list (List.map snd kept_sets))
  in
  let reduced_target =
    if full_cover then total_weight reduced
    else target
  in
  let r = exact_core ?node_limit reduced reduced_target ~full_cover in
  let back = Array.of_list (List.map fst kept_sets) in
  { r with chosen = List.sort compare (List.map (fun j -> back.(j)) r.chosen) }

let exact_detailed ?target ?node_limit inst =
  let total = total_weight inst in
  let target = match target with Some t -> t | None -> total in
  let full_cover = target >= total -. slack in
  match if full_cover then pair_ends inst else None with
  | Some (a, b) -> exact_pairs ?node_limit inst a b
  | None -> exact_dominance ?node_limit inst target ~full_cover

let exact ?target inst = (exact_detailed ?target inst).chosen

module Reduction = struct
  type monitoring = {
    graph : Graph.t;
    paths : (Graph.node list * Graph.edge list) array;
    edge_of_set : Graph.edge array;
  }

  let to_monitoring inst =
    let nsets = Array.length inst.sets in
    let g = Graph.create () in
    (* one edge e_i = (a_i, b_i) per set *)
    let a = Array.make nsets 0 and b = Array.make nsets 0 in
    let edge_of_set =
      Array.init nsets (fun i ->
          a.(i) <- Graph.add_node ~label:(Printf.sprintf "a%d" i) g;
          b.(i) <- Graph.add_node ~label:(Printf.sprintf "b%d" i) g;
          Graph.add_edge g a.(i) b.(i))
    in
    let set_bits =
      Array.map (fun s -> Bitset.of_list inst.num_items s) inst.sets
    in
    (* linking 4-cycles for intersecting pairs: e_ij = (b_i, a_j) and
       e_ji = (b_j, a_i) *)
    let link = Hashtbl.create 16 in
    for i = 0 to nsets - 1 do
      for j = i + 1 to nsets - 1 do
        if Bitset.inter_cardinal set_bits.(i) set_bits.(j) > 0 then begin
          Hashtbl.replace link (i, j) (Graph.add_edge g b.(i) a.(j));
          Hashtbl.replace link (j, i) (Graph.add_edge g b.(j) a.(i))
        end
      done
    done;
    (* one traffic per item, crossing each containing set's edge *)
    let paths =
      Array.init inst.num_items (fun u ->
          let containing =
            List.filter
              (fun j -> List.mem u inst.sets.(j))
              (List.init nsets (fun j -> j))
          in
          match containing with
          | [] ->
            invalid_arg "Cover.Reduction.to_monitoring: item in no set"
          | first :: rest ->
            let rec build prev nodes edges = function
              | [] -> (List.rev nodes, List.rev edges)
              | j :: tl ->
                let lnk = Hashtbl.find link (prev, j) in
                build j
                  (b.(j) :: a.(j) :: nodes)
                  (edge_of_set.(j) :: lnk :: edges)
                  tl
            in
            build first [ b.(first); a.(first) ] [ edge_of_set.(first) ] rest)
    in
    { graph = g; paths; edge_of_set }

  let of_monitoring ~num_edges ~weights paths_as_edges =
    let sets = Array.make num_edges [] in
    Array.iteri
      (fun t edges ->
        List.iter (fun e -> sets.(e) <- t :: sets.(e)) edges)
      paths_as_edges;
    let sets = Array.map (List.sort_uniq compare) sets in
    make ~num_items:(Array.length paths_as_edges) ~weights sets
end
