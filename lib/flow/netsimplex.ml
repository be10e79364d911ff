(* Primal network simplex. The basis is a spanning tree rooted at an
   artificial node [n]; every non-root node v carries its tree arc in
   pred.(v) (fwd.(v) tells whether that arc is oriented v -> parent).
   The thread is a preorder traversal threaded through the nodes, so
   "the subtree of v" is the contiguous thread segment starting at v
   while depth stays greater than depth.(v). A pivot re-threads the
   moved subtree by splicing O(stem) thread segments (see [pivot]),
   then fixes depth and potential in one pass over it.

   Pivots follow the textbook strongly-feasible discipline (LEMON-style
   tie-breaking: strict < on the cycle leg searched first, <= on the
   second), with a Bland lowest-index fallback after a long degenerate
   run as a floating-point backstop. Entering arcs come from block
   (candidate-list) pricing over ~sqrt(m)-sized wrap-around windows.

   Infeasibility is detected big-M style: a star of artificial arcs
   node <-> root priced above any real path cost absorbs the initial
   imbalance; residual artificial flow at optimality means the
   instance has none.

   A re-solve of an unchanged network shape starts from the previous
   tree and repairs it to the new bounds, costs and supplies (see
   [warm_init]): tree arcs pushed out of their bounds go nonbasic and
   their nodes re-hang under the root by their artificial arcs, whose
   big-M cost the pivots then drive back out. The star start is only
   for a handle's first solve and for the first solve after
   [add_arc]. *)

module Metrics = Monpos_obs.Metrics
module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Sampler = Monpos_obs.Sampler
module Error = Monpos_resilience.Error

let m_pivots = lazy (Metrics.counter Metrics.default "flow.pivots")
let m_priced = lazy (Metrics.counter Metrics.default "flow.priced_arcs")
let m_tree_nodes = lazy (Metrics.counter Metrics.default "flow.tree_nodes")

type status = Optimal | Infeasible

let st_lower = 1
let st_tree = 0
let st_upper = -1

type t = {
  n : int;
  mutable m : int;
  (* user arcs, growable *)
  mutable a_src : int array;
  mutable a_dst : int array;
  mutable a_lower : float array;
  mutable a_cap : float array;
  mutable a_cost : float array;
  supply : float array;
  (* solver arrays over m + n arcs (user + artificial) and n + 1 nodes
     (root last); laid out for [built_m] user arcs, -1 = never built *)
  mutable built_m : int;
  mutable s_src : int array;
  mutable s_dst : int array;
  mutable s_cost : float array;
  mutable s_ucap : float array; (* shifted: capacity - lower *)
  mutable flow_ : float array; (* shifted flow *)
  mutable state : int array;
  mutable pi : float array;
  mutable parent : int array;
  mutable pred : int array;
  mutable fwd : bool array;
  mutable thread : int array;
  mutable rev_thread : int array;
  mutable depth : int array;
  mutable excess : float array;
  (* warm_init's re-thread scratch *)
  mutable child_head : int array;
  mutable child_next : int array;
  mutable stack : int array;
  (* pivot scratch, indexed by stem position *)
  mutable stem : int array;
  mutable stem_prev : int array;
  mutable stem_last : int array;
  mutable stem_next : int array;
  mutable next_arc : int;
  (* work of the current solve: arcs priced, nodes the tree updates
     visited *)
  mutable priced : int;
  mutable tree_nodes : int;
  mutable last_pivots : int;
  mutable last_warm : bool;
  mutable solved : bool;
}

let create n =
  if n < 0 then invalid_arg "Netsimplex.create";
  {
    n;
    m = 0;
    a_src = Array.make 16 0;
    a_dst = Array.make 16 0;
    a_lower = Array.make 16 0.0;
    a_cap = Array.make 16 0.0;
    a_cost = Array.make 16 0.0;
    supply = Array.make (max n 1) 0.0;
    built_m = -1;
    s_src = [||];
    s_dst = [||];
    s_cost = [||];
    s_ucap = [||];
    flow_ = [||];
    state = [||];
    pi = [||];
    parent = [||];
    pred = [||];
    fwd = [||];
    thread = [||];
    rev_thread = [||];
    depth = [||];
    excess = [||];
    child_head = [||];
    child_next = [||];
    stack = [||];
    stem = [||];
    stem_prev = [||];
    stem_last = [||];
    stem_next = [||];
    next_arc = 0;
    priced = 0;
    tree_nodes = 0;
    last_pivots = 0;
    last_warm = false;
    solved = false;
  }

let node_count t = t.n
let arc_count t = t.m

let arc_index name t a =
  if not (0 <= a && a < t.m) then invalid_arg name;
  a

let arc_src t a = t.a_src.(arc_index "Netsimplex.arc_src" t a)
let arc_dst t a = t.a_dst.(arc_index "Netsimplex.arc_dst" t a)
let arc_lower t a = t.a_lower.(arc_index "Netsimplex.arc_lower" t a)
let arc_capacity t a = t.a_cap.(arc_index "Netsimplex.arc_capacity" t a)
let arc_cost t a = t.a_cost.(arc_index "Netsimplex.arc_cost" t a)

let supply t v =
  if not (0 <= v && v < t.n) then invalid_arg "Netsimplex.supply";
  t.supply.(v)

let grow_int a len = Array.append a (Array.make len 0)
let grow_float a len = Array.append a (Array.make len 0.0)

let add_arc ?(lower = 0.0) t ~src ~dst ~capacity ~cost =
  if not (0 <= src && src < t.n && 0 <= dst && dst < t.n) then
    invalid_arg "Netsimplex.add_arc: node out of range";
  if not (0.0 <= lower && lower <= capacity) then
    invalid_arg "Netsimplex.add_arc: requires 0 <= lower <= capacity";
  let cap = Array.length t.a_src in
  if t.m = cap then begin
    t.a_src <- grow_int t.a_src cap;
    t.a_dst <- grow_int t.a_dst cap;
    t.a_lower <- grow_float t.a_lower cap;
    t.a_cap <- grow_float t.a_cap cap;
    t.a_cost <- grow_float t.a_cost cap
  end;
  let id = t.m in
  t.a_src.(id) <- src;
  t.a_dst.(id) <- dst;
  t.a_lower.(id) <- lower;
  t.a_cap.(id) <- capacity;
  t.a_cost.(id) <- cost;
  t.m <- t.m + 1;
  id

let set_arc ?lower ?capacity ?cost t a =
  if not (0 <= a && a < t.m) then invalid_arg "Netsimplex.set_arc";
  let lo = match lower with Some l -> l | None -> t.a_lower.(a) in
  let cap = match capacity with Some c -> c | None -> t.a_cap.(a) in
  if not (0.0 <= lo && lo <= cap) then
    invalid_arg "Netsimplex.set_arc: requires 0 <= lower <= capacity";
  t.a_lower.(a) <- lo;
  t.a_cap.(a) <- cap;
  (match cost with Some c -> t.a_cost.(a) <- c | None -> ())

let set_supply t v b =
  if not (0 <= v && v < t.n) then invalid_arg "Netsimplex.set_supply";
  t.supply.(v) <- b

let balanced t =
  let sum = ref 0.0 and mag = ref 0.0 in
  for v = 0 to t.n - 1 do
    sum := !sum +. t.supply.(v);
    mag := !mag +. abs_float t.supply.(v)
  done;
  abs_float !sum <= 1e-9 *. (1.0 +. !mag)

(* ------------------------------------------------------------------ *)

let ensure_arrays t =
  if t.built_m = t.m then true
  else begin
    let na = t.m + t.n and nn = t.n + 1 in
    t.s_src <- Array.make (max na 1) 0;
    t.s_dst <- Array.make (max na 1) 0;
    t.s_cost <- Array.make (max na 1) 0.0;
    t.s_ucap <- Array.make (max na 1) 0.0;
    t.flow_ <- Array.make (max na 1) 0.0;
    t.state <- Array.make (max na 1) st_lower;
    t.pi <- Array.make nn 0.0;
    t.parent <- Array.make nn (-1);
    t.pred <- Array.make nn (-1);
    t.fwd <- Array.make nn false;
    t.thread <- Array.make nn 0;
    t.rev_thread <- Array.make nn 0;
    t.depth <- Array.make nn 0;
    t.excess <- Array.make nn 0.0;
    t.child_head <- Array.make nn (-1);
    t.child_next <- Array.make nn (-1);
    t.stack <- Array.make nn 0;
    t.stem <- Array.make nn 0;
    t.stem_prev <- Array.make nn 0;
    t.stem_last <- Array.make nn 0;
    t.stem_next <- Array.make nn 0;
    t.next_arc <- 0;
    t.built_m <- t.m;
    t.solved <- false;
    false
  end

(* shifted supply: user supply adjusted by the lower-bound shift *)
let shifted_excess t =
  let e = t.excess in
  Array.fill e 0 (t.n + 1) 0.0;
  Array.blit t.supply 0 e 0 t.n;
  for a = 0 to t.m - 1 do
    let lo = t.a_lower.(a) in
    if lo <> 0.0 then begin
      e.(t.a_src.(a)) <- e.(t.a_src.(a)) -. lo;
      e.(t.a_dst.(a)) <- e.(t.a_dst.(a)) +. lo
    end
  done

(* copy user arc data into the solver arrays; returns the big-M cost *)
let refresh t =
  let sum = ref 0.0 in
  for a = 0 to t.m - 1 do
    t.s_src.(a) <- t.a_src.(a);
    t.s_dst.(a) <- t.a_dst.(a);
    t.s_cost.(a) <- t.a_cost.(a);
    t.s_ucap.(a) <- t.a_cap.(a) -. t.a_lower.(a);
    sum := !sum +. abs_float t.a_cost.(a)
  done;
  let art = 4.0 *. (1.0 +. !sum) in
  for v = 0 to t.n - 1 do
    t.s_cost.(t.m + v) <- art;
    t.s_ucap.(t.m + v) <- infinity
  done;
  art

let cold_init t art =
  let root = t.n in
  shifted_excess t;
  for a = 0 to t.m - 1 do
    t.flow_.(a) <- 0.0;
    t.state.(a) <- st_lower
  done;
  t.pi.(root) <- 0.0;
  t.parent.(root) <- -1;
  t.pred.(root) <- -1;
  t.depth.(root) <- 0;
  for v = 0 to t.n - 1 do
    let aid = t.m + v in
    let e = t.excess.(v) in
    if e >= 0.0 then begin
      t.s_src.(aid) <- v;
      t.s_dst.(aid) <- root;
      t.fwd.(v) <- true;
      t.pi.(v) <- -.art
    end
    else begin
      t.s_src.(aid) <- root;
      t.s_dst.(aid) <- v;
      t.fwd.(v) <- false;
      t.pi.(v) <- art
    end;
    t.flow_.(aid) <- abs_float e;
    t.state.(aid) <- st_tree;
    t.parent.(v) <- root;
    t.pred.(v) <- aid;
    t.depth.(v) <- 1;
    t.thread.(v) <- (if v = t.n - 1 then root else v + 1);
    t.rev_thread.(v) <- (if v = 0 then root else v - 1)
  done;
  t.thread.(root) <- (if t.n > 0 then 0 else root);
  t.rev_thread.(root) <- (if t.n > 0 then t.n - 1 else root)

(* depth and potential of [y] from its parent's *)
let relabel t y =
  let p = t.parent.(y) in
  t.depth.(y) <- t.depth.(p) + 1;
  let a = t.pred.(y) in
  t.pi.(y) <-
    (if t.fwd.(y) then t.pi.(p) -. t.s_cost.(a) else t.pi.(p) +. t.s_cost.(a))

let link t a b =
  t.thread.(a) <- b;
  t.rev_thread.(b) <- a

(* Preorder walk over the child lists from the nodes on
   [t.stack.(0 .. top - 1)]: thread each node after [prev] and relabel
   it (parent precedes child). Returns the last node threaded. *)
let thread_from t top prev =
  let top = ref top and prev = ref prev in
  while !top > 0 do
    top := !top - 1;
    let y = t.stack.(!top) in
    link t !prev y;
    prev := y;
    relabel t y;
    let c = ref t.child_head.(y) in
    while !c >= 0 do
      t.stack.(!top) <- !c;
      top := !top + 1;
      c := t.child_next.(!c)
    done
  done;
  !prev

(* Warm start: keep the spanning tree and the nonbasic states from the
   previous solve and repair them to fit the current data. Nonbasic
   flows go back onto their bounds (an infinite-capacity arc
   remembered at its upper bound is parked at its lower one), and
   tree-arc flows are recomputed bottom-up (reverse preorder visits
   children before parents). A real tree arc whose flow would leave
   its bounds is clamped to the nearer bound and turns nonbasic; its
   node re-hangs under the root by its own artificial arc, which
   carries the residual excess. Tree artificial arcs are re-oriented
   by the sign of their node's excess the same way. The result is
   always a feasible basis of the big-M problem, so the primal pivots
   then drive any artificial flow out. Potentials are rebuilt
   top-down. *)
let warm_init t =
  let na = t.m + t.n in
  let root = t.n in
  let feps = ref 1e-9 in
  shifted_excess t;
  let e = t.excess in
  for v = 0 to t.n - 1 do
    let a = abs_float e.(v) in
    if a > !feps then feps := a
  done;
  let feps = 1e-9 *. (1.0 +. !feps) in
  (* nonbasic arcs sit on a bound; subtract their flow from the excess *)
  for i = 0 to na - 1 do
    let s = t.state.(i) in
    if s = st_lower then t.flow_.(i) <- 0.0
    else if s = st_upper then begin
      let u = t.s_ucap.(i) in
      if u = infinity then begin
        t.state.(i) <- st_lower;
        t.flow_.(i) <- 0.0
      end
      else begin
        t.flow_.(i) <- u;
        e.(t.s_src.(i)) <- e.(t.s_src.(i)) -. u;
        e.(t.s_dst.(i)) <- e.(t.s_dst.(i)) +. u
      end
    end
  done;
  (* tree arcs: reverse preorder, each node fixes its pred arc *)
  let v = ref t.rev_thread.(root) in
  while !v <> root do
    let u = !v in
    let a = t.pred.(u) in
    let p = t.parent.(u) in
    let f = if t.fwd.(u) then e.(u) else -.e.(u) in
    if a < t.m && f >= -.feps && f <= t.s_ucap.(a) +. feps then begin
      (* the float [if]s give [max 0.0 (min f ucap)] without boxing *)
      let f = if f <= t.s_ucap.(a) then f else t.s_ucap.(a) in
      let f = if 0.0 >= f then 0.0 else f in
      t.flow_.(a) <- f;
      if t.fwd.(u) then e.(p) <- e.(p) +. f else e.(p) <- e.(p) -. f
    end
    else begin
      if a < t.m then begin
        (* out of bounds: clamp to the nearer bound, u keeps the rest *)
        let f, s =
          if f < 0.0 then (0.0, st_lower) else (t.s_ucap.(a), st_upper)
        in
        t.flow_.(a) <- f;
        t.state.(a) <- s;
        if t.fwd.(u) then begin
          e.(p) <- e.(p) +. f;
          e.(u) <- e.(u) -. f
        end
        else begin
          e.(p) <- e.(p) -. f;
          e.(u) <- e.(u) +. f
        end;
        t.parent.(u) <- root;
        t.pred.(u) <- t.m + u;
        t.state.(t.m + u) <- st_tree
      end;
      (* u hangs off the root by its artificial arc, pointed along the
         residual excess. An artificial arc already in the tree turns
         only if its flow would go negative, so that an unchanged tree
         keeps its potentials. *)
      let aid = t.m + u in
      let r = e.(u) in
      let up =
        if a < t.m then r >= 0.0
        else if t.fwd.(u) then r >= -.feps
        else r > feps
      in
      t.fwd.(u) <- up;
      t.s_src.(aid) <- (if up then u else root);
      t.s_dst.(aid) <- (if up then root else u);
      let r = if up then r else -.r in
      t.flow_.(aid) <- (if 0.0 >= r then 0.0 else r)
    end;
    v := t.rev_thread.(u)
  done;
  (* re-thread the whole tree from the root: the repair may have
     re-hung subtrees, and every potential moves with the costs *)
  Array.fill t.child_head 0 root (-1);
  let top = ref 0 in
  for v = t.n - 1 downto 0 do
    let p = t.parent.(v) in
    if p = root then begin
      t.stack.(!top) <- v;
      top := !top + 1
    end
    else begin
      t.child_next.(v) <- t.child_head.(p);
      t.child_head.(p) <- v
    end
  done;
  t.pi.(root) <- 0.0;
  link t (thread_from t !top root) root

(* ------------------------------------------------------------------ *)

let find_entering t na cost_eps ~bland =
  if bland then begin
    let found = ref (-1) in
    let a = ref 0 in
    while !found < 0 && !a < na do
      let i = !a in
      let s = t.state.(i) in
      if s <> st_tree then begin
        let rc = t.s_cost.(i) +. t.pi.(t.s_src.(i)) -. t.pi.(t.s_dst.(i)) in
        if
          (s = st_lower && rc < -.cost_eps)
          || (s = st_upper && rc > cost_eps)
        then found := i
      end;
      incr a
    done;
    t.priced <- t.priced + !a;
    !found
  end
  else begin
    let block = max 50 (int_of_float (sqrt (float_of_int na))) in
    let best = ref (-1) and best_v = ref cost_eps in
    let in_block = ref 0 in
    let scanned = ref 0 in
    let stop = ref false in
    while (not !stop) && !scanned < na do
      let i = t.next_arc in
      t.next_arc <- (if i + 1 >= na then 0 else i + 1);
      let s = t.state.(i) in
      if s <> st_tree then begin
        let rc = t.s_cost.(i) +. t.pi.(t.s_src.(i)) -. t.pi.(t.s_dst.(i)) in
        let viol = if s = st_lower then -.rc else rc in
        if viol > !best_v then begin
          best := i;
          best_v := viol
        end
      end;
      incr scanned;
      incr in_block;
      if !in_block = block then begin
        in_block := 0;
        if !best >= 0 then stop := true
      end
    done;
    t.priced <- t.priced + !scanned;
    !best
  end

(* One pivot on entering arc [ain]. Returns the augmentation amount
   (for degeneracy tracking). *)
let pivot t ain =
  let dir = t.state.(ain) in
  let src = t.s_src.(ain) and dst = t.s_dst.(ain) in
  (* join = lowest common ancestor of src and dst *)
  let u = ref src and v = ref dst in
  while t.depth.(!u) > t.depth.(!v) do u := t.parent.(!u) done;
  while t.depth.(!v) > t.depth.(!u) do v := t.parent.(!v) done;
  while !u <> !v do
    u := t.parent.(!u);
    v := t.parent.(!v)
  done;
  let join = !u in
  let first = if dir = st_lower then src else dst in
  let second = if dir = st_lower then dst else src in
  (* leaving arc: min residual around the cycle; strict < on the first
     leg, <= on the second keeps the basis strongly feasible *)
  let delta =
    ref
      (if dir = st_lower then t.s_ucap.(ain) -. t.flow_.(ain)
       else t.flow_.(ain))
  in
  let u_out = ref (-1) and result = ref 0 in
  let u = ref first in
  while !u <> join do
    let x = !u in
    let a = t.pred.(x) in
    let d = if t.fwd.(x) then t.flow_.(a) else t.s_ucap.(a) -. t.flow_.(a) in
    if d < !delta then begin
      delta := d;
      u_out := x;
      result := 1
    end;
    u := t.parent.(x)
  done;
  let u = ref second in
  while !u <> join do
    let x = !u in
    let a = t.pred.(x) in
    let d = if t.fwd.(x) then t.s_ucap.(a) -. t.flow_.(a) else t.flow_.(a) in
    if d <= !delta then begin
      delta := d;
      u_out := x;
      result := 2
    end;
    u := t.parent.(x)
  done;
  if !delta = infinity then
    Error.numerical ~stage:"netsimplex"
      ~detail:"unbounded: negative-cost cycle of uncapacitated arcs";
  (* augment around the cycle *)
  if !delta > 0.0 then begin
    let dv = float_of_int dir *. !delta in
    t.flow_.(ain) <- t.flow_.(ain) +. dv;
    let u = ref src in
    while !u <> join do
      let x = !u in
      let a = t.pred.(x) in
      t.flow_.(a) <- (t.flow_.(a) +. if t.fwd.(x) then -.dv else dv);
      u := t.parent.(x)
    done;
    let u = ref dst in
    while !u <> join do
      let x = !u in
      let a = t.pred.(x) in
      t.flow_.(a) <- (t.flow_.(a) +. if t.fwd.(x) then dv else -.dv);
      u := t.parent.(x)
    done
  end;
  if !result = 0 then
    (* the entering arc itself was the bottleneck: it hops to its
       opposite bound and the tree is unchanged *)
    t.state.(ain) <- -dir
  else begin
    let u_out = !u_out in
    let u_in = if !result = 1 then first else second in
    let v_in = if !result = 1 then second else first in
    let a_out = t.pred.(u_out) in
    t.state.(a_out) <-
      (if t.flow_.(a_out) <= t.s_ucap.(a_out) -. t.flow_.(a_out) then st_lower
       else st_upper);
    t.state.(ain) <- st_tree;
    (* Stem-local thread splice. The stem x_0 = u_in .. x_k = u_out
       reverses: x_i hangs under x_(i-1), and x_0 under v_in. In the
       old preorder the subtree of x_i (i >= 1) is x_i, then the part
       A_i before x_(i-1), the subtree of x_(i-1), and the part B_i
       after it. Record the stem and each x_i's old thread predecessor
       before any link moves. *)
    let nstem = ref 0 in
    let x = ref u_in in
    let continue = ref true in
    while !continue do
      let i = !nstem in
      let y = !x in
      t.stem.(i) <- y;
      t.stem_prev.(i) <- t.rev_thread.(y);
      nstem := i + 1;
      if y = u_out then continue := false else x := t.parent.(y)
    done;
    let k = !nstem - 1 in
    (* one forward walk from u_in: the old subtrees of x_0 .. x_k end
       in that order, each where the thread first climbs to its depth
       (depth x_i = depth u_in - i) *)
    let d_in = t.depth.(u_in) in
    let i = ref 0 and y = ref u_in and visits = ref 0 in
    while !i <= k do
      let nxt = t.thread.(!y) in
      incr visits;
      while !i <= k && t.depth.(nxt) <= d_in - !i do
        t.stem_last.(!i) <- !y;
        t.stem_next.(!i) <- nxt;
        incr i
      done;
      y := nxt
    done;
    (* cut the old subtree of u_out out of the thread, then relink it
       after v_in as x_0 with its old subtree, then x_i A_i B_i for
       i = 1 .. k; links inside x_0's subtree, A_i and B_i stay *)
    link t t.stem_prev.(k) t.stem_next.(k);
    let after_v = t.thread.(v_in) in
    link t v_in u_in;
    let tail = ref t.stem_last.(0) in
    for i = 1 to k do
      link t !tail t.stem.(i);
      (* A_i still follows x_i and ends at x_(i-1)'s old predecessor,
         which is x_i itself when A_i is empty; B_i runs from after
         x_(i-1)'s old subtree to the end of x_i's *)
      let a_end = t.stem_prev.(i - 1) in
      tail := a_end;
      if t.stem_last.(i - 1) <> t.stem_last.(i) then begin
        link t a_end t.stem_next.(i - 1);
        tail := t.stem_last.(i)
      end
    done;
    link t !tail after_v;
    (* reverse the stem: each stem node adopts the previous one as
       parent, inheriting its old tree arc flipped (top down, so that
       arc is read before it is overwritten) *)
    for i = k downto 1 do
      let y = t.stem.(i) and below = t.stem.(i - 1) in
      t.parent.(y) <- below;
      t.pred.(y) <- t.pred.(below);
      t.fwd.(y) <- not t.fwd.(below)
    done;
    t.parent.(u_in) <- v_in;
    t.pred.(u_in) <- ain;
    t.fwd.(u_in) <- t.s_src.(ain) = u_in;
    (* the new segment in thread order, parents first *)
    let y = ref u_in in
    while !y <> after_v do
      relabel t !y;
      incr visits;
      y := t.thread.(!y)
    done;
    t.tree_nodes <- t.tree_nodes + !visits
  end;
  !delta

let solve ?(warm = true) t =
  if t.n = 0 then begin
    t.last_pivots <- 0;
    t.last_warm <- false;
    t.solved <- true;
    Optimal
  end
  else begin
    let reusable = ensure_arrays t && t.solved in
    let warm = warm && reusable in
    let art = refresh t in
    if warm then warm_init t else cold_init t art;
    t.last_warm <- warm;
    let na = t.m + t.n in
    let maxc = ref 0.0 in
    for a = 0 to t.m - 1 do
      let c = abs_float t.a_cost.(a) in
      if c > !maxc then maxc := c
    done;
    let cost_eps = 1e-9 *. (1.0 +. !maxc) in
    (* warm_init consumes the excess array; refresh it for the scale
       estimate used by the degeneracy and feasibility tolerances *)
    shifted_excess t;
    let fscale = ref 0.0 in
    for v = 0 to t.n - 1 do
      let a = abs_float t.excess.(v) in
      if a > !fscale then fscale := a
    done;
    let flow_eps = 1e-9 *. (1.0 +. !fscale) in
    let max_pivots = 100 + (100 * na) in
    let degen_limit = na + 10 in
    let pivots = ref 0 in
    t.priced <- 0;
    t.tree_nodes <- 0;
    let degen_run = ref 0 in
    let continue = ref true in
    let sink = Trace.current () in
    (* the objective of the flows routed so far; O(m), so only
       computed when a pivot batch is actually emitted *)
    let running_objective () =
      let c = ref 0.0 in
      for a = 0 to t.m - 1 do
        c := !c +. ((t.flow_.(a) +. t.a_lower.(a)) *. t.a_cost.(a))
      done;
      !c
    in
    while !continue do
      let bland = !degen_run > degen_limit in
      let ain = find_entering t na cost_eps ~bland in
      if ain < 0 then continue := false
      else begin
        incr pivots;
        if !pivots > max_pivots then
          Error.numerical ~stage:"netsimplex"
            ~detail:
              (Printf.sprintf "pivot limit exceeded (%d on %d arcs)"
                 max_pivots na);
        let delta = pivot t ain in
        if delta <= flow_eps then incr degen_run else degen_run := 0;
        (* progress batches for traces: one event per 64 pivots so a
           long solve is visible without an event per pivot *)
        if !pivots land 63 = 0 && Trace.enabled sink then begin
          let w = Sampler.decide Sampler.Flow_pivot in
          if w > 0 then
            Trace.emit sink
              (Event.Flow_pivots
                 { algo = "netsimplex"; pivots = !pivots;
                   objective = running_objective (); sampled_of = w })
        end
      end
    done;
    t.last_pivots <- !pivots;
    Metrics.add (Lazy.force m_pivots) !pivots;
    Metrics.add (Lazy.force m_priced) t.priced;
    Metrics.add (Lazy.force m_tree_nodes) t.tree_nodes;
    t.solved <- true;
    (* leftover artificial flow at optimality = no feasible flow *)
    let art_tol = 1e-7 *. (1.0 +. !fscale) in
    let infeasible = ref false in
    for v = 0 to t.n - 1 do
      if t.flow_.(t.m + v) > art_tol then infeasible := true
    done;
    if !infeasible then Infeasible else Optimal
  end

let flow t a =
  if not (0 <= a && a < t.m) then invalid_arg "Netsimplex.flow";
  if not t.solved then invalid_arg "Netsimplex.flow: not solved";
  t.flow_.(a) +. t.a_lower.(a)

let objective t =
  let c = ref 0.0 in
  for a = 0 to t.m - 1 do
    c := !c +. ((t.flow_.(a) +. t.a_lower.(a)) *. t.a_cost.(a))
  done;
  !c

let potential t v =
  if not (0 <= v && v < t.n) then invalid_arg "Netsimplex.potential";
  if not t.solved then invalid_arg "Netsimplex.potential: not solved";
  t.pi.(v)

let pivots t = t.last_pivots
let warm_started t = t.last_warm

(* Test hook: the basis invariants every pivot and warm start must
   keep. The first broken one is reported. *)
let check_tree t =
  let fail fmt = Printf.ksprintf (fun s -> Stdlib.Error s) fmt in
  if t.n = 0 || not t.solved then Ok ()
  else begin
    let root = t.n and nn = t.n + 1 and na = t.m + t.n in
    let bits = Int64.bits_of_float in
    let seen = Array.make nn false in
    (* path.(d) = the last node met at depth d on the walk *)
    let path = Array.make nn (-1) in
    let tree_arcs = ref 0 in
    for a = 0 to na - 1 do
      if t.state.(a) = st_tree then incr tree_arcs
    done;
    let rec walk v steps =
      let next = t.thread.(v) in
      if next < 0 || next >= nn then fail "thread.(%d) = %d out of range" v next
      else if t.rev_thread.(next) <> v then
        fail "rev_thread.(%d) = %d, not %d" next t.rev_thread.(next) v
      else if next = root then
        if steps + 1 = nn then Ok ()
        else fail "thread closes after %d of %d nodes" (steps + 1) nn
      else if seen.(next) then fail "thread meets node %d twice" next
      else begin
        seen.(next) <- true;
        match node next with Ok () -> walk next (steps + 1) | e -> e
      end
    and node v =
      let p = t.parent.(v) and a = t.pred.(v) and d = t.depth.(v) in
      if p < 0 || p >= nn then fail "parent.(%d) = %d out of range" v p
      else if d < 1 || d >= nn || path.(d - 1) <> p then
        fail "node %d (depth %d) does not follow its parent %d in preorder"
          v d p
      else if d <> t.depth.(p) + 1 then
        fail "depth.(%d) = %d, parent %d has depth %d" v d p t.depth.(p)
      else if a < 0 || a >= na || t.state.(a) <> st_tree then
        fail "pred.(%d) = %d is not a tree arc" v a
      else if
        (t.fwd.(v) && (t.s_src.(a) <> v || t.s_dst.(a) <> p))
        || ((not t.fwd.(v)) && (t.s_src.(a) <> p || t.s_dst.(a) <> v))
      then fail "arc %d of node %d is not oriented as fwd says" a v
      else
        let want =
          if t.fwd.(v) then t.pi.(p) -. t.s_cost.(a)
          else t.pi.(p) +. t.s_cost.(a)
        in
        if bits t.pi.(v) <> bits want then
          fail "pi.(%d) = %h, parent gives %h" v t.pi.(v) want
        else begin
          path.(d) <- v;
          Ok ()
        end
    in
    let rec flows a =
      if a = na then Ok ()
      else
        let f = t.flow_.(a) and u = t.s_ucap.(a) in
        let tol = 1e-9 *. (1.0 +. Float.abs (if u = infinity then f else u)) in
        if not (f >= -.tol && f <= u +. tol) then
          fail "flow.(%d) = %g outside [0, %g]" a f u
        else flows (a + 1)
    in
    if t.parent.(root) <> -1 || t.depth.(root) <> 0 || bits t.pi.(root) <> 0L
    then fail "root %d is not a depth-0 root with potential 0" root
    else if !tree_arcs <> t.n then
      fail "%d tree arcs for %d non-root nodes" !tree_arcs t.n
    else begin
      path.(0) <- root;
      match walk root 0 with Ok () -> flows 0 | e -> e
    end
  end
