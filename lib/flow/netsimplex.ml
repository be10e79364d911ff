(* Primal network simplex. The basis is a spanning tree rooted at an
   artificial node [n]; every non-root node v carries its tree arc in
   pred.(v) (fwd.(v) tells whether that arc is oriented v -> parent).
   The thread is a preorder traversal threaded through the nodes, so
   "the subtree of v" is the contiguous thread segment starting at v
   while depth stays greater than depth.(v) — which makes the pivot's
   re-hang and potential update O(|subtree|).

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
  (* pivot scratch *)
  mutable child_head : int array;
  mutable child_next : int array;
  mutable stem : int array;
  mutable stem_pred : int array;
  mutable stem_fwd : bool array;
  mutable stack : int array;
  mutable next_arc : int;
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
    stem = [||];
    stem_pred = [||];
    stem_fwd = [||];
    stack = [||];
    next_arc = 0;
    last_pivots = 0;
    last_warm = false;
    solved = false;
  }

let node_count t = t.n
let arc_count t = t.m

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
    t.stem <- Array.make nn 0;
    t.stem_pred <- Array.make nn 0;
    t.stem_fwd <- Array.make nn false;
    t.stack <- Array.make nn 0;
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

(* Preorder walk over the child lists from the nodes on
   [t.stack.(0 .. top - 1)]: thread each node after [prev] and fix its
   depth and potential from its parent's (parent precedes child).
   Returns the last node threaded. *)
let thread_from t top prev =
  let top = ref top and prev = ref prev in
  while !top > 0 do
    top := !top - 1;
    let y = t.stack.(!top) in
    t.thread.(!prev) <- y;
    t.rev_thread.(y) <- !prev;
    prev := y;
    let p = t.parent.(y) in
    t.depth.(y) <- t.depth.(p) + 1;
    let a = t.pred.(y) in
    t.pi.(y) <-
      (if t.fwd.(y) then t.pi.(p) -. t.s_cost.(a)
       else t.pi.(p) +. t.s_cost.(a));
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
      let f = max 0.0 (min f t.s_ucap.(a)) in
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
      t.flow_.(aid) <- max 0.0 (if up then r else -.r)
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
  let last = thread_from t !top root in
  t.thread.(last) <- root;
  t.rev_thread.(root) <- last

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
    (* subtree of u_out = contiguous thread segment; splice it out *)
    let d_out = t.depth.(u_out) in
    let last = ref u_out in
    while t.depth.(t.thread.(!last)) > d_out do last := t.thread.(!last) done;
    let last = !last in
    let before = t.rev_thread.(u_out) and after = t.thread.(last) in
    t.thread.(before) <- after;
    t.rev_thread.(after) <- before;
    (* reverse the stem u_in .. u_out: each stem node adopts the
       previous one as parent, inheriting its old tree arc flipped *)
    let nstem = ref 0 in
    let x = ref u_in in
    let continue = ref true in
    while !continue do
      let i = !nstem in
      t.stem.(i) <- !x;
      t.stem_pred.(i) <- t.pred.(!x);
      t.stem_fwd.(i) <- t.fwd.(!x);
      nstem := i + 1;
      if !x = u_out then continue := false else x := t.parent.(!x)
    done;
    t.parent.(u_in) <- v_in;
    t.pred.(u_in) <- ain;
    t.fwd.(u_in) <- t.s_src.(ain) = u_in;
    for i = 1 to !nstem - 1 do
      let y = t.stem.(i) in
      t.parent.(y) <- t.stem.(i - 1);
      t.pred.(y) <- t.stem_pred.(i - 1);
      t.fwd.(y) <- not t.stem_fwd.(i - 1)
    done;
    (* child lists for the segment under its new parent pointers; the
       segment's internal thread is still the old preorder *)
    let x = ref u_out in
    let continue = ref true in
    while !continue do
      t.child_head.(!x) <- -1;
      if !x = last then continue := false else x := t.thread.(!x)
    done;
    let x = ref u_out in
    let continue = ref true in
    while !continue do
      let y = !x in
      let nxt = t.thread.(y) in
      if y <> u_in then begin
        let p = t.parent.(y) in
        t.child_next.(y) <- t.child_head.(p);
        t.child_head.(p) <- y
      end;
      if y = last then continue := false else x := nxt
    done;
    (* re-thread the segment in preorder from u_in *)
    let after_v = t.thread.(v_in) in
    t.stack.(0) <- u_in;
    let last = thread_from t 1 v_in in
    t.thread.(last) <- after_v;
    t.rev_thread.(after_v) <- last
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
