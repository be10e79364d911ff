(* Minimum-cost flow behind a two-kernel switch. [Ssp] is successive
   shortest paths on a residual graph with two extra nodes — a
   super-source (n) and super-sink (n+1) that absorb both user
   supplies and the lower-bound transformation. [Net_simplex] hands
   the instance (lower bounds and supplies included, no super nodes)
   to the spanning-tree kernel in {!Netsimplex}, which is kept alive
   across solves so unchanged-shape re-solves warm start from the
   previous basis. *)

module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Span = Monpos_obs.Span
module Sampler = Monpos_obs.Sampler

let m_solves = lazy (Metrics.counter Metrics.default "mincost.solves")

let m_augmentations =
  lazy (Metrics.counter Metrics.default "mincost.augmentations")

let m_solves_ssp =
  lazy (Metrics.counter ~labels:[ ("algo", "ssp") ] Metrics.default "flow.solves")

let m_solves_ns =
  lazy
    (Metrics.counter
       ~labels:[ ("algo", "netsimplex") ]
       Metrics.default "flow.solves")

type arc = int

type status = Optimal | Infeasible

type algo = Ssp | Net_simplex

type t = {
  n : int;
  mutable narcs : int;
  (* user arcs, growable parallel arrays *)
  mutable a_src : int array;
  mutable a_dst : int array;
  mutable a_lower : float array;
  mutable a_cap : float array;
  mutable a_cost : float array;
  supply : (int, float) Hashtbl.t;
  mutable last_flow : float array; (* per user arc, includes lower *)
  mutable last_cost : float;
  mutable last_potentials : float array option;
  mutable ns : Netsimplex.t option;
}

let create n =
  {
    n;
    narcs = 0;
    a_src = Array.make 16 0;
    a_dst = Array.make 16 0;
    a_lower = Array.make 16 0.0;
    a_cap = Array.make 16 0.0;
    a_cost = Array.make 16 0.0;
    supply = Hashtbl.create 16;
    last_flow = [||];
    last_cost = 0.0;
    last_potentials = None;
    ns = None;
  }

let grow_int a len = Array.append a (Array.make len 0)
let grow_float a len = Array.append a (Array.make len 0.0)

let add_arc ?(lower = 0.0) t ~src ~dst ~capacity ~cost =
  assert (0 <= src && src < t.n && 0 <= dst && dst < t.n);
  assert (0.0 <= lower && lower <= capacity);
  let cap = Array.length t.a_src in
  if t.narcs = cap then begin
    t.a_src <- grow_int t.a_src cap;
    t.a_dst <- grow_int t.a_dst cap;
    t.a_lower <- grow_float t.a_lower cap;
    t.a_cap <- grow_float t.a_cap cap;
    t.a_cost <- grow_float t.a_cost cap
  end;
  let id = t.narcs in
  t.a_src.(id) <- src;
  t.a_dst.(id) <- dst;
  t.a_lower.(id) <- lower;
  t.a_cap.(id) <- capacity;
  t.a_cost.(id) <- cost;
  t.narcs <- t.narcs + 1;
  id

let update_arc ?lower ?capacity ?cost t a =
  assert (0 <= a && a < t.narcs);
  let lo = match lower with Some l -> l | None -> t.a_lower.(a) in
  let cap = match capacity with Some c -> c | None -> t.a_cap.(a) in
  assert (0.0 <= lo && lo <= cap);
  t.a_lower.(a) <- lo;
  t.a_cap.(a) <- cap;
  match cost with Some c -> t.a_cost.(a) <- c | None -> ()

let set_supply t v b =
  assert (0 <= v && v < t.n);
  Hashtbl.replace t.supply v b

(* ---------------- successive shortest paths kernel ---------------- *)

(* residual graph as parallel arrays; arc 2k forward / 2k+1 backward *)
type res = {
  r_head : int array;
  r_cap : float array;
  r_cost : float array;
  r_next : int array;
  r_first : int array;
  mutable r_count : int;
}

let res_create n narcs =
  {
    r_head = Array.make (2 * narcs) 0;
    r_cap = Array.make (2 * narcs) 0.0;
    r_cost = Array.make (2 * narcs) 0.0;
    r_next = Array.make (2 * narcs) (-1);
    r_first = Array.make n (-1);
    r_count = 0;
  }

let res_add r u v cap cost =
  let a = r.r_count in
  r.r_head.(a) <- v;
  r.r_cap.(a) <- cap;
  r.r_cost.(a) <- cost;
  r.r_next.(a) <- r.r_first.(u);
  r.r_first.(u) <- a;
  r.r_head.(a + 1) <- u;
  r.r_cap.(a + 1) <- 0.0;
  r.r_cost.(a + 1) <- -.cost;
  r.r_next.(a + 1) <- r.r_first.(v);
  r.r_first.(v) <- a + 1;
  r.r_count <- a + 2;
  a

let solve_ssp t sink =
  let n = t.n + 2 in
  let super_s = t.n and super_t = t.n + 1 in
  let narcs_upper = t.narcs + (2 * t.n) + 2 in
  let r = res_create n narcs_upper in
  (* net supply per node: user supplies + lower-bound shifts *)
  let net = Array.make n 0.0 in
  Hashtbl.iter (fun v b -> net.(v) <- net.(v) +. b) t.supply;
  let res_id = Array.make t.narcs (-1) in
  for i = 0 to t.narcs - 1 do
    let lo = t.a_lower.(i) in
    if lo > 0.0 then begin
      net.(t.a_src.(i)) <- net.(t.a_src.(i)) -. lo;
      net.(t.a_dst.(i)) <- net.(t.a_dst.(i)) +. lo
    end;
    res_id.(i) <-
      res_add r t.a_src.(i) t.a_dst.(i) (t.a_cap.(i) -. lo) t.a_cost.(i)
  done;
  (* hook supplies to the super nodes *)
  let required = ref 0.0 in
  for v = 0 to t.n - 1 do
    if net.(v) > 0.0 then begin
      ignore (res_add r super_s v net.(v) 0.0);
      required := !required +. net.(v)
    end
    else if net.(v) < 0.0 then ignore (res_add r v super_t (-.net.(v)) 0.0)
  done;
  (* Successive shortest paths; each path found by SPFA (queue-based
     Bellman-Ford), which tolerates the negative residual costs that
     appear on backward arcs without potential bookkeeping. Without a
     negative cycle a node enters the FIFO queue at most once per
     Bellman-Ford round, so fewer than [n] times; the [n]-th entry
     proves a negative-cost cycle, which SSP does not cancel. *)
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let inqueue = Array.make n false in
  let entries = Array.make n 0 in
  let routed = ref 0.0 in
  let feasible = ref true in
  let continue = ref (!required > 1e-12) in
  while !continue do
    Array.fill dist 0 n infinity;
    Array.fill parent 0 n (-1);
    Array.fill inqueue 0 n false;
    Array.fill entries 0 n 0;
    dist.(super_s) <- 0.0;
    let q = Queue.create () in
    Queue.add super_s q;
    inqueue.(super_s) <- true;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      inqueue.(u) <- false;
      let a = ref r.r_first.(u) in
      while !a <> -1 do
        let v = r.r_head.(!a) in
        if r.r_cap.(!a) > 1e-12 then begin
          let nd = dist.(u) +. r.r_cost.(!a) in
          if nd < dist.(v) -. 1e-12 then begin
            dist.(v) <- nd;
            parent.(v) <- !a;
            if not inqueue.(v) then begin
              entries.(v) <- entries.(v) + 1;
              if entries.(v) >= n then
                Monpos_resilience.Error.numerical ~stage:"Mincost.solve_ssp"
                  ~detail:"negative-cost cycle in the residual graph";
              inqueue.(v) <- true;
              Queue.add v q
            end
          end
        end;
        a := r.r_next.(!a)
      done
    done;
    if dist.(super_t) = infinity then begin
      feasible := false;
      continue := false
    end
    else begin
      (* bottleneck along the path *)
      let bott = ref (!required -. !routed) in
      let v = ref super_t in
      while !v <> super_s do
        let a = parent.(!v) in
        bott := min !bott r.r_cap.(a);
        v := r.r_head.(a lxor 1)
      done;
      let v = ref super_t in
      while !v <> super_s do
        let a = parent.(!v) in
        r.r_cap.(a) <- r.r_cap.(a) -. !bott;
        r.r_cap.(a lxor 1) <- r.r_cap.(a lxor 1) +. !bott;
        v := r.r_head.(a lxor 1)
      done;
      routed := !routed +. !bott;
      Metrics.incr (Lazy.force m_augmentations);
      if Trace.enabled sink then begin
        let w = Sampler.decide Sampler.Flow_pivot in
        if w > 0 then
          Trace.emit sink
            (Event.Flow_augmentation
               { amount = !bott; path_cost = dist.(super_t); routed = !routed;
                 sampled_of = w })
      end;
      if !routed >= !required -. 1e-9 then continue := false
    end
  done;
  if not !feasible then Infeasible
  else begin
    (* read back user arc flows *)
    t.last_flow <-
      Array.init t.narcs (fun i ->
          let res = res_id.(i) in
          t.a_lower.(i) +. r.r_cap.(res lxor 1));
    t.last_cost <- 0.0;
    for i = 0 to t.narcs - 1 do
      t.last_cost <- t.last_cost +. (t.last_flow.(i) *. t.a_cost.(i))
    done;
    Optimal
  end

(* ---------------- network simplex kernel ---------------- *)

(* The kernel instance survives across solves: when the arc count is
   unchanged we only push the (possibly drifted) bounds, costs and
   supplies into it, which preserves its spanning-tree basis and lets
   [Netsimplex.solve ~warm:true] reoptimize from there. *)
let sync_ns t =
  let ns =
    match t.ns with
    | Some ns when Netsimplex.arc_count ns = t.narcs -> ns
    | _ ->
      let ns = Netsimplex.create t.n in
      for i = 0 to t.narcs - 1 do
        ignore
          (Netsimplex.add_arc ns ~src:t.a_src.(i) ~dst:t.a_dst.(i)
             ~capacity:t.a_cap.(i) ~cost:t.a_cost.(i))
      done;
      t.ns <- Some ns;
      ns
  in
  for i = 0 to t.narcs - 1 do
    Netsimplex.set_arc ns i ~lower:t.a_lower.(i) ~capacity:t.a_cap.(i)
      ~cost:t.a_cost.(i)
  done;
  for v = 0 to t.n - 1 do
    Netsimplex.set_supply ns v 0.0
  done;
  Hashtbl.iter (fun v b -> Netsimplex.set_supply ns v b) t.supply;
  ns

let solve_netsimplex t =
  let ns = sync_ns t in
  match Netsimplex.solve ~warm:true ns with
  | Netsimplex.Infeasible -> (ns, Infeasible)
  | Netsimplex.Optimal ->
    t.last_flow <- Array.init t.narcs (fun i -> Netsimplex.flow ns i);
    t.last_cost <- Netsimplex.objective ns;
    t.last_potentials <-
      Some (Array.init t.n (fun v -> Netsimplex.potential ns v));
    (ns, Optimal)

(* ---------------- dispatch ---------------- *)

let status_string = function Optimal -> "optimal" | Infeasible -> "infeasible"

let solve ?(algo = Ssp) t =
  Span.run "flow_solve" @@ fun () ->
  let sink = Trace.current () in
  Metrics.incr (Lazy.force m_solves);
  match algo with
  | Ssp ->
    Metrics.incr (Lazy.force m_solves_ssp);
    let st = solve_ssp t sink in
    t.last_potentials <- None;
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Flow_solve
           { algo = "ssp"; pivots = 0; warm = false; status = status_string st });
    st
  | Net_simplex ->
    Metrics.incr (Lazy.force m_solves_ns);
    let ns, st = solve_netsimplex t in
    if st = Infeasible then t.last_potentials <- None;
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Flow_solve
           { algo = "netsimplex"; pivots = Netsimplex.pivots ns;
             warm = Netsimplex.warm_started ns; status = status_string st });
    st

let flow t a =
  assert (0 <= a && a < Array.length t.last_flow);
  t.last_flow.(a)

let total_cost t = t.last_cost

let potentials t = t.last_potentials

let check_tree t =
  match t.ns with None -> Ok () | Some ns -> Netsimplex.check_tree ns
