(* Minimum-cost flow behind a two-kernel switch. The network lives in
   one place, the {!Netsimplex.t} made by [create]: [add_arc],
   [update_arc] and [set_supply] write straight into it. [Net_simplex]
   solves it there, keeping its spanning-tree basis across solves so
   unchanged-shape re-solves warm start. [Ssp] reads it back into a
   residual graph with two extra nodes — a super-source (n) and
   super-sink (n+1) that absorb both user supplies and the lower-bound
   transformation — and keeps only its own per-arc result. *)

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
  ns : Netsimplex.t; (* the network: arcs, bounds, costs, supplies *)
  mutable ssp_flow : float array; (* SSP's per-arc flow, includes lower *)
  mutable last : algo option; (* kernel of the last Optimal solve *)
}

let create n = { ns = Netsimplex.create n; ssp_flow = [||]; last = None }

let add_arc ?lower t ~src ~dst ~capacity ~cost =
  Netsimplex.add_arc ?lower t.ns ~src ~dst ~capacity ~cost

let update_arc ?lower ?capacity ?cost t a =
  Netsimplex.set_arc ?lower ?capacity ?cost t.ns a

let set_supply t v b = Netsimplex.set_supply t.ns v b

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
  let ns = t.ns in
  let nu = Netsimplex.node_count ns and narcs = Netsimplex.arc_count ns in
  let n = nu + 2 in
  let super_s = nu and super_t = nu + 1 in
  let r = res_create n (narcs + (2 * nu) + 2) in
  (* net supply per node: user supplies + lower-bound shifts *)
  let net = Array.make n 0.0 in
  for v = 0 to nu - 1 do
    net.(v) <- Netsimplex.supply ns v
  done;
  for i = 0 to narcs - 1 do
    let u = Netsimplex.arc_src ns i and v = Netsimplex.arc_dst ns i in
    let lo = Netsimplex.arc_lower ns i in
    if lo > 0.0 then begin
      net.(u) <- net.(u) -. lo;
      net.(v) <- net.(v) +. lo
    end;
    (* user arc i is residual arc 2i *)
    ignore
      (res_add r u v (Netsimplex.arc_capacity ns i -. lo)
         (Netsimplex.arc_cost ns i))
  done;
  (* hook supplies to the super nodes *)
  let required = ref 0.0 in
  for v = 0 to nu - 1 do
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
    t.ssp_flow <-
      Array.init narcs (fun i ->
          Netsimplex.arc_lower ns i +. r.r_cap.((2 * i) + 1));
    Optimal
  end

(* ---------------- dispatch ---------------- *)

let status_string = function Optimal -> "optimal" | Infeasible -> "infeasible"

let solve ?(algo = Ssp) t =
  Span.run "flow_solve" @@ fun () ->
  let sink = Trace.current () in
  Metrics.incr (Lazy.force m_solves);
  Metrics.incr
    (Lazy.force (match algo with Ssp -> m_solves_ssp | Net_simplex -> m_solves_ns));
  (* no flow routes every supply of an unbalanced network, so neither
     kernel runs on one *)
  let balanced = Netsimplex.balanced t.ns in
  let st =
    if not balanced then Infeasible
    else
      match algo with
      | Ssp -> solve_ssp t sink
      | Net_simplex -> (
        match Netsimplex.solve ~warm:true t.ns with
        | Netsimplex.Optimal -> Optimal
        | Netsimplex.Infeasible -> Infeasible)
  in
  t.last <- (if st = Optimal then Some algo else None);
  if Trace.enabled sink then begin
    let ran_ns = balanced && algo = Net_simplex in
    Trace.emit sink
      (Event.Flow_solve
         { algo = (match algo with Ssp -> "ssp" | Net_simplex -> "netsimplex");
           pivots = (if ran_ns then Netsimplex.pivots t.ns else 0);
           warm = ran_ns && Netsimplex.warm_started t.ns;
           status = status_string st })
  end;
  st

let flow t a =
  match t.last with
  | Some Net_simplex -> Netsimplex.flow t.ns a
  | Some Ssp ->
    if not (0 <= a && a < Array.length t.ssp_flow) then invalid_arg "Mincost.flow";
    t.ssp_flow.(a)
  | None -> invalid_arg "Mincost.flow: no optimal solve"

let total_cost t =
  match t.last with
  | Some Net_simplex -> Netsimplex.objective t.ns
  | Some Ssp ->
    let c = ref 0.0 in
    Array.iteri (fun i f -> c := !c +. (f *. Netsimplex.arc_cost t.ns i)) t.ssp_flow;
    !c
  | None -> 0.0

let potentials t =
  match t.last with
  | Some Net_simplex ->
    Some (Array.init (Netsimplex.node_count t.ns) (Netsimplex.potential t.ns))
  | Some Ssp | None -> None

let check_tree t = Netsimplex.check_tree t.ns
