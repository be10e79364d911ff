(* Branch-and-bound convergence analysis. Replays bb_node / incumbent
   / bound_pruned events to rebuild each solver's search trajectory:
   how the incumbent and the relaxation bound closed in on each other,
   how often subtrees were pruned, and how warm starts fared. Events
   without a solver field (warm_start, simplex_phase) are attributed
   to the solver of the most recent bb_node, which is how the writers
   interleave them. *)

type point = {
  ts : float;
  node : int;
  incumbent : float option;
  bound : float option;
  gap : float option;
}

type solver = {
  solver : string;
  nodes : int;
  max_depth : int;
  prunes : int;
  incumbents : (float * int * float) list; (* ts, node, objective *)
  final_incumbent : float option;
  final_bound : float option;
  final_gap : float option;
  trajectory : point list;
  warm_starts : (string * int) list; (* outcome -> count, first-seen order *)
  warm_dual_pivots : int;
  simplex_phases : (int * int * int) list; (* phase, solves, iterations *)
  first_ts : float;
  last_ts : float;
}

type resilience = {
  descents : (float * string * string * string * string) list;
  recoveries : (float * string * string) list;
  deadline_hits : (float * string * float * float option) list;
  chaos_injections : (string * int) list;
}

type t = {
  solvers : solver list;
  events : int;
  pivots : int;
  resilience : resilience;
}

let no_resilience r =
  r.descents = [] && r.recoveries = [] && r.deadline_hits = []
  && r.chaos_injections = []

let gap_of ~incumbent ~bound =
  match (incumbent, bound) with
  | Some inc, Some b when Float.is_finite inc && Float.is_finite b ->
    Some (Float.abs (inc -. b) /. Float.max 1e-9 (Float.abs inc))
  | _ -> None

type state = {
  name : string;
  mutable s_nodes : int;
  mutable s_max_depth : int;
  mutable s_prunes : int;
  mutable s_incumbents : (float * int * float) list; (* reversed *)
  mutable s_incumbent : float option;
  mutable s_bound : float option;
  mutable s_trajectory : point list; (* reversed *)
  mutable s_warm : (string * int) list; (* reversed first-seen *)
  mutable s_warm_pivots : int;
  mutable s_phases : (int * int * int) list; (* reversed first-seen *)
  mutable s_first_ts : float;
  mutable s_last_ts : float;
}

(* The running fold: [of_records] replays a whole trace through it,
   and live consumers (Progress) feed it one event at a time. *)
type acc = {
  tbl : (string, state) Hashtbl.t;
  mutable order : string list; (* reversed first-seen *)
  mutable current : state option;
  mutable n_events : int;
  mutable n_pivots : int;
  mutable descents : (float * string * string * string * string) list;
  mutable recoveries : (float * string * string) list;
  mutable deadline_hits : (float * string * float * float option) list;
  mutable chaos : (string * int) list; (* reversed first-seen *)
}

let create () =
  {
    tbl = Hashtbl.create 4;
    order = [];
    current = None;
    n_events = 0;
    n_pivots = 0;
    descents = [];
    recoveries = [];
    deadline_hits = [];
    chaos = [];
  }

let get acc name =
  match Hashtbl.find_opt acc.tbl name with
  | Some st -> st
  | None ->
    let st =
      {
        name;
        s_nodes = 0;
        s_max_depth = 0;
        s_prunes = 0;
        s_incumbents = [];
        s_incumbent = None;
        s_bound = None;
        s_trajectory = [];
        s_warm = [];
        s_warm_pivots = 0;
        s_phases = [];
        s_first_ts = infinity;
        s_last_ts = neg_infinity;
      }
    in
    Hashtbl.add acc.tbl name st;
    acc.order <- name :: acc.order;
    st

let touch st ts =
  if ts < st.s_first_ts then st.s_first_ts <- ts;
  if ts > st.s_last_ts then st.s_last_ts <- ts

let point st ts node =
  st.s_trajectory <-
    {
      ts;
      node;
      incumbent = st.s_incumbent;
      bound = st.s_bound;
      gap = gap_of ~incumbent:st.s_incumbent ~bound:st.s_bound;
    }
    :: st.s_trajectory

(* the solver a B&B event names becomes the current one *)
let enter acc solver ts =
  let st = get acc solver in
  acc.current <- Some st;
  touch st ts;
  st

let bump key = function
  | l when List.mem_assoc key l ->
    List.map (fun (k, c) -> if k = key then (k, c + 1) else (k, c)) l
  | l -> (key, 1) :: l

let add acc (r : Trace_reader.record) =
  acc.n_events <- acc.n_events + 1;
  let ts = r.Trace_reader.ts in
  match r.Trace_reader.event with
  | Trace_reader.Bb_node { solver; depth; bound; sampled_of; _ } ->
    let st = enter acc solver ts in
    (* a head-sampled node event stands for [sampled_of] explored
       nodes, so the trajectory's node count matches the exact
       mip.nodes counters within one sampling block *)
    st.s_nodes <- st.s_nodes + max 1 sampled_of;
    if depth > st.s_max_depth then st.s_max_depth <- depth;
    (match bound with Some _ -> st.s_bound <- bound | None -> ())
  | Trace_reader.Incumbent { solver; node; objective } ->
    let st = enter acc solver ts in
    st.s_incumbent <- Some objective;
    st.s_incumbents <- (ts, node, objective) :: st.s_incumbents;
    point st ts node
  | Trace_reader.Bound_pruned { solver; node; bound; incumbent } ->
    let st = enter acc solver ts in
    st.s_prunes <- st.s_prunes + 1;
    (match bound with Some _ -> st.s_bound <- bound | None -> ());
    (match incumbent with Some _ -> st.s_incumbent <- incumbent | None -> ());
    point st ts node
  | Trace_reader.Warm_start { iterations; outcome; _ } -> (
    acc.n_pivots <- acc.n_pivots + iterations;
    match acc.current with
    | None -> ()
    | Some st ->
      touch st ts;
      st.s_warm_pivots <- st.s_warm_pivots + iterations;
      st.s_warm <- bump outcome st.s_warm)
  | Trace_reader.Simplex_phase { phase; iterations; sampled_of; _ } -> (
    let w = max 1 sampled_of in
    acc.n_pivots <- acc.n_pivots + (iterations * w);
    match acc.current with
    | None -> ()
    | Some st ->
      touch st ts;
      st.s_phases <-
        (if List.exists (fun (p, _, _) -> p = phase) st.s_phases then
           List.map
             (fun (p, n, it) ->
               if p = phase then (p, n + w, it + (iterations * w))
               else (p, n, it))
             st.s_phases
         else (phase, w, iterations * w) :: st.s_phases))
  | Trace_reader.Ladder_descent { solver; from_rung; to_rung; reason } ->
    acc.descents <- (ts, solver, from_rung, to_rung, reason) :: acc.descents
  | Trace_reader.Recovery { stage; detail } ->
    acc.recoveries <- (ts, stage, detail) :: acc.recoveries
  | Trace_reader.Deadline_hit { phase; elapsed; budget } ->
    acc.deadline_hits <- (ts, phase, elapsed, budget) :: acc.deadline_hits
  | Trace_reader.Chaos_inject { site } -> acc.chaos <- bump site acc.chaos
  | _ -> ()

let solver_of_state st =
  {
    solver = st.name;
    nodes = st.s_nodes;
    max_depth = st.s_max_depth;
    prunes = st.s_prunes;
    incumbents = List.rev st.s_incumbents;
    final_incumbent = st.s_incumbent;
    final_bound = st.s_bound;
    final_gap = gap_of ~incumbent:st.s_incumbent ~bound:st.s_bound;
    trajectory = List.rev st.s_trajectory;
    warm_starts = List.rev st.s_warm;
    warm_dual_pivots = st.s_warm_pivots;
    simplex_phases = List.rev st.s_phases;
    first_ts = (if st.s_first_ts = infinity then 0.0 else st.s_first_ts);
    last_ts = (if st.s_last_ts = neg_infinity then 0.0 else st.s_last_ts);
  }

let current acc = Option.map solver_of_state acc.current

let result acc =
  {
    solvers =
      List.rev_map (fun name -> solver_of_state (Hashtbl.find acc.tbl name)) acc.order;
    events = acc.n_events;
    pivots = acc.n_pivots;
    resilience =
      {
        descents = List.rev acc.descents;
        recoveries = List.rev acc.recoveries;
        deadline_hits = List.rev acc.deadline_hits;
        chaos_injections = List.rev acc.chaos;
      };
  }

let of_records records =
  let acc = create () in
  List.iter (add acc) records;
  result acc

let opt_cell = function
  | None -> "-"
  | Some v -> Printf.sprintf "%.6g" v

let gap_cell = function
  | None -> "-"
  | Some g -> Printf.sprintf "%.2f%%" (100.0 *. g)

(* cap rendered trajectories: head + tail around an elision marker *)
let max_rows = 24

let render t =
  let b = Buffer.create 1024 in
  if t.solvers = [] then
    Buffer.add_string b "no branch-and-bound events in trace\n";
  List.iter
    (fun s ->
      Buffer.add_string b
        (Printf.sprintf
           "solver %s: %d node(s), max depth %d, %d prune(s), %d \
            incumbent(s), %.3fs span\n"
           s.solver s.nodes s.max_depth s.prunes
           (List.length s.incumbents)
           (s.last_ts -. s.first_ts));
      (match s.final_incumbent with
      | Some v ->
        Buffer.add_string b
          (Printf.sprintf "  final incumbent %.6g, bound %s, gap %s\n" v
             (opt_cell s.final_bound) (gap_cell s.final_gap))
      | None -> Buffer.add_string b "  no incumbent found\n");
      let rows =
        List.map
          (fun p ->
            [
              Printf.sprintf "%.4f" p.ts;
              string_of_int p.node;
              opt_cell p.incumbent;
              opt_cell p.bound;
              gap_cell p.gap;
            ])
          s.trajectory
      in
      let rows =
        let n = List.length rows in
        if n <= max_rows then rows
        else
          let head = List.filteri (fun i _ -> i < max_rows / 2) rows in
          let tail = List.filteri (fun i _ -> i >= n - (max_rows / 2)) rows in
          head @ ([ "..."; "..."; "..."; "..."; "..." ] :: tail)
      in
      if rows <> [] then
        Buffer.add_string b
          (Monpos_util.Table.render
             ~header:[ "ts"; "node"; "incumbent"; "bound"; "gap" ]
             rows);
      if s.warm_starts <> [] then
        Buffer.add_string b
          (Printf.sprintf "  warm starts: %s (%d dual pivot(s))\n"
             (String.concat ", "
                (List.map
                   (fun (o, c) -> Printf.sprintf "%s %d" o c)
                   s.warm_starts))
             s.warm_dual_pivots);
      if s.simplex_phases <> [] then
        Buffer.add_string b
          (Printf.sprintf "  simplex phases: %s\n"
             (String.concat ", "
                (List.map
                   (fun (p, n, it) ->
                     Printf.sprintf "phase %d x%d (%d iteration(s))" p n it)
                   s.simplex_phases))))
    t.solvers;
  (let r = t.resilience in
   if not (no_resilience r) then begin
     Buffer.add_string b "resilience:\n";
     List.iter
       (fun (ts, solver, from_rung, to_rung, reason) ->
         Buffer.add_string b
           (Printf.sprintf "  %.4f ladder descent [%s] %s -> %s: %s\n" ts
              solver from_rung to_rung reason))
       r.descents;
     List.iter
       (fun (ts, stage, detail) ->
         Buffer.add_string b
           (Printf.sprintf "  %.4f recovery [%s] %s\n" ts stage detail))
       r.recoveries;
     List.iter
       (fun (ts, phase, elapsed, budget) ->
         Buffer.add_string b
           (Printf.sprintf "  %.4f deadline hit in %s after %.3fs%s\n" ts phase
              elapsed
              (match budget with
              | Some bu -> Printf.sprintf " (budget %.3fs)" bu
              | None -> "")))
       r.deadline_hits;
     if r.chaos_injections <> [] then
       Buffer.add_string b
         (Printf.sprintf "  chaos injections: %s\n"
            (String.concat ", "
               (List.map
                  (fun (site, c) -> Printf.sprintf "%s x%d" site c)
                  r.chaos_injections)))
   end);
  Buffer.contents b

let to_json t =
  let opt = function None -> Json.Null | Some v -> Json.Float v in
  Json.Obj
    [
      ("events", Json.Int t.events);
      ( "resilience",
        Json.Obj
          [
            ( "descents",
              Json.List
                (List.map
                   (fun (ts, solver, from_rung, to_rung, reason) ->
                     Json.Obj
                       [
                         ("ts", Json.Float ts);
                         ("solver", Json.String solver);
                         ("from_rung", Json.String from_rung);
                         ("to_rung", Json.String to_rung);
                         ("reason", Json.String reason);
                       ])
                   t.resilience.descents) );
            ( "recoveries",
              Json.List
                (List.map
                   (fun (ts, stage, detail) ->
                     Json.Obj
                       [
                         ("ts", Json.Float ts);
                         ("stage", Json.String stage);
                         ("detail", Json.String detail);
                       ])
                   t.resilience.recoveries) );
            ( "deadline_hits",
              Json.List
                (List.map
                   (fun (ts, phase, elapsed, budget) ->
                     Json.Obj
                       [
                         ("ts", Json.Float ts);
                         ("phase", Json.String phase);
                         ("elapsed", Json.Float elapsed);
                         ("budget", opt budget);
                       ])
                   t.resilience.deadline_hits) );
            ( "chaos_injections",
              Json.Obj
                (List.map
                   (fun (site, c) -> (site, Json.Int c))
                   t.resilience.chaos_injections) );
          ] );
      ( "solvers",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [
                   ("solver", Json.String s.solver);
                   ("nodes", Json.Int s.nodes);
                   ("max_depth", Json.Int s.max_depth);
                   ("prunes", Json.Int s.prunes);
                   ( "prune_rate",
                     if s.nodes = 0 then Json.Null
                     else
                       Json.Float (float_of_int s.prunes /. float_of_int s.nodes)
                   );
                   ("final_incumbent", opt s.final_incumbent);
                   ("final_bound", opt s.final_bound);
                   ("final_gap", opt s.final_gap);
                   ( "incumbents",
                     Json.List
                       (List.map
                          (fun (ts, node, objective) ->
                            Json.Obj
                              [
                                ("ts", Json.Float ts);
                                ("node", Json.Int node);
                                ("objective", Json.Float objective);
                              ])
                          s.incumbents) );
                   ( "trajectory",
                     Json.List
                       (List.map
                          (fun p ->
                            Json.Obj
                              [
                                ("ts", Json.Float p.ts);
                                ("node", Json.Int p.node);
                                ("incumbent", opt p.incumbent);
                                ("bound", opt p.bound);
                                ("gap", opt p.gap);
                              ])
                          s.trajectory) );
                   ( "warm_starts",
                     Json.Obj
                       (List.map (fun (o, c) -> (o, Json.Int c)) s.warm_starts)
                   );
                   ("warm_dual_pivots", Json.Int s.warm_dual_pivots);
                   ( "simplex_phases",
                     Json.List
                       (List.map
                          (fun (p, n, it) ->
                            Json.Obj
                              [
                                ("phase", Json.Int p);
                                ("solves", Json.Int n);
                                ("iterations", Json.Int it);
                              ])
                          s.simplex_phases) );
                   ("first_ts", Json.Float s.first_ts);
                   ("last_ts", Json.Float s.last_ts);
                 ])
             t.solvers) );
    ]
