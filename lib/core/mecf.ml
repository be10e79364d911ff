module Graph = Monpos_graph.Graph
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Mincost = Monpos_flow.Mincost
module Maxflow = Monpos_flow.Maxflow
module Span = Monpos_obs.Span

(* Auxiliary-graph node numbering: 0 = S, 1 = T, then one node per
   used edge, then one node per traffic. *)
type layout = {
  source : int;
  sink : int;
  edge_node : (Graph.edge, int) Hashtbl.t;
  traffic_node : int array;
  used : Graph.edge list;
  total_nodes : int;
}

let layout inst =
  let used =
    List.filter
      (fun e -> inst.Instance.loads.(e) > 0.0)
      (List.init (Graph.num_edges inst.Instance.graph) Fun.id)
  in
  let edge_node = Hashtbl.create 64 in
  let next = ref 2 in
  List.iter
    (fun e ->
      Hashtbl.replace edge_node e !next;
      incr next)
    used;
  let traffic_node =
    Array.map
      (fun _ ->
        let v = !next in
        incr next;
        v)
      inst.Instance.traffics
  in
  { source = 0; sink = 1; edge_node; traffic_node; used; total_nodes = !next }

let solve_mip ?(k = 1.0) ?options inst =
  Span.run "mecf.mip" @@ fun () ->
  let l = layout inst in
  let m = Model.create Model.Minimize ~name:"mecf" in
  (* y_e: the (S, w_e) arc is payed for *)
  let y = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace y e
        (Model.add_var m ~name:(Printf.sprintf "y_%d" e) ~obj:1.0 Model.Binary))
    l.used;
  (* flow variables: g_e on (S, w_e); f_(e,t) on (w_e, w_t); h_t on
     (w_t, T). Conservation eliminates nothing here; we keep all
     three families to mirror the construction literally. *)
  let g = Hashtbl.create 64 in
  List.iter
    (fun e ->
      Hashtbl.replace g e
        (Model.add_var m ~name:(Printf.sprintf "g_%d" e) Model.Continuous))
    l.used;
  let h =
    Array.mapi
      (fun t tr ->
        Model.add_var m
          ~name:(Printf.sprintf "h_%d" t)
          ~ub:tr.Instance.t_volume Model.Continuous)
      inst.Instance.traffics
  in
  let f_by_edge = Hashtbl.create 64 in
  let f_by_traffic = Array.make (Array.length inst.Instance.traffics) [] in
  Array.iteri
    (fun t tr ->
      List.iter
        (fun e ->
          if Hashtbl.mem l.edge_node e then begin
            let f =
              Model.add_var m ~name:(Printf.sprintf "f_%d_%d" e t)
                Model.Continuous
            in
            let cur = try Hashtbl.find f_by_edge e with Not_found -> [] in
            Hashtbl.replace f_by_edge e (f :: cur);
            f_by_traffic.(t) <- f :: f_by_traffic.(t)
          end)
        tr.Instance.t_edges)
    inst.Instance.traffics;
  (* conservation at w_e: g_e = sum_t f_(e,t); opening: g_e <= load_e y_e *)
  List.iter
    (fun e ->
      let ge = Hashtbl.find g e in
      let fs = try Hashtbl.find f_by_edge e with Not_found -> [] in
      Model.add_constr m
        ~name:(Printf.sprintf "consv_e%d" e)
        ((-1.0, ge) :: List.map (fun f -> (1.0, f)) fs)
        Model.Eq 0.0;
      Model.add_constr m
        ~name:(Printf.sprintf "open_%d" e)
        [ (1.0, ge); (-.inst.Instance.loads.(e), Hashtbl.find y e) ]
        Model.Le 0.0)
    l.used;
  (* conservation at w_t: h_t = sum_e f_(e,t) *)
  Array.iteri
    (fun t _ ->
      Model.add_constr m
        ~name:(Printf.sprintf "consv_t%d" t)
        ((-1.0, h.(t)) :: List.map (fun f -> (1.0, f)) f_by_traffic.(t))
        Model.Eq 0.0)
    inst.Instance.traffics;
  (* flow request: sum_t h_t >= k V *)
  Model.add_constr m ~name:"request"
    (Array.to_list (Array.map (fun v -> (1.0, v)) h))
    Model.Ge
    (k *. inst.Instance.total_volume);
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Mecf.solve_mip" m in
  let monitors =
    Hashtbl.fold
      (fun e v acc -> if x.(Model.var_index v) > 0.5 then e :: acc else acc)
      y []
  in
  let monitors = List.sort compare monitors in
  {
    Passive.monitors;
    coverage = Instance.coverage inst monitors;
    fraction = Instance.coverage_fraction inst monitors;
    count = List.length monitors;
    optimal;
    method_name = "mecf-mip";
  }

let flow_heuristic ?(k = 1.0) ?(algo = Mincost.Ssp) inst =
  Span.run "mecf.flow_heuristic" @@ fun () ->
  let l = layout inst in
  let net = Mincost.create l.total_nodes in
  let s_arc = Hashtbl.create 64 in
  List.iter
    (fun e ->
      let we = Hashtbl.find l.edge_node e in
      let cost = 1.0 /. inst.Instance.loads.(e) in
      Hashtbl.replace s_arc e
        (Mincost.add_arc net ~src:l.source ~dst:we
           ~capacity:inst.Instance.loads.(e) ~cost))
    l.used;
  Array.iteri
    (fun t tr ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt l.edge_node e with
          | None -> ()
          | Some we ->
            ignore
              (Mincost.add_arc net ~src:we ~dst:l.traffic_node.(t)
                 ~capacity:tr.Instance.t_volume ~cost:0.0))
        tr.Instance.t_edges;
      ignore
        (Mincost.add_arc net ~src:l.traffic_node.(t) ~dst:l.sink
           ~capacity:tr.Instance.t_volume ~cost:0.0))
    inst.Instance.traffics;
  let request = k *. inst.Instance.total_volume in
  Mincost.set_supply net l.source request;
  Mincost.set_supply net l.sink (-.request);
  (match Mincost.solve ~algo net with
  | Mincost.Optimal -> ()
  | Mincost.Infeasible ->
    Monpos_resilience.Error.infeasible "Mecf.flow_heuristic: request unreachable");
  let selected =
    List.filter
      (fun e -> Mincost.flow net (Hashtbl.find s_arc e) > 1e-9)
      l.used
  in
  (* prune redundant selections, cheapest-looking first *)
  let selected =
    List.sort
      (fun a b -> compare inst.Instance.loads.(a) inst.Instance.loads.(b))
      selected
  in
  let keep = ref (List.sort compare selected) in
  List.iter
    (fun e ->
      let without = List.filter (( <> ) e) !keep in
      if Instance.coverage inst without >= request -. 1e-9 then keep := without)
    selected;
  let monitors = !keep in
  {
    Passive.monitors;
    coverage = Instance.coverage inst monitors;
    fraction = Instance.coverage_fraction inst monitors;
    count = List.length monitors;
    optimal = false;
    method_name = "mecf-flow";
  }

let coverage_via_flow inst ~monitors =
  let l = layout inst in
  let net = Maxflow.create l.total_nodes in
  let monitored = Array.make (Graph.num_edges inst.Instance.graph) false in
  List.iter (fun e -> monitored.(e) <- true) monitors;
  List.iter
    (fun e ->
      if monitored.(e) then
        ignore
          (Maxflow.add_arc net ~src:l.source ~dst:(Hashtbl.find l.edge_node e)
             ~capacity:infinity))
    l.used;
  Array.iteri
    (fun t tr ->
      List.iter
        (fun e ->
          match Hashtbl.find_opt l.edge_node e with
          | None -> ()
          | Some we ->
            ignore
              (Maxflow.add_arc net ~src:we ~dst:l.traffic_node.(t)
                 ~capacity:infinity))
        tr.Instance.t_edges;
      ignore
        (Maxflow.add_arc net ~src:l.traffic_node.(t) ~dst:l.sink
           ~capacity:tr.Instance.t_volume))
    inst.Instance.traffics;
  Maxflow.solve net ~source:l.source ~sink:l.sink
