module Graph = Monpos_graph.Graph
module Dot = Monpos_graph.Dot
module Table = Monpos_util.Table

let load_share inst e =
  let total = Array.fold_left ( +. ) 0.0 inst.Instance.loads in
  if total <= 0.0 then 0.0 else inst.Instance.loads.(e) /. total

let edge_flags num_edges edges =
  let a = Array.make num_edges false in
  List.iter (fun e -> a.(e) <- true) edges;
  a

let passive_dot inst (sol : Passive.solution) =
  let g = inst.Instance.graph in
  let monitored = edge_flags (Graph.num_edges g) sol.Passive.monitors in
  Dot.to_string
    ~edge_attrs:(fun e ->
      let base =
        [
          ("label", Printf.sprintf "%.1f%%" (100.0 *. load_share inst e));
          ("penwidth", Printf.sprintf "%.2f" (0.5 +. (10.0 *. load_share inst e)));
        ]
      in
      if monitored.(e) then ("color", "red") :: ("style", "bold") :: base
      else base)
    g

let passive_table inst (sol : Passive.solution) =
  let g = inst.Instance.graph in
  let rows =
    List.map
      (fun e ->
        [
          string_of_int e;
          Graph.edge_name g e;
          Table.float_cell inst.Instance.loads.(e);
          Table.float_cell ~decimals:1 (100.0 *. load_share inst e);
        ])
      sol.Passive.monitors
  in
  Table.render ~header:[ "link"; "name"; "load"; "% of volume" ] rows
