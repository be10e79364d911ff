(* The §6 beacon ILP as a 0-1 program for [Mip]: one binary y_c per
   candidate, minimise Σ y_c subject to y_φu + y_φv >= 1 per probe
   (terms only for extremities in the candidate set).

   [Active.place_ilp] answers the same program with the set-cover
   branch and bound; this formulation is its differential oracle, and a
   small real-world model for the Mip warm-start, jobs-invariance and
   checkpoint tests. *)

module Active = Monpos.Active
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip

let place ?options probes ~candidates =
  let m = Model.create Model.Minimize ~name:"beacons" in
  let y = Hashtbl.create 16 in
  List.iter
    (fun c ->
      Hashtbl.replace y c
        (Model.add_var m ~name:(Printf.sprintf "y_%d" c) ~obj:1.0 Model.Binary))
    (List.sort_uniq compare candidates);
  List.iter
    (fun (p : Active.probe) ->
      let terms =
        List.filter_map
          (fun v -> Option.map (fun yv -> (1.0, yv)) (Hashtbl.find_opt y v))
          (List.sort_uniq compare [ p.Active.endpoint_a; p.Active.endpoint_b ])
      in
      if terms = [] then
        Monpos_resilience.Error.infeasible
          "Beacon_oracle.place: probe with no candidate extremity"
      else Model.add_constr m terms Model.Ge 1.0)
    probes;
  let x, optimal = Mip.solve_or_fail ?options ~stage:"Beacon_oracle.place" m in
  let beacons =
    Hashtbl.fold
      (fun c v acc -> if x.(Model.var_index v) > 0.5 then c :: acc else acc)
      y []
  in
  {
    Active.beacons = List.sort compare beacons;
    optimal;
    method_name = "ilp-mip";
  }
