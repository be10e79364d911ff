(* Reference forms of the §6 beacon placements, outside [Cover].

   [place] is the beacon ILP as a 0-1 program for [Mip]: one binary y_c
   per candidate, minimise Σ y_c subject to y_φu + y_φv >= 1 per probe
   (terms only for extremities in the candidate set).
   [Active.place_ilp] answers the same program with the set-cover
   branch and bound; this formulation is its differential oracle, and a
   small real-world model for the Mip warm-start, jobs-invariance and
   checkpoint tests.

   [greedy] is the max-coverage greedy written directly over probes,
   the oracle for [Active.place_greedy], which runs [Cover.greedy]. *)

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

let probes_covering probes v =
  List.filter
    (fun (p : Active.probe) -> p.Active.endpoint_a = v || p.Active.endpoint_b = v)
    probes

(* Walk [candidates] in the given order; a later candidate must send
   strictly more unsent probes to displace the best so far. *)
let greedy probes ~candidates =
  let covered = Hashtbl.create 64 in
  let is_covered (p : Active.probe) =
    Hashtbl.mem covered (p.Active.endpoint_a, p.Active.endpoint_b)
  in
  let total = List.length probes in
  let ncovered = ref 0 in
  let beacons = ref [] in
  while !ncovered < total do
    let best, best_gain =
      List.fold_left
        (fun (bc, bg) c ->
          let gx =
            List.length
              (List.filter (fun p -> not (is_covered p)) (probes_covering probes c))
          in
          if gx > bg then (Some c, gx) else (bc, bg))
        (None, 0) candidates
    in
    match best with
    | Some c when best_gain > 0 ->
      beacons := c :: !beacons;
      List.iter
        (fun (p : Active.probe) ->
          if not (is_covered p) then begin
            Hashtbl.replace covered (p.Active.endpoint_a, p.Active.endpoint_b) ();
            incr ncovered
          end)
        (probes_covering probes c)
    | _ ->
      Monpos_resilience.Error.infeasible
        "Beacon_oracle.greedy: some probe has no candidate extremity"
  done;
  {
    Active.beacons = List.sort_uniq compare !beacons;
    optimal = false;
    method_name = "greedy";
  }
