module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics

let m_runs = lazy (Metrics.counter Metrics.default "presolve.runs")

let m_rows = lazy (Metrics.counter Metrics.default "presolve.rows_dropped")

let m_bounds =
  lazy (Metrics.counter Metrics.default "presolve.bounds_tightened")

type info = {
  rows_dropped : int;
  bounds_tightened : int;
  fixed_vars : int;
  infeasible : bool;
}

let tol = 1e-9

(* Row activity bounds given current variable bounds. *)
let activity_bounds lb ub terms =
  List.fold_left
    (fun (lo, hi) (c, v) ->
      if c >= 0.0 then (lo +. (c *. lb.(v)), hi +. (c *. ub.(v)))
      else (lo +. (c *. ub.(v)), hi +. (c *. lb.(v))))
    (0.0, 0.0) terms

module Deadline = Monpos_resilience.Deadline

let reduce ?(deadline = Deadline.none) model =
  let n = Model.num_vars model in
  (* Polled between passes and probes: reductions applied before the
     budget runs out stay exact, so expiry just means "stop reducing
     here and hand the model over as-is". *)
  let out_of_time () = Deadline.expired deadline in
  let lb = Array.init n (fun v -> Model.var_lb model (Model.var_of_index model v)) in
  let ub = Array.init n (fun v -> Model.var_ub model (Model.var_of_index model v)) in
  let kind = Array.init n (fun v -> Model.var_kind model (Model.var_of_index model v)) in
  let rows = ref [] in
  Model.iter_constrs model (fun i terms sense rhs ->
      ignore i;
      rows := (terms, sense, rhs) :: !rows);
  let rows = Array.of_list (List.rev !rows) in
  let alive = Array.make (Array.length rows) true in
  let rows_dropped = ref 0 in
  let bounds_tightened = ref 0 in
  let infeasible = ref false in
  (* integer bounds round inward *)
  let rounded_bounds v new_lb new_ub =
    match kind.(v) with
    | Model.Continuous -> (new_lb, new_ub)
    | Model.Integer | Model.Binary ->
      ( (if new_lb = neg_infinity then new_lb else Float.ceil (new_lb -. tol)),
        if new_ub = infinity then new_ub else Float.floor (new_ub +. tol) )
  in
  (* tighten a variable's bounds in the committed arrays *)
  let tighten v new_lb new_ub =
    let new_lb, new_ub = rounded_bounds v new_lb new_ub in
    if new_lb > lb.(v) +. tol then begin
      lb.(v) <- new_lb;
      incr bounds_tightened
    end;
    if new_ub < ub.(v) -. tol then begin
      ub.(v) <- new_ub;
      incr bounds_tightened
    end;
    if lb.(v) > ub.(v) +. tol then infeasible := true
  in
  (* Activity-based propagation of one multi-term row under the given
     bound arrays. Calls [tighten] for every implied tighter bound and
     returns [true] when the activity interval proves the row
     unsatisfiable. Shared between the committed presolve passes and
     the what-if probing trials below. *)
  let propagate_row lb ub tighten terms sense rhs =
    let lo, hi = activity_bounds lb ub terms in
    let impossible =
      match sense with
      | Model.Le -> lo > rhs +. tol
      | Model.Ge -> hi < rhs -. tol
      | Model.Eq -> lo > rhs +. tol || hi < rhs -. tol
    in
    if impossible then true
    else begin
      (* for <= rows, each variable's contribution is bounded by rhs
         minus the minimum activity of the others *)
      let tighten_from (rhs', sgn) =
        List.iter
          (fun (c, v) ->
            let c = sgn *. c in
            let lo_others =
              List.fold_left
                (fun acc (c', v') ->
                  if v' = v then acc
                  else begin
                    let c' = sgn *. c' in
                    if c' >= 0.0 then acc +. (c' *. lb.(v'))
                    else acc +. (c' *. ub.(v'))
                  end)
                0.0 terms
            in
            let room = rhs' -. lo_others in
            if c > tol then begin
              if room /. c < ub.(v) -. tol then
                tighten v neg_infinity (room /. c)
            end
            else if c < -.tol then
              if room /. c > lb.(v) +. tol then tighten v (room /. c) infinity)
          terms
      in
      (match sense with
      | Model.Le -> tighten_from (rhs, 1.0)
      | Model.Ge -> tighten_from (-.rhs, -1.0)
      | Model.Eq ->
        tighten_from (rhs, 1.0);
        tighten_from (-.rhs, -1.0));
      false
    end
  in
  let pass () =
    let changed = ref false in
    let tightened_before = !bounds_tightened in
    Array.iteri
      (fun i (terms, sense, rhs) ->
        if alive.(i) && not !infeasible then begin
          match terms with
          | [] ->
            (* empty row: trivially satisfied or infeasible *)
            let ok =
              match sense with
              | Model.Le -> 0.0 <= rhs +. tol
              | Model.Ge -> 0.0 >= rhs -. tol
              | Model.Eq -> abs_float rhs <= tol
            in
            if not ok then infeasible := true;
            alive.(i) <- false;
            incr rows_dropped;
            changed := true
          | [ (c, v) ] ->
            (* singleton row becomes a bound *)
            let bound = rhs /. c in
            (match (sense, c > 0.0) with
            | Model.Le, true | Model.Ge, false -> tighten v neg_infinity bound
            | Model.Ge, true | Model.Le, false -> tighten v bound infinity
            | Model.Eq, _ -> tighten v bound bound);
            alive.(i) <- false;
            incr rows_dropped;
            changed := true
          | _ ->
            (* redundancy / infeasibility by activity bounds *)
            let lo, hi = activity_bounds lb ub terms in
            let redundant =
              match sense with
              | Model.Le -> hi <= rhs +. tol
              | Model.Ge -> lo >= rhs -. tol
              | Model.Eq -> false
            in
            if redundant then begin
              alive.(i) <- false;
              incr rows_dropped;
              changed := true
            end
            else if propagate_row lb ub tighten terms sense rhs then
              infeasible := true
        end)
      rows;
    (* a tightened bound can unlock further reductions, so it counts
       as progress for the fixed-point iteration just like a dropped
       row does *)
    !changed || !bounds_tightened > tightened_before
  in
  let fixed_point () =
    let passes = ref 0 in
    while pass () && !passes < 10 && (not !infeasible) && not (out_of_time ())
    do
      incr passes
    done
  in
  fixed_point ();
  (* Probing on the 0–1 device variables: tentatively fix each still
     free binary to 0 and to 1 and propagate the row activities under
     the trial bounds. When one side proves infeasible the variable is
     fixed the other way for good — on the paper's covering
     formulations this cascades through rows whose only remaining
     support is a single device. Trial tightenings touch copies of the
     bound arrays, never the committed ones. *)
  let binaries =
    List.filter
      (fun v -> kind.(v) = Model.Binary)
      (List.init n (fun v -> v))
  in
  if
    (not !infeasible) && binaries <> []
    && List.length binaries <= 512
    && not (out_of_time ())
  then begin
    let probe_infeasible v value =
      let plb = Array.copy lb and pub = Array.copy ub in
      plb.(v) <- value;
      pub.(v) <- value;
      let bad = ref false in
      let tighten_trial w new_lb new_ub =
        let new_lb, new_ub = rounded_bounds w new_lb new_ub in
        if new_lb > plb.(w) +. tol then plb.(w) <- new_lb;
        if new_ub < pub.(w) -. tol then pub.(w) <- new_ub;
        if plb.(w) > pub.(w) +. tol then bad := true
      in
      let sweeps = ref 0 in
      while (not !bad) && !sweeps < 3 do
        Array.iteri
          (fun i (terms, sense, rhs) ->
            if alive.(i) && not !bad then
              match terms with
              | [] | [ _ ] -> ()
              | _ ->
                if propagate_row plb pub tighten_trial terms sense rhs then
                  bad := true)
          rows;
        incr sweeps
      done;
      !bad
    in
    let rounds = ref 0 in
    let progress = ref true in
    while !progress && !rounds < 3 && (not !infeasible) && not (out_of_time ())
    do
      progress := false;
      List.iter
        (fun v ->
          if (not !infeasible) && ub.(v) -. lb.(v) > tol && not (out_of_time ())
          then
            if probe_infeasible v 0.0 then begin
              (* v = 0 kills the model, so v = 1 in every solution *)
              tighten v 1.0 infinity;
              progress := true
            end
            else if probe_infeasible v 1.0 then begin
              tighten v neg_infinity 0.0;
              progress := true
            end)
        binaries;
      (* fixings feed the ordinary reductions, and vice versa *)
      if !progress then fixed_point ();
      incr rounds
    done
  end;
  (* rebuild *)
  let reduced = Model.create ~name:(Model.name model ^ "-presolved")
      (Model.direction model)
  in
  let fixed_vars = ref 0 in
  for v = 0 to n - 1 do
    let lb_v = lb.(v) and ub_v = ub.(v) in
    let lb_v, ub_v =
      if lb_v > ub_v then
        (* crossed bounds mean the model is infeasible (already
           flagged); collapse to a point the variable kind can
           represent so the rebuilt model stays well-formed — a
           binary whose lb was tightened past 1 must not reach
           [Model.add_var] with lb > 1 *)
        let p =
          match kind.(v) with
          | Model.Binary -> min 1.0 (max 0.0 lb_v)
          | Model.Continuous | Model.Integer -> lb_v
        in
        (p, p)
      else (lb_v, ub_v)
    in
    if abs_float (ub_v -. lb_v) < tol then incr fixed_vars;
    ignore
      (Model.add_var reduced
         ~name:(Model.var_name model (Model.var_of_index model v))
         ~lb:lb_v ~ub:ub_v
         ~obj:(Model.var_obj model (Model.var_of_index model v))
         kind.(v))
  done;
  Array.iteri
    (fun i (terms, sense, rhs) ->
      if alive.(i) then
        Model.add_constr reduced
          (List.map (fun (c, v) -> (c, Model.var_of_index reduced v)) terms)
          sense rhs)
    rows;
  Metrics.incr (Lazy.force m_runs);
  Metrics.add (Lazy.force m_rows) !rows_dropped;
  Metrics.add (Lazy.force m_bounds) !bounds_tightened;
  let sink = Trace.current () in
  if Trace.enabled sink then
    Trace.emit sink
      (Event.Presolve_reduction
         { rows_dropped = !rows_dropped; bounds_tightened = !bounds_tightened;
           fixed_vars = !fixed_vars });
  ( reduced,
    {
      rows_dropped = !rows_dropped;
      bounds_tightened = !bounds_tightened;
      fixed_vars = !fixed_vars;
      infeasible = !infeasible;
    } )

let restore ~original solution =
  ignore original;
  solution
