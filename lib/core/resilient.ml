module Metrics = Monpos_obs.Metrics
module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Error = Monpos_resilience.Error
module Chaos = Monpos_resilience.Chaos
module Deadline = Monpos_resilience.Deadline
module Mip = Monpos_lp.Mip

(* labeled by the solver whose ladder descended/recovered; descents
   are rare, so per-event registry lookups cost nothing measurable *)
let m_fallbacks solver =
  Metrics.counter
    ~labels:[ ("solver", solver) ]
    Metrics.default "resilience.fallbacks"

let m_recoveries solver =
  Metrics.counter
    ~labels:[ ("solver", solver) ]
    Metrics.default "resilience.recoveries"

type descent = { from_rung : string; to_rung : string; reason : string }

type 'a outcome = {
  value : 'a;
  rung : string;
  bound : float;
  gap : float;
  descents : descent list;
}

let degraded o =
  let is_incumbent r =
    let suf = "_incumbent" in
    let lr = String.length r and ls = String.length suf in
    lr >= ls && String.sub r (lr - ls) ls = suf
  in
  o.descents <> [] || o.gap > 0.0 || is_incumbent o.rung

(* Each rung is (label, run); [run] returns (answered_rung, value,
   bound, gap) — the label names the rung in descent events, the
   answered name may refine it (e.g. "mip" answering as
   "mip_incumbent"). Rungs execute inside a chaos protect scope so
   scoped fault sites are armed; the terminal rung instead runs under
   {!Chaos.suppress} — it is the guaranteed answer, and disarming
   injection there mirrors how the simplex protects its own
   singular-basis recovery. An [Infeasible_model] error propagates
   from any rung: if the target is genuinely unreachable, no amount
   of degradation produces a feasible placement. *)
let run_ladder ~solver rungs =
  let sink = Trace.current () in
  let finish descents (rung, value, bound, gap) =
    (match descents with
    | [] -> ()
    | _ ->
      Metrics.incr (m_recoveries solver);
      if Trace.enabled sink then
        Trace.emit sink
          (Event.Recovery
             { stage = solver;
               detail =
                 Printf.sprintf "rung %s answered after %d descent(s)" rung
                   (List.length descents) }));
    { value; rung; bound; gap; descents = List.rev descents }
  in
  let rec go descents = function
    | [] -> Error.internal (solver ^ ": empty degradation ladder")
    | [ (_, run) ] -> finish descents (Chaos.suppress run)
    | (label, run) :: ((next_label, _) :: _ as rest) -> (
      match Chaos.protect run with
      | answer -> finish descents answer
      | exception Error.Error (Error.Infeasible_model _ as e) ->
        raise (Error.Error e)
      | exception Error.Error e ->
        let reason = Error.to_string e in
        Metrics.incr (m_fallbacks solver);
        if Trace.enabled sink then
          Trace.emit sink
            (Event.Ladder_descent
               { solver; from_rung = label; to_rung = next_label; reason });
        Monpos_obs.Flightrec.trigger ~reason:"ladder_descent";
        go ({ from_rung = label; to_rung = next_label; reason } :: descents)
          rest)
  in
  go [] rungs

let solve_ppm ?(k = 1.0) ?formulation ?options inst =
  (* One wall-clock window bounds the whole ladder: the MIP rung
     consumes [time_limit] through its own internal deadline, and the
     degraded LP rungs (bound certificate, randomized rounding) share
     the remainder of a 1.2x window — so a tiny budget descends all
     the way to the combinatorial greedy instead of hiding an
     unbounded LP solve behind the "degraded" label. When the MIP
     itself spends the whole budget, the window is already gone and
     the LP rungs hand over immediately (they check on entry, before
     paying for model construction). *)
  let time_limit =
    (Option.value options ~default:Mip.default_options).Mip.time_limit
  in
  let deadline = Deadline.of_budget (1.2 *. time_limit) in
  (* the LP relaxation of Linear program 2 certifies every degraded
     rung: device counts are integral, so its ceiling is a valid lower
     bound. Chaos or numerical trouble in the bound LP costs only the
     certificate, never the placement — and the relaxation is solved
     at most once across all rungs. *)
  let lp_lower =
    lazy
      (match Passive.lp_bound ~k ~deadline inst with
      | b -> ceil (b -. 1e-6)
      | exception _ -> Float.nan)
  in
  let certified (sol : Passive.solution) =
    let b = Lazy.force lp_lower in
    let gap =
      if Float.is_nan b || sol.Passive.count = 0 then Float.nan
      else
        max 0.0 (float_of_int sol.Passive.count -. b)
        /. float_of_int sol.Passive.count
    in
    (b, gap)
  in
  run_ladder ~solver:"ppm"
    [
      ( "mip",
        fun () ->
          let sol = Passive.solve_mip ~k ?formulation ?options inst in
          if sol.Passive.optimal then
            ("mip_optimal", sol, float_of_int sol.Passive.count, 0.0)
          else
            let b, gap = certified sol in
            ("mip_incumbent", sol, b, gap) );
      ( "lp_rounding",
        fun () ->
          let sol = Passive.randomized_rounding ~k ~deadline inst in
          let b, gap = certified sol in
          ("lp_rounding", sol, b, gap) );
      ( "greedy",
        fun () ->
          let sol = Passive.greedy ~k inst in
          let b, gap = certified sol in
          ("greedy", sol, b, gap) );
    ]

let solve_ppme ?options (pb : Sampling.problem) =
  (* the greedy cover on the flattened instance picks the installed
     set for the degraded rungs; pure combinatorics, no LP *)
  let greedy_installed () =
    (Passive.greedy ~k:pb.Sampling.k pb.Sampling.instance).Passive.monitors
  in
  run_ladder ~solver:"ppme"
    [
      ( "milp",
        fun () ->
          let sol = Sampling.solve_milp ?options pb in
          if sol.Sampling.optimal then
            ("milp", sol, sol.Sampling.total_cost, 0.0)
          else ("milp_incumbent", sol, Float.nan, Float.nan) );
      ( "reoptimize",
        fun () ->
          let installed = greedy_installed () in
          let sol = Sampling.reoptimize pb ~installed in
          ("reoptimize", sol, Float.nan, Float.nan) );
      ( "saturate",
        fun () ->
          let installed = greedy_installed () in
          let sol = Sampling.saturated pb ~installed in
          ("saturate", sol, Float.nan, Float.nan) );
    ]

let place_beacons probes ~candidates =
  run_ladder ~solver:"beacons"
    [
      ( "ilp",
        fun () ->
          let p = Active.place_ilp probes ~candidates in
          if p.Active.optimal then
            ("ilp", p, float_of_int (List.length p.Active.beacons), 0.0)
          else ("ilp_incumbent", p, Float.nan, Float.nan) );
      ( "greedy",
        fun () ->
          ("greedy", Active.place_greedy probes ~candidates, Float.nan,
           Float.nan) );
      ( "thiran",
        fun () ->
          ("thiran", Active.place_thiran probes ~candidates, Float.nan,
           Float.nan) );
    ]

let pp_outcome ppf o =
  let open Format in
  fprintf ppf "rung %s" o.rung;
  if o.gap > 0.0 && not (Float.is_nan o.gap) then
    fprintf ppf ", gap %.1f%%" (100.0 *. o.gap);
  if not (Float.is_nan o.bound) then fprintf ppf ", bound %g" o.bound;
  List.iter
    (fun d -> fprintf ppf "@.  descent %s -> %s: %s" d.from_rung d.to_rung d.reason)
    o.descents
