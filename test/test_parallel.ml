(* Parallel branch-and-bound tests: the deterministic mode's
   jobs-invariance contract (same incumbent, objective, bound, node
   count and gap for any worker-domain count) on random models and on
   the paper's seed MIPs, the chaos degradation ladder under parallel
   solves, the shared incumbent cell under a multi-domain hammer, and
   the wave pool's supervision driven by a fake task processor. *)

module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Active = Monpos.Active
module Resilient = Monpos.Resilient
module Pop = Monpos_topo.Pop
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Prng = Monpos_util.Prng
module Chaos = Monpos_resilience.Chaos
module Rerror = Monpos_resilience.Error
module Metrics = Monpos_obs.Metrics
module Wave_pool = Monpos_lp.Wave_pool

let jobs_list = [ 1; 2; 4 ]

let opts ?(wave = 16) jobs =
  { Mip.default_options with Mip.jobs; deterministic = true; wave }

let check_float = Alcotest.(check (float 1e-12))

(* exact-equality check over full results: the contract is "identical
   for every jobs value", not "within tolerance" *)
let check_same_result what (a : Mip.result) (b : Mip.result) =
  Alcotest.(check bool) (what ^ ": status") true (a.Mip.status = b.Mip.status);
  check_float (what ^ ": objective") a.Mip.objective b.Mip.objective;
  check_float (what ^ ": bound") a.Mip.bound b.Mip.bound;
  Alcotest.(check int) (what ^ ": nodes") a.Mip.nodes b.Mip.nodes;
  check_float (what ^ ": gap") a.Mip.gap b.Mip.gap;
  match (a.Mip.solution, b.Mip.solution) with
  | None, None -> ()
  | Some xa, Some xb ->
    Alcotest.(check (array (float 1e-12))) (what ^ ": solution") xa xb
  | _ -> Alcotest.fail (what ^ ": one run has a solution, the other not")

(* random 0-1 programs in the style of the brute-force mip tests:
   enough structure to branch a few dozen times *)
let random_model rng =
  let n = 8 + Prng.int rng 4 in
  let m = Model.create Model.Minimize in
  let vars =
    List.init n (fun i ->
        let obj = 1.0 +. Prng.float rng 9.0 in
        Model.add_var m ~name:(Printf.sprintf "x%d" i) ~obj Model.Binary)
  in
  let nconstr = 4 + Prng.int rng 3 in
  for c = 0 to nconstr - 1 do
    let terms =
      List.filter_map
        (fun v ->
          if Prng.bool rng then Some (1.0 +. Prng.float rng 4.0, v) else None)
        vars
    in
    if terms <> [] then begin
      let slack = 1.0 +. Prng.float rng (float_of_int (List.length terms)) in
      Model.add_constr m ~name:(Printf.sprintf "c%d" c) terms Model.Ge slack
    end
  done;
  m

let test_random_models_jobs_invariant () =
  let rng = Prng.create 4242 in
  for trial = 1 to 8 do
    let m = random_model rng in
    let results = List.map (fun jobs -> Mip.solve ~options:(opts jobs) m) jobs_list in
    match results with
    | reference :: rest ->
      List.iteri
        (fun i r ->
          check_same_result
            (Printf.sprintf "trial %d, jobs %d" trial (List.nth jobs_list (i + 1)))
            reference r)
        rest
    | [] -> ()
  done

let test_wave_size_changes_tree_not_correctness () =
  (* the wave size may change which tree is explored, but for a fixed
     wave the result is identical across jobs, and every wave agrees
     on the optimum *)
  let rng = Prng.create 777 in
  let m = random_model rng in
  let base = Mip.solve ~options:(opts 1) m in
  List.iter
    (fun wave ->
      let a = Mip.solve ~options:(opts ~wave 1) m in
      let b = Mip.solve ~options:(opts ~wave 4) m in
      check_same_result (Printf.sprintf "wave %d" wave) a b;
      check_float (Printf.sprintf "wave %d optimum" wave) base.Mip.objective
        a.Mip.objective)
    [ 1; 4; 64 ]

(* ---------- the seed MIPs of the paper ---------- *)

(* Mip's [mip.nodes] and the pool's per-slot split are two families:
   each sums to the solve's node count, so a Prometheus sum (or
   /statusz "nodes") over [mip.nodes] counts every node once *)
let test_node_families_sum_once () =
  let rng = Prng.create 7177 in
  let m = random_model rng in
  let sum name = Metrics.sum_counter (Metrics.snapshot Metrics.default) name in
  List.iter
    (fun jobs ->
      let nodes0 = sum "mip.nodes" and slots0 = sum "mip.slot_nodes" in
      let r = Mip.solve ~options:(opts ~wave:4 jobs) m in
      Alcotest.(check bool)
        (Printf.sprintf "jobs %d branches" jobs) true (r.Mip.nodes > 1);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: mip.nodes family sum" jobs)
        r.Mip.nodes
        (sum "mip.nodes" - nodes0);
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: mip.slot_nodes family sum" jobs)
        r.Mip.nodes
        (sum "mip.slot_nodes" - slots0))
    [ 2; 4 ]

let test_ppm_jobs_invariant () =
  let pop = Pop.make_preset `Pop10 ~seed:3 in
  let inst = Instance.of_pop pop ~seed:(3 * 131) in
  let runs =
    List.map
      (fun jobs -> Passive.solve_mip ~k:0.9 ~options:(opts jobs) inst)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Passive.solution) ->
        Alcotest.(check int) "devices" r1.Passive.count r.Passive.count;
        Alcotest.(check (list int)) "monitors" r1.Passive.monitors
          r.Passive.monitors;
        check_float "coverage" r1.Passive.fraction r.Passive.fraction;
        Alcotest.(check bool) "proved" r1.Passive.optimal r.Passive.optimal)
      rest
  | [] -> ()

let test_ppme_jobs_invariant () =
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let costs = Sampling.load_scaled_costs inst ~install:8.0 () in
  let pb = Sampling.make_problem ~k:0.9 ~costs inst in
  let runs =
    List.map
      (fun jobs ->
        let options =
          { Sampling.default_milp_options with Mip.jobs; deterministic = true }
        in
        Sampling.solve_milp ~options pb)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Sampling.solution) ->
        Alcotest.(check (list int)) "installed" r1.Sampling.installed
          r.Sampling.installed;
        check_float "install cost" r1.Sampling.install_cost
          r.Sampling.install_cost;
        check_float "exploit cost" r1.Sampling.exploit_cost
          r.Sampling.exploit_cost;
        check_float "coverage" r1.Sampling.fraction r.Sampling.fraction)
      rest
  | [] -> ()

let test_beacon_jobs_invariant () =
  let pop = Pop.make_preset `Pop15 ~seed:1 in
  let routers = Array.of_list (Pop.routers pop) in
  let rng = Prng.create 7 in
  Prng.shuffle rng routers;
  let vb = List.sort compare (Array.to_list (Array.sub routers 0 10)) in
  let probes = Active.compute_probes ~targets:vb pop.Pop.graph ~candidates:vb in
  let runs =
    List.map
      (fun jobs ->
        Beacon_oracle.place ~options:(opts jobs) probes ~candidates:vb)
      jobs_list
  in
  match runs with
  | r1 :: rest ->
    List.iter
      (fun (r : Active.placement) ->
        Alcotest.(check (list int)) "beacons" r1.Active.beacons r.Active.beacons)
      rest
  | [] -> ()

(* ---------- chaos ladder under parallel solves ---------- *)

let with_chaos seed f =
  let saved = Chaos.seed () in
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed saved) f

let test_chaos_ladder_jobs_invariant () =
  (* the degradation ladder must land on the same rung with the same
     answer whatever the domain count: deterministic mode pins the
     chaos draws that feed the solver (deadline compression at solve
     entry, per-node cost corruption at merge) to scheduling-
     independent points *)
  let pop = Pop.make_preset `Pop10 ~seed:2 in
  let inst = Instance.of_pop pop ~seed:(2 * 131) in
  let outcomes =
    List.map
      (fun jobs ->
        with_chaos 1305 (fun () ->
            let o = Resilient.solve_ppm ~k:1.0 ~options:(opts jobs) inst in
            (o.Resilient.rung, o.Resilient.value.Passive.monitors)))
      jobs_list
  in
  match outcomes with
  | (rung1, mon1) :: rest ->
    List.iter
      (fun (rung, mon) ->
        Alcotest.(check string) "rung" rung1 rung;
        Alcotest.(check (list int)) "monitors" mon1 mon)
      rest
  | [] -> ()

(* ---------- the shared incumbent cell ---------- *)

let test_incumbent_stress () =
  (* 8 domains race to publish pre-drawn candidates; whatever the
     interleaving, the cell must converge to the global minimum under
     the exact (score, key) order — the property the deterministic
     mode's incumbent filtering rests on *)
  let domains = 8 in
  let per_domain = 10_000 in
  let batches =
    Array.init domains (fun d ->
        let rng = Prng.create (9090 + d) in
        Array.init per_domain (fun i ->
            {
              Mip.Incumbent.score = float_of_int (Prng.int rng 500);
              key = (Prng.int rng 1000, i land 1);
              x = [| float_of_int i |];
            }))
  in
  let expected =
    Array.fold_left
      (fun acc batch ->
        Array.fold_left
          (fun acc c ->
            match acc with
            | None -> Some c
            | Some best ->
              if Mip.Incumbent.better c best then Some c else Some best)
          acc batch)
      None batches
  in
  let cell = Mip.Incumbent.create () in
  let workers =
    Array.map
      (fun batch ->
        Domain.spawn (fun () ->
            Array.iter
              (fun c -> ignore (Mip.Incumbent.publish cell c))
              batch))
      batches
  in
  Array.iter Domain.join workers;
  match (Mip.Incumbent.get cell, expected) with
  | Some got, Some want ->
    check_float "minimum score" want.Mip.Incumbent.score
      got.Mip.Incumbent.score;
    Alcotest.(check (pair int int)) "minimum key" want.Mip.Incumbent.key
      got.Mip.Incumbent.key
  | None, _ -> Alcotest.fail "cell empty after publishes"
  | _, None -> Alcotest.fail "no candidates drawn"

(* ---------- the wave pool under a fake process ---------- *)

(* Each case scripts the failures itself, so the chaos lottery (whose
   [domain.die] site would add deaths of its own) is disarmed for the
   pool's lifetime, and slots are made to meet by holding one of them
   inside [process] until another has claimed, so the scripted
   failures land on the slots each case names. *)
let with_pool ~jobs process f =
  let saved = Chaos.seed () in
  Chaos.set_seed None;
  let pool = Wave_pool.create ~jobs ~process ~sink:Monpos_obs.Trace.null in
  Fun.protect
    ~finally:(fun () ->
      Wave_pool.shutdown pool;
      Chaos.set_seed saved)
    (fun () -> f pool)

let worker_failures () =
  Metrics.sum_counter
    (Metrics.snapshot Metrics.default)
    "mip.worker_failures"

(* wait (sleeping, not spinning: the box may have fewer cores than
   slots) until [cond] holds; a timeout fails the test instead of
   letting it hang *)
let hold what cond =
  let t0 = Unix.gettimeofday () in
  while not (cond ()) do
    if Unix.gettimeofday () -. t0 > 30.0 then
      Alcotest.failf "timed out waiting until %s" what;
    Unix.sleepf 0.001
  done

let test_pool_supervises_death () =
  let n = 16 in
  let completed = Array.init n (fun _ -> Atomic.make 0) in
  let worker_claimed = Atomic.make false in
  let slot1_fresh = Atomic.make true in
  let process w i =
    if w > 0 then Atomic.set worker_claimed true;
    if w = 1 && Atomic.exchange slot1_fresh false then
      failwith "slot 1 dies on its first claim";
    if w = 0 then hold "a worker claims" (fun () -> Atomic.get worker_claimed);
    Atomic.incr completed.(i)
  in
  with_pool ~jobs:2 process @@ fun pool ->
  let before = worker_failures () in
  Wave_pool.run pool (List.init n Fun.id);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d completed once" i) 1
        (Atomic.get c))
    completed;
  Alcotest.(check int) "one supervised death" (before + 1) (worker_failures ());
  (* slot 1 stays dead: slot 0 alone finishes the next wave *)
  Wave_pool.run pool (List.init n Fun.id);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d completed twice" i) 2
        (Atomic.get c))
    completed;
  Alcotest.(check int) "no further death" (before + 1) (worker_failures ())

let expect_raise what f check =
  match f () with
  | () -> Alcotest.failf "%s: run returned instead of raising" what
  | exception e -> check e

let test_pool_propagates () =
  (* a failure on slot 0 propagates: held workers make sure slot 0
     claims at least one task *)
  let slot0_claimed = Atomic.make false in
  let process w _ =
    if w = 0 then begin
      Atomic.set slot0_claimed true;
      failwith "slot 0 fails"
    end
    else hold "slot 0 claims" (fun () -> Atomic.get slot0_claimed)
  in
  let before = worker_failures () in
  with_pool ~jobs:2 process (fun pool ->
      expect_raise "slot 0"
        (fun () -> Wave_pool.run pool [ 0; 1; 2; 3 ])
        (function
          | Failure m ->
            Alcotest.(check string) "slot 0 failure" "slot 0 fails" m
          | e -> raise e));
  Alcotest.(check int) "slot 0 is not supervised" before (worker_failures ());
  (* a typed solver error on a worker propagates *)
  let worker_claimed = Atomic.make false in
  let process w _ =
    if w > 0 then begin
      Atomic.set worker_claimed true;
      Rerror.internal "typed failure"
    end
    else hold "a worker claims" (fun () -> Atomic.get worker_claimed)
  in
  with_pool ~jobs:2 process (fun pool ->
      expect_raise "typed error"
        (fun () -> Wave_pool.run pool [ 0; 1; 2; 3 ])
        (function Rerror.Error (Rerror.Internal _) -> () | e -> raise e));
  Alcotest.(check int) "typed errors are not supervised" before
    (worker_failures ());
  (* a task that kills every worker slot it lands on: the first two
     failures are supervised deaths, the third propagates. Slot 0 holds
     its own task until then, so all three attempts land on workers. *)
  let attempts = Atomic.make 0 in
  let process w _ =
    if w > 0 then begin
      Atomic.incr attempts;
      failwith "the task's own bug"
    end
    else hold "three attempts" (fun () -> Atomic.get attempts >= 3)
  in
  with_pool ~jobs:4 process (fun pool ->
      expect_raise "third failure"
        (fun () -> Wave_pool.run pool [ 0; 1 ])
        (function
          | Failure m ->
            Alcotest.(check string) "task failure" "the task's own bug" m
          | e -> raise e));
  Alcotest.(check int) "three attempts, no fourth" 3 (Atomic.get attempts);
  Alcotest.(check int) "two supervised deaths" (before + 2) (worker_failures ())

let suite =
  [
    Alcotest.test_case "random models jobs-invariant" `Quick
      test_random_models_jobs_invariant;
    Alcotest.test_case "wave size orthogonal to jobs" `Quick
      test_wave_size_changes_tree_not_correctness;
    Alcotest.test_case "node families sum once" `Quick
      test_node_families_sum_once;
    Alcotest.test_case "ppm jobs-invariant" `Quick test_ppm_jobs_invariant;
    Alcotest.test_case "ppme jobs-invariant" `Quick test_ppme_jobs_invariant;
    Alcotest.test_case "beacon ilp jobs-invariant" `Quick
      test_beacon_jobs_invariant;
    Alcotest.test_case "chaos ladder jobs-invariant" `Quick
      test_chaos_ladder_jobs_invariant;
    Alcotest.test_case "incumbent cell 8-domain stress" `Quick
      test_incumbent_stress;
    Alcotest.test_case "wave pool supervises a worker death" `Quick
      test_pool_supervises_death;
    Alcotest.test_case "wave pool propagates unsupervised failures"
      `Quick test_pool_propagates;
  ]
