(* Crash-safe solving tests: the checkpoint container (atomic replace,
   checksum, corruption detection), kill-at-a-random-wave + resume
   bit-identity on random models and on the paper's seed MIPs across
   jobs counts, cooperative preemption, the supervised worker domains,
   and the Prom serve loop's should_stop shutdown hook. *)

module Instance = Monpos.Instance
module Passive = Monpos.Passive
module Sampling = Monpos.Sampling
module Active = Monpos.Active
module Pop = Monpos_topo.Pop
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip
module Prng = Monpos_util.Prng
module Heap = Monpos_util.Heap
module Metrics = Monpos_obs.Metrics
module Chaos = Monpos_resilience.Chaos
module Ckpt = Monpos_resilience.Checkpoint
module Preempt = Monpos_resilience.Preempt
module Rerror = Monpos_resilience.Error

let check_float = Alcotest.(check (float 1e-12))

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

let tmp name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "monpos-test-%d-%s" (Unix.getpid ()) name)

let cleanup path = try Sys.remove path with Sys_error _ -> ()

let with_chaos seed f =
  let saved = Chaos.seed () in
  Chaos.set_seed (Some seed);
  Fun.protect ~finally:(fun () -> Chaos.set_seed saved) f

(* ---------- the generic container ---------- *)

let test_container_roundtrip () =
  let path = tmp "container.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let lines = [ "alpha 1 2 3"; ""; "omega -0x1.8p+1 infinity" ] in
  Ckpt.write ~path ~magic:"monpos-test" ~version:7 lines;
  let version, body = Ckpt.load ~path ~magic:"monpos-test" in
  Alcotest.(check int) "version" 7 version;
  Alcotest.(check (list string)) "body" lines body;
  Alcotest.(check bool) "no tmp file left" false
    (Sys.file_exists (path ^ ".tmp"))

let test_container_replaces_atomically () =
  let path = tmp "replace.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  Ckpt.write ~path ~magic:"monpos-test" ~version:1 [ "first" ];
  Ckpt.write ~path ~magic:"monpos-test" ~version:1 [ "second" ];
  let _, body = Ckpt.load ~path ~magic:"monpos-test" in
  Alcotest.(check (list string)) "latest write wins" [ "second" ] body

let expect_parse_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected a Parse_error")
  | exception Rerror.Error (Rerror.Parse_error _) -> ()

let expect_io_error what f =
  match f () with
  | _ -> Alcotest.fail (what ^ ": expected an Io_error")
  | exception Rerror.Error (Rerror.Io_error _) -> ()

let read_all path = In_channel.with_open_bin path In_channel.input_all

let write_all path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let test_container_detects_corruption () =
  let path = tmp "corrupt.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let lines = [ "state 42 17"; "inc none" ] in
  Ckpt.write ~path ~magic:"monpos-test" ~version:1 lines;
  let original = read_all path in
  (* flipped byte in the body: checksum mismatch *)
  let flipped = Bytes.of_string original in
  let i = String.index original '4' in
  Bytes.set flipped i '9';
  write_all path (Bytes.to_string flipped);
  expect_parse_error "byte flip" (fun () ->
      Ckpt.load ~path ~magic:"monpos-test");
  (* truncated before the trailer *)
  let no_trailer =
    String.concat "\n"
      (List.filteri
         (fun i _ -> i < 2)
         (String.split_on_char '\n' original))
  in
  write_all path (no_trailer ^ "\n");
  expect_parse_error "truncation" (fun () ->
      Ckpt.load ~path ~magic:"monpos-test");
  (* wrong magic *)
  write_all path original;
  expect_parse_error "magic" (fun () -> Ckpt.load ~path ~magic:"other-magic");
  (* missing file *)
  cleanup path;
  expect_io_error "missing file" (fun () ->
      Ckpt.load ~path ~magic:"monpos-test")

(* ---------- util round-trips the checkpoint format rests on ---------- *)

let test_heap_snapshot_restore () =
  let rng = Prng.create 55 in
  let h = Heap.create () in
  for i = 0 to 199 do
    (* coarse keys force ties, the case snapshot/restore must preserve *)
    Heap.push h (float_of_int (Prng.int rng 8)) i
  done;
  let keys, data = Heap.snapshot h in
  let h2 = Heap.create () in
  Heap.restore h2 keys data;
  let drain h =
    let rec go acc =
      match Heap.pop_min h with
      | None -> List.rev acc
      | Some kv -> go (kv :: acc)
    in
    go []
  in
  let a = drain h and b = drain h2 in
  Alcotest.(check int) "lengths" (List.length a) (List.length b);
  List.iter2
    (fun (ka, va) (kb, vb) ->
      check_float "key order" ka kb;
      Alcotest.(check int) "payload order (ties included)" va vb)
    a b

(* ---------- kill at a random wave + resume, random models ---------- *)

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

let opts ?(wave = 16) ?checkpoint ?(checkpoint_every = 60.0)
    ?(max_nodes = 200_000) jobs =
  {
    Mip.default_options with
    Mip.jobs;
    deterministic = true;
    wave;
    checkpoint;
    checkpoint_every;
    max_nodes;
  }

(* Interrupt a solve of [model] after [k] nodes (the checkpoint armed,
   every wave), then resume the final checkpoint to completion.

   The bit-identity contract covers interruptions at wave barriers —
   which is what a real SIGKILL leaves behind, because periodic
   checkpoints are only written there. A [max_nodes] cut stops the
   dispatch mid-wave, so to make every cut point a barrier these
   exact-identity drills run with [wave = 1]; the mid-wave case is
   covered separately by {!test_midwave_cut_same_optimum}. *)
let interrupted_then_resumed ~what ~path ~jobs_cut ~jobs_resume ~k model =
  let cut =
    Mip.solve
      ~options:(opts ~wave:1 ~checkpoint:path ~checkpoint_every:0.0
                  ~max_nodes:k jobs_cut)
      model
  in
  Alcotest.(check bool)
    (what ^ ": cut run stopped early")
    true
    (cut.Mip.nodes <= k && Sys.file_exists path);
  Mip.resume ~options:(opts ~checkpoint:path jobs_resume) path

let test_random_kill_resume_identity () =
  let rng = Prng.create 20260808 in
  let path = tmp "random.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  for trial = 1 to 6 do
    let model = random_model rng in
    let reference = Mip.solve ~options:(opts ~wave:1 1) model in
    if reference.Mip.nodes >= 2 then begin
      let k = 1 + Prng.int rng (reference.Mip.nodes - 1) in
      List.iter
        (fun (jobs_cut, jobs_resume) ->
          let what =
            Printf.sprintf "trial %d, cut at %d, jobs %d->%d" trial k jobs_cut
              jobs_resume
          in
          let resumed =
            interrupted_then_resumed ~what ~path ~jobs_cut ~jobs_resume ~k
              model
          in
          check_same_result what reference resumed)
        [ (1, 4); (4, 1) ]
    end
  done

let test_midwave_cut_same_optimum () =
  (* a [max_nodes] stop lands mid-wave, where the final checkpoint is
     still a complete, consistent frontier — but resuming it tiles the
     remaining tree into different waves than the uninterrupted run,
     so only the optimum (not the node trajectory) is comparable *)
  let rng = Prng.create 4711 in
  let path = tmp "midwave.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  for trial = 1 to 4 do
    let model = random_model rng in
    let reference = Mip.solve ~options:(opts 1) model in
    if reference.Mip.nodes >= 2 then begin
      let k = 1 + Prng.int rng (reference.Mip.nodes - 1) in
      let _cut =
        Mip.solve
          ~options:(opts ~checkpoint:path ~checkpoint_every:0.0 ~max_nodes:k 4)
          model
      in
      let resumed = Mip.resume ~options:(opts ~checkpoint:path 1) path in
      let what = Printf.sprintf "trial %d, mid-wave cut at %d" trial k in
      Alcotest.(check bool)
        (what ^ ": status")
        true
        (reference.Mip.status = resumed.Mip.status);
      check_float (what ^ ": objective") reference.Mip.objective
        resumed.Mip.objective;
      check_float (what ^ ": bound") reference.Mip.bound resumed.Mip.bound
    end
  done

let test_double_kill_resume_identity () =
  (* two crash/resume cycles: checkpoint of a resumed run is itself
     resumable, and the chain still lands on the reference bits *)
  let rng = Prng.create 616 in
  let path = tmp "double.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let model = random_model rng in
  let reference = Mip.solve ~options:(opts ~wave:1 1) model in
  if reference.Mip.nodes >= 4 then begin
    let k1 = reference.Mip.nodes / 3 and k2 = reference.Mip.nodes / 3 in
    let _cut1 =
      Mip.solve
        ~options:(opts ~wave:1 ~checkpoint:path ~checkpoint_every:0.0
                    ~max_nodes:k1 4)
        model
    in
    let _cut2 =
      Mip.resume
        ~options:(opts ~checkpoint:path ~checkpoint_every:0.0
                    ~max_nodes:(k1 + k2) 1)
        path
    in
    let final = Mip.resume ~options:(opts ~checkpoint:path 4) path in
    check_same_result "double kill" reference final
  end

(* ---------- the paper's seed MIPs, via the wave-0 checkpoint ----------

   The family solvers build their models internally, so to test
   checkpoint/resume on the real formulations we capture the model by
   preempting the solve before its first wave with the checkpoint
   armed: the final checkpoint then holds the untouched root state,
   and resuming it IS the uninterrupted solve — at the Mip level,
   where results can be compared bit-for-bit. *)

let wave0_checkpoint ~path solve =
  Preempt.request ();
  Fun.protect ~finally:Preempt.reset @@ fun () ->
  (match solve () with
  | (_ : int) -> ()
  | exception Rerror.Error _ ->
    (* a wave-0 stop has no incumbent; strict family entry points turn
       that No_solution into a typed error — the checkpoint is already
       on disk by then *)
    ());
  Alcotest.(check bool) "wave-0 checkpoint written" true (Sys.file_exists path)

let family_identity what ~path solve =
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  wave0_checkpoint ~path solve;
  let scratch = path ^ ".scratch" in
  Fun.protect ~finally:(fun () -> cleanup scratch) @@ fun () ->
  (* reference: the wave-0 state run to completion, checkpoints
     redirected so [path] stays intact for the other legs *)
  let reference = Mip.resume ~options:(opts ~checkpoint:scratch 1) path in
  if reference.Mip.nodes >= 2 then begin
    let rng = Prng.create (Hashtbl.hash what) in
    let k = 1 + Prng.int rng (reference.Mip.nodes - 1) in
    List.iter
      (fun (jobs_cut, jobs_resume) ->
        let leg =
          Printf.sprintf "%s, cut at %d, jobs %d->%d" what k jobs_cut
            jobs_resume
        in
        let _cut =
          Mip.resume
            ~options:(opts ~checkpoint:scratch ~checkpoint_every:0.0
                        ~max_nodes:k jobs_cut)
            path
        in
        let resumed =
          Mip.resume ~options:(opts ~checkpoint:scratch jobs_resume) scratch
        in
        check_same_result leg reference resumed)
      [ (1, 4); (4, 1) ]
  end;
  reference

let test_ppm_kill_resume_identity () =
  let pop = Pop.make_preset `Pop10 ~seed:3 in
  let inst = Instance.of_pop pop ~seed:(3 * 131) in
  let path = tmp "ppm.ckpt" in
  let reference =
    family_identity "ppm" ~path (fun () ->
        let sol =
          Passive.solve_mip ~k:0.9
            ~options:(opts ~wave:1 ~checkpoint:path 1)
            inst
        in
        List.length sol.Passive.monitors)
  in
  (* the resumed optimum is the family's: same device count as the
     uninterrupted family solve *)
  let direct = Passive.solve_mip ~k:0.9 ~options:(opts ~wave:1 1) inst in
  check_float "ppm objective = device count"
    (float_of_int (List.length direct.Passive.monitors))
    reference.Mip.objective

let test_ppme_kill_resume_identity () =
  let pop = Pop.make_preset `Pop10 ~seed:1 in
  let inst = Instance.of_pop pop ~seed:131 in
  let costs = Sampling.load_scaled_costs inst ~install:8.0 () in
  let pb = Sampling.make_problem ~k:0.9 ~costs inst in
  let path = tmp "ppme.ckpt" in
  ignore
    (family_identity "ppme" ~path (fun () ->
         let base = Sampling.default_milp_options in
         let sol =
           Sampling.solve_milp
             ~options:
               {
                 base with
                 Mip.deterministic = true;
                 wave = 1;
                 checkpoint = Some path;
               }
             pb
         in
         List.length sol.Sampling.installed))

let test_beacon_kill_resume_identity () =
  let pop = Pop.make_preset `Pop15 ~seed:1 in
  let routers = Array.of_list (Pop.routers pop) in
  Prng.shuffle (Prng.create 7) routers;
  let vb = List.sort compare (Array.to_list (Array.sub routers 0 10)) in
  let probes = Active.compute_probes ~targets:vb pop.Pop.graph ~candidates:vb in
  let path = tmp "beacon.ckpt" in
  ignore
    (family_identity "beacon" ~path (fun () ->
         let p =
           Beacon_oracle.place
             ~options:(opts ~wave:1 ~checkpoint:path 1)
             probes ~candidates:vb
         in
         List.length p.Active.beacons))

(* ---------- checkpoint-file failure modes at the Mip level ---------- *)

let mip_checkpoint_fixture path =
  let rng = Prng.create 99 in
  let model = random_model rng in
  let r = Mip.solve ~options:(opts ~checkpoint:path 1) model in
  if r.Mip.nodes < 2 then Alcotest.fail "fixture model solved at the root";
  let cut = (r.Mip.nodes / 2) + 1 in
  ignore
    (Mip.solve
       ~options:(opts ~checkpoint:path ~checkpoint_every:0.0 ~max_nodes:cut 1)
       model);
  r

let test_resume_version_mismatch () =
  let path = tmp "version.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (mip_checkpoint_fixture path);
  let text = read_all path in
  (* the header is outside the checksum, so a version change alone must
     be rejected by the version gate (line 1), not the corruption
     check: a future version, and version 1, whose opts record carried
     a kernel token and which also stored per-worker PRNG streams *)
  let nl = String.index text '\n' in
  let header = String.sub text 0 nl in
  List.iter
    (fun version ->
      let header =
        match String.rindex_opt header ' ' with
        | Some sp -> String.sub header 0 sp ^ " " ^ version
        | None -> Alcotest.fail "unexpected header shape"
      in
      write_all path (header ^ String.sub text nl (String.length text - nl));
      match Mip.resume path with
      | _ -> Alcotest.failf "version %s: expected a Parse_error" version
      | exception Rerror.Error (Rerror.Parse_error { line; msg; _ }) ->
        Alcotest.(check int) ("version " ^ version ^ " located") 1 line;
        Alcotest.(check string)
          ("version " ^ version ^ " message")
          (Printf.sprintf
             "unsupported checkpoint version %s (this build reads version 2)"
             version)
          msg)
    [ "99"; "1" ]

let test_resume_corrupt_and_missing () =
  let path = tmp "mipcorrupt.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (mip_checkpoint_fixture path);
  let text = read_all path in
  let lines = String.split_on_char '\n' text in
  let dropped =
    List.filteri (fun i _ -> i <> List.length lines / 2) lines
  in
  write_all path (String.concat "\n" dropped);
  expect_parse_error "dropped line" (fun () -> Mip.resume path);
  (* a well-sealed current-version file whose opts record still has
     version 1's kernel token is rejected at that record, body line 2 *)
  ignore (mip_checkpoint_fixture path);
  let version, body = Ckpt.load ~path ~magic:"monpos-mip-checkpoint" in
  let body =
    List.map
      (fun l ->
        match String.split_on_char ' ' l with
        | "opts" :: br :: gap :: itol :: heur :: warm :: rest ->
          String.concat " "
            ("opts" :: br :: gap :: itol :: heur :: warm :: "sparse" :: rest)
        | _ -> l)
      body
  in
  Ckpt.write ~path ~magic:"monpos-mip-checkpoint" ~version body;
  (match Mip.resume path with
  | _ -> Alcotest.fail "kernel token: expected a Parse_error"
  | exception Rerror.Error (Rerror.Parse_error { line; msg; _ }) ->
    Alcotest.(check int) "kernel token located" 3 line;
    Alcotest.(check string) "kernel token message" "bad opts record" msg);
  cleanup path;
  expect_io_error "missing checkpoint" (fun () -> Mip.resume path)

(* ---------- cooperative preemption ---------- *)

let test_preempt_stops_and_resumes () =
  let rng = Prng.create 313 in
  let model = random_model rng in
  let reference = Mip.solve ~options:(opts 1) model in
  let path = tmp "preempt.ckpt" in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  Preempt.request ();
  let stopped =
    Fun.protect ~finally:Preempt.reset (fun () ->
        Mip.solve ~options:(opts ~checkpoint:path 4) model)
  in
  Alcotest.(check bool) "preempted flag" true stopped.Mip.preempted;
  Alcotest.(check int) "stopped before the first wave" 0 stopped.Mip.nodes;
  Alcotest.(check bool) "final checkpoint written" true (Sys.file_exists path);
  let resumed = Mip.resume ~options:(opts 1) path in
  Alcotest.(check bool) "resumed run not preempted" false resumed.Mip.preempted;
  check_same_result "preempt + resume" reference resumed

(* ---------- supervised worker domains ---------- *)

let worker_failures () =
  Metrics.sum_counter
    (Metrics.snapshot Metrics.default)
    "mip.worker_failures"

let test_worker_death_supervised () =
  (* with chaos armed, the domain.die site kills the pool's first
     worker claim (slot 0 waits for it) and later ones with p = 0.02;
     supervision must requeue the dead slot's work and finish with a
     result identical to the untroubled jobs=1 solve. Trials run until
     at least one death was actually injected, so the test proves
     recovery, not luck. *)
  let rng = Prng.create 140586 in
  let deaths_seen = ref 0 in
  let trials = ref 0 in
  while !deaths_seen = 0 && !trials < 20 do
    incr trials;
    let model = random_model rng in
    let reference = Mip.solve ~options:(opts 1) model in
    let before = worker_failures () in
    let stressed =
      with_chaos (1000 + !trials) (fun () ->
          Mip.solve ~options:(opts 4) model)
    in
    deaths_seen := !deaths_seen + (worker_failures () - before);
    check_same_result
      (Printf.sprintf "trial %d survives worker death" !trials)
      reference stressed
  done;
  Alcotest.(check bool)
    (Printf.sprintf "at least one worker death injected in %d trials" !trials)
    true (!deaths_seen > 0)

let suite =
  [
    Alcotest.test_case "container round-trip" `Quick test_container_roundtrip;
    Alcotest.test_case "container atomic replace" `Quick
      test_container_replaces_atomically;
    Alcotest.test_case "container corruption detection" `Quick
      test_container_detects_corruption;
    Alcotest.test_case "heap snapshot/restore preserves ties" `Quick
      test_heap_snapshot_restore;
    Alcotest.test_case "random models: kill + resume identity" `Slow
      test_random_kill_resume_identity;
    Alcotest.test_case "double kill + resume identity" `Quick
      test_double_kill_resume_identity;
    Alcotest.test_case "mid-wave cut reaches the same optimum" `Quick
      test_midwave_cut_same_optimum;
    Alcotest.test_case "ppm: kill + resume identity" `Slow
      test_ppm_kill_resume_identity;
    Alcotest.test_case "ppme: kill + resume identity" `Slow
      test_ppme_kill_resume_identity;
    Alcotest.test_case "beacon: kill + resume identity" `Slow
      test_beacon_kill_resume_identity;
    Alcotest.test_case "resume rejects future version" `Quick
      test_resume_version_mismatch;
    Alcotest.test_case "resume rejects corruption, missing file" `Quick
      test_resume_corrupt_and_missing;
    Alcotest.test_case "preempt stops, resume completes" `Quick
      test_preempt_stops_and_resumes;
    Alcotest.test_case "worker death supervised" `Slow
      test_worker_death_supervised;
  ]
