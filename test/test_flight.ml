(* Flight recorder + adaptive trace sampler.

   The recorder tests drive Flightrec.record with controlled
   timestamps (the sink path ends in [record]), so dump bodies are
   fully deterministic and can be compared byte-for-byte; the
   multi-domain tests spawn real domains so ring registration and the
   timestamp merge are exercised across domain-local rings. The
   sampler tests check the decide contract directly: determinism,
   per-class independence, and the sampled_of weights rescaling back
   to the true event count. *)

module Ring = Monpos_obs.Ring
module Flightrec = Monpos_obs.Flightrec
module Sampler = Monpos_obs.Sampler
module Trace = Monpos_obs.Trace
module Reader = Monpos_obs.Trace_reader
module Converge = Monpos_obs.Converge
module Json = Monpos_obs.Json

(* ------------------------------------------------------------------ *)
(* ring *)

let test_ring_ordering () =
  Alcotest.check_raises "capacity must be positive"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0));
  let r = Ring.create 4 in
  Alcotest.(check int) "empty length" 0 (Ring.length r);
  Alcotest.(check (list int)) "empty list" [] (Ring.to_list r);
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "before wrap, oldest first" [ 1; 2; 3 ]
    (Ring.to_list r);
  List.iter (Ring.push r) [ 4; 5; 6 ];
  Alcotest.(check int) "length capped" 4 (Ring.length r);
  Alcotest.(check (list int)) "retains the most recent, oldest first"
    [ 3; 4; 5; 6 ] (Ring.to_list r);
  Alcotest.(check int) "pushed counts everything" 6 (Ring.pushed r);
  Alcotest.(check int) "dropped = pushed - retained" 2 (Ring.dropped r);
  Ring.clear r;
  Alcotest.(check int) "clear empties" 0 (Ring.length r);
  Alcotest.(check int) "clear resets the drop count" 0 (Ring.dropped r);
  Ring.push r 7;
  Alcotest.(check (list int)) "usable after clear" [ 7 ] (Ring.to_list r)

(* ------------------------------------------------------------------ *)
(* recorder *)

(* [record] stores fields verbatim (the domain stamp is the emit
   path's job), so the schedule carries explicit logical domain ids —
   deterministic where real domain ids vary between spawns *)
let bb_fields ?(dom = 0) node =
  [
    ("solver", Json.String "mip");
    ("node", Json.Int node);
    ("depth", Json.Int 1);
    ("bound", Json.Float 3.0);
    ("domain", Json.Int dom);
  ]

(* a fixed manifest: a captured one carries a fresh run id *)
let manifest ?jobs run_id =
  {
    Monpos_obs.Runinfo.run_id = run_id;
    git_rev = None;
    ocaml_version = "5.1.1";
    hostname = "test";
    chaos_seed = None;
    jobs;
    scheduler = None;
    argv = [];
  }

(* one recorder fed the same deterministic three-domain schedule:
   [main] records as logical domain 0, two spawned domains interleave
   their timestamps with it *)
let feed_schedule t =
  Flightrec.record t ~ts:1.0 ~ev:"bb_node" (bb_fields 1);
  Flightrec.record t ~ts:5.0 ~ev:"bb_node" (bb_fields 5);
  let worker dom lo =
    Domain.spawn (fun () ->
        Flightrec.record t ~ts:lo ~ev:"bb_node"
          (bb_fields ~dom (int_of_float lo));
        Flightrec.record t ~ts:(lo +. 4.0) ~ev:"bb_node"
          (bb_fields ~dom (int_of_float lo + 4)))
  in
  Domain.join (worker 2 2.0);
  Domain.join (worker 3 3.0);
  Flightrec.record t ~ts:9.0 ~ev:"bb_node" (bb_fields 9)

let test_multi_domain_merge () =
  let t = Flightrec.create ~capacity:8 () in
  feed_schedule t;
  Alcotest.(check int) "events seen" 7 (Flightrec.events_seen t);
  Alcotest.(check int) "one ring per domain" 3
    (List.length (Flightrec.stats t));
  let read = Reader.read_string (Flightrec.render t) in
  Alcotest.(check int) "no malformed lines" 0 read.Reader.malformed;
  Alcotest.(check int) "no unknown events" 0 read.Reader.unknown;
  let ts = List.map (fun r -> r.Reader.ts) read.Reader.records in
  Alcotest.(check (list (float 0.0)))
    "merged across rings in timestamp order"
    [ 1.0; 2.0; 3.0; 5.0; 6.0; 7.0; 9.0 ] ts;
  (* the domain stamp distinguishes the rings' events *)
  let domains = List.sort_uniq compare (List.map (fun r -> r.Reader.domain) read.Reader.records) in
  Alcotest.(check int) "three distinct domain stamps" 3 (List.length domains)

let test_deterministic_replay_is_byte_identical () =
  let run () =
    let t = Flightrec.create ~capacity:8 () in
    Flightrec.set_manifest t (manifest ~jobs:3 "replay");
    feed_schedule t;
    Flightrec.render t
  in
  let a = run () and b = run () in
  Alcotest.(check string) "same schedule, byte-identical dump body" a b;
  (* and the body leads with the manifest as an ordinary run_info *)
  let read = Reader.read_string a in
  (match read.Reader.records with
  | { Reader.event = Reader.Run_info _; _ } :: _ -> ()
  | _ -> Alcotest.fail "dump body must lead with run_info");
  Alcotest.(check int) "manifest + 7 events" 8
    (List.length read.Reader.records)

let test_capacity_overwrites_oldest () =
  let t = Flightrec.create ~capacity:2 () in
  for i = 1 to 5 do
    Flightrec.record t ~ts:(float_of_int i) ~ev:"bb_node" (bb_fields i)
  done;
  (match Flightrec.stats t with
  | [ (_, retained, dropped) ] ->
    Alcotest.(check int) "retained = capacity" 2 retained;
    Alcotest.(check int) "dropped the rest" 3 dropped
  | l -> Alcotest.failf "expected one ring, got %d" (List.length l));
  let read = Reader.read_string (Flightrec.render t) in
  Alcotest.(check (list (float 0.0)))
    "only the most recent window remains" [ 4.0; 5.0 ]
    (List.map (fun r -> r.Reader.ts) read.Reader.records)

(* temp dump directories, unique per test invocation *)
let dump_dir_counter = ref 0

let fresh_dir () =
  incr dump_dir_counter;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "monpos-flight-%d-%d" (Unix.getpid ())
         !dump_dir_counter)
  in
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let read_file path = In_channel.with_open_bin path In_channel.input_all

let test_trigger_dumps_and_caps () =
  let dir = fresh_dir () in
  let t = Flightrec.install ~capacity:8 ~dir () in
  Fun.protect
    ~finally:(fun () ->
      Flightrec.uninstall ();
      if Sys.file_exists dir then rm_rf dir)
  @@ fun () ->
  Flightrec.set_manifest t (manifest "trigger");
  Flightrec.record t ~ts:1.0 ~ev:"bb_node" (bb_fields 1);
  (* two triggers on unchanged rings: two files, identical bodies,
     sequence-numbered names carrying the sanitized reason *)
  Flightrec.trigger ~reason:"deadline_exceeded";
  Flightrec.trigger ~reason:"chaos_lp/solve";
  let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
  Alcotest.(check (list string))
    "dump files named by sequence and sanitized reason"
    [ "flight-0001-deadline_exceeded.jsonl"; "flight-0002-chaos_lp_solve.jsonl" ]
    files;
  let body f = read_file (Filename.concat dir f) in
  Alcotest.(check string) "same rings, same bytes" (body (List.nth files 0))
    (body (List.nth files 1));
  (* a dump reads back through the ordinary reader *)
  let read = Reader.read_string (body (List.nth files 0)) in
  Alcotest.(check int) "run_info + recorded event" 2
    (List.length read.Reader.records);
  (* the per-process cap stops a trigger storm from flooding the
     directory *)
  for _ = 1 to 20 do
    Flightrec.trigger ~reason:"storm"
  done;
  Alcotest.(check bool) "cap reached" true (Flightrec.dumps_taken () >= 8);
  let after = Array.length (Sys.readdir dir) in
  Alcotest.(check bool)
    (Printf.sprintf "at most 8 dumps on disk (got %d)" after)
    true (after <= 8);
  Flightrec.trigger ~reason:"storm";
  Alcotest.(check int) "capped: no further files" after
    (Array.length (Sys.readdir dir))

let test_trigger_inert_without_install () =
  (* the library-level trigger sites (deadline, ladder, chaos) run in
     every test process; with no armed recorder they must cost nothing
     and write nothing *)
  Flightrec.uninstall ();
  let before = Flightrec.dumps_taken () in
  Flightrec.trigger ~reason:"deadline_exceeded";
  Alcotest.(check int) "no budget consumed" before (Flightrec.dumps_taken ())

(* ------------------------------------------------------------------ *)
(* sampler *)

let with_sampler threshold f =
  Sampler.reset ();
  Sampler.configure ~threshold;
  Fun.protect
    ~finally:(fun () ->
      Sampler.disable ();
      Sampler.reset ())
    f

let test_sampler_off_is_identity () =
  Sampler.reset ();
  Sampler.disable ();
  for _ = 1 to 100 do
    Alcotest.(check int) "disabled decide is 1" 1
      (Sampler.decide Sampler.Bb_node)
  done

(* the first [n] decisions of a fresh Bb_node stream: (kept, sum of
   weights, last kept weight, largest weight) *)
let sample_stream n =
  let kept = ref 0 and sum = ref 0 and last = ref 0 and max_w = ref 0 in
  for _ = 1 to n do
    let w = Sampler.decide Sampler.Bb_node in
    if w > 0 then begin
      incr kept;
      sum := !sum + w;
      last := w;
      max_w := max !max_w w
    end
  done;
  (!kept, !sum, !last, !max_w)

let test_sampler_rescales_exactly () =
  (with_sampler 16 @@ fun () ->
   let n = 20_000 in
   let kept, _, _, max_w = sample_stream n in
   Alcotest.(check bool)
     (Printf.sprintf "stream compressed (%d kept of %d)" kept n)
     true (kept < n / 10);
   Alcotest.(check bool)
     (Printf.sprintf "stride capped at 4096 (max weight %d)" max_w)
     true (max_w <= 4096));
  (* every event belongs to exactly one kept block, whatever the
     threshold: the weights cover the true count, overshooting by less
     than the last block *)
  for threshold = 1 to 20 do
    List.iter
      (fun n ->
        with_sampler threshold @@ fun () ->
        let _, sum, last, _ = sample_stream n in
        Alcotest.(check bool)
          (Printf.sprintf "threshold %d, %d events: %d <= sum %d < %d + %d"
             threshold n n sum n last)
          true
          (n <= sum && sum < n + last))
      [ 52; 1000; 20_000 ]
  done

let test_sampler_deterministic_and_per_class () =
  let replay () =
    with_sampler 4 @@ fun () ->
    List.init 500 (fun _ -> Sampler.decide Sampler.Bb_node)
  in
  Alcotest.(check (list int)) "pure function of the class ordinal"
    (replay ()) (replay ());
  with_sampler 4 @@ fun () ->
  (* burning one class's head must not consume another's *)
  for _ = 1 to 400 do
    ignore (Sampler.decide Sampler.Bb_node)
  done;
  for i = 1 to 4 do
    Alcotest.(check int)
      (Printf.sprintf "fresh class passes head event %d unsampled" i)
      1
      (Sampler.decide (Sampler.Span "lu_factor"))
  done

let test_converge_rescales_sampled_nodes () =
  (* the reader-side contract: a kept event stands for sampled_of
     occurrences, so convergence node counts recover the true total *)
  let record ts node sampled_of =
    {
      Reader.ts;
      domain = 0;
      event =
        Reader.Bb_node
          { solver = "mip"; node; depth = 1; bound = Some 3.0; sampled_of };
    }
  in
  let c =
    Converge.of_records [ record 1.0 0 1; record 2.0 8 8; record 3.0 16 8 ]
  in
  match c.Converge.solvers with
  | [ s ] -> Alcotest.(check int) "1 + 8 + 8 nodes" 17 s.Converge.nodes
  | l -> Alcotest.failf "expected one solver, got %d" (List.length l)

let test_progress_counts_sampled_nodes () =
  (* the live reporter folds through Converge, so its node count is
     the weighted one: 1 + 8 + 8 kept events stand for 17 nodes *)
  let path = Filename.temp_file "monpos_progress" ".txt" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  let sink = Monpos_obs.Progress.sink ~oc ~tty:false () in
  List.iter
    (fun (node, sampled_of) ->
      Trace.emit sink
        (Reader.Bb_node { solver = "cover"; node; depth = 1; bound = None; sampled_of }))
    [ (0, 1); (8, 8); (16, 8) ];
  Trace.emit sink (Reader.Incumbent { solver = "cover"; node = 16; objective = 4.0 });
  Trace.close sink;
  close_out oc;
  let lines =
    String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)
    |> List.filter (( <> ) "")
  in
  let final = List.nth lines (List.length lines - 1) in
  let prefix = "[cover] nodes 17  incumbent 4  bound -  gap -" in
  Alcotest.(check string) "final line" prefix
    (String.sub final 0 (min (String.length final) (String.length prefix)))

(* ------------------------------------------------------------------ *)
(* self-accounting *)

(* Trace.emit's sampled probe times the whole recording path, the
   sink's store included: a sink that spins 50 us a store must show
   up as at least half of what its 1,024 stores really cost *)
let test_emit_probe_times_the_sink () =
  let spin = 50e-6 and n = 1024 in
  let sink =
    Trace.custom (fun _ _ _ ->
        let t0 = Unix.gettimeofday () in
        while Unix.gettimeofday () -. t0 < spin do
          ()
        done)
  in
  let before = Monpos_obs.Status.overhead () in
  for i = 1 to n do
    Trace.emit sink (Monpos_obs.Event.Greedy_pick { pick = i; gain = 1.0; covered = 0.5 })
  done;
  let accounted = Monpos_obs.Status.overhead () -. before in
  let floor = 0.5 *. float_of_int n *. spin in
  if accounted < floor then
    Alcotest.failf "accounted %.4f s of the sink's %.4f s (need >= %.4f s)"
      accounted (float_of_int n *. spin) floor

let suite =
  [
    Alcotest.test_case "ring: overwrite-oldest ordering" `Quick
      test_ring_ordering;
    Alcotest.test_case "recorder: multi-domain timestamp merge" `Quick
      test_multi_domain_merge;
    Alcotest.test_case "recorder: deterministic replay is byte-identical"
      `Quick test_deterministic_replay_is_byte_identical;
    Alcotest.test_case "recorder: capacity window" `Quick
      test_capacity_overwrites_oldest;
    Alcotest.test_case "trigger: dumps, filenames, per-process cap" `Quick
      test_trigger_dumps_and_caps;
    Alcotest.test_case "trigger: inert without an armed recorder" `Quick
      test_trigger_inert_without_install;
    Alcotest.test_case "sampler: disabled is identity" `Quick
      test_sampler_off_is_identity;
    Alcotest.test_case "sampler: weights rescale to the true count" `Quick
      test_sampler_rescales_exactly;
    Alcotest.test_case "sampler: deterministic, per-class streams" `Quick
      test_sampler_deterministic_and_per_class;
    Alcotest.test_case "converge: sampled bb_node counts rescale" `Quick
      test_converge_rescales_sampled_nodes;
    Alcotest.test_case "progress: sampled bb_node counts rescale" `Quick
      test_progress_counts_sampled_nodes;
    Alcotest.test_case "overhead: emit probe times the sink" `Quick
      test_emit_probe_times_the_sink;
  ]
