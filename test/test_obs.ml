(* Observability layer: metrics registry semantics, nested span
   timing, JSON escaping, the no-op trace sink, and agreement between
   the JSONL trace and the solver's own accounting. *)

module Metrics = Monpos_obs.Metrics
module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Span = Monpos_obs.Span
module Json = Monpos_obs.Json
module Model = Monpos_lp.Model
module Mip = Monpos_lp.Mip

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* a tiny JSON reader, for validating what the writer produced. Only
   what the trace emits: objects of null/bool/int/float/string. *)

exception Bad_json of string

let parse_json (s : string) : (string * string) list =
  (* Returns the top-level object as name -> raw token text. *)
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d in %s" msg !pos s)) in
  let peek () = if !pos < n then s.[!pos] else fail "eof" in
  let advance () = incr pos in
  let expect c = if peek () <> c then fail (Printf.sprintf "expected %c" c) else advance () in
  let skip_ws () = while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\t') do advance () done in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (match peek () with
        | '"' -> Buffer.add_char b '"'; advance ()
        | '\\' -> Buffer.add_char b '\\'; advance ()
        | '/' -> Buffer.add_char b '/'; advance ()
        | 'n' -> Buffer.add_char b '\n'; advance ()
        | 't' -> Buffer.add_char b '\t'; advance ()
        | 'r' -> Buffer.add_char b '\r'; advance ()
        | 'b' -> Buffer.add_char b '\b'; advance ()
        | 'f' -> Buffer.add_char b '\012'; advance ()
        | 'u' ->
          advance ();
          let hex = String.sub s !pos 4 in
          pos := !pos + 4;
          Buffer.add_char b (Char.chr (int_of_string ("0x" ^ hex)))
        | c -> fail (Printf.sprintf "bad escape %c" c));
        go ()
      | c when Char.code c < 0x20 -> fail "unescaped control char"
      | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_scalar () =
    if peek () = '"' then "\"" ^ parse_string () ^ "\""
    else begin
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | 'a' .. 'z' -> true (* null, true, false *)
        | _ -> false
      do
        advance ()
      done;
      if !pos = start then fail "empty scalar";
      let tok = String.sub s start (!pos - start) in
      (match tok with
      | "null" | "true" | "false" -> ()
      | _ ->
        if Float.is_nan (float_of_string tok) then fail "nan literal");
      tok
    end
  in
  skip_ws ();
  expect '{';
  let fields = ref [] in
  skip_ws ();
  if peek () = '}' then advance ()
  else begin
    let rec members () =
      skip_ws ();
      let key = parse_string () in
      skip_ws ();
      expect ':';
      skip_ws ();
      let v = parse_scalar () in
      fields := (key, v) :: !fields;
      skip_ws ();
      match peek () with
      | ',' -> advance (); members ()
      | '}' -> advance ()
      | _ -> fail "expected , or }"
    in
    members ()
  end;
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  List.rev !fields

let read_lines path =
  In_channel.with_open_text path (fun ic ->
      let rec go acc =
        match In_channel.input_line ic with
        | None -> List.rev acc
        | Some l -> go (l :: acc)
      in
      go [])

let with_trace_file f =
  let path = Filename.temp_file "monpos_trace" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let sink = Trace.open_file path in
      Fun.protect
        ~finally:(fun () -> Trace.close sink)
        (fun () -> f sink);
      read_lines path)

(* ------------------------------------------------------------------ *)
(* metrics registry *)

let test_counter () =
  let r = Metrics.create () in
  let c = Metrics.counter r "test.counter" in
  Alcotest.(check int) "fresh" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 5;
  Alcotest.(check int) "after incr+add" 7 (Metrics.counter_value c);
  (* re-registration returns the same instrument *)
  let c' = Metrics.counter r "test.counter" in
  Metrics.incr c';
  Alcotest.(check int) "aliased" 8 (Metrics.counter_value c);
  (* reset zeroes values but handles stay valid *)
  Metrics.reset r;
  Alcotest.(check int) "reset" 0 (Metrics.counter_value c);
  Metrics.incr c;
  Alcotest.(check int) "usable after reset" 1 (Metrics.counter_value c);
  (* name collision across kinds is a programming error *)
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument
       "Metrics: \"test.counter\" is already registered with another kind")
    (fun () -> ignore (Metrics.gauge r "test.counter"))

let test_gauge () =
  let r = Metrics.create () in
  let g = Metrics.gauge r "test.gauge" in
  check_float "fresh" 0.0 (Metrics.gauge_value g);
  Metrics.set g 3.5;
  Metrics.set g (-1.25);
  check_float "last write wins" (-1.25) (Metrics.gauge_value g);
  Metrics.reset r;
  check_float "reset" 0.0 (Metrics.gauge_value g)

let test_histogram () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 2.0; 4.0 |] r "test.hist" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 1.5; 3.0; 100.0 ];
  match Metrics.find (Metrics.snapshot r) "test.hist" with
  | Some (Metrics.Histogram_value { upper; counts; count; sum }) ->
    Alcotest.(check (array (float 0.0))) "bounds" [| 1.0; 2.0; 4.0 |] upper;
    (* cumulative-free per-bucket counts, with the 100.0 in overflow *)
    Alcotest.(check (array int)) "counts" [| 2; 1; 1; 1 |] counts;
    Alcotest.(check int) "count" 5 count;
    check_float "sum" 106.0 sum
  | _ -> Alcotest.fail "histogram entry missing"

let test_histogram_bad_buckets () =
  let r = Metrics.create () in
  List.iter
    (fun buckets ->
      match Metrics.histogram ~buckets r "test.bad" with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "non-ascending buckets accepted")
    [ [||]; [| 2.0; 1.0 |]; [| 1.0; 1.0 |] ]

let test_snapshot_order_and_json () =
  let r = Metrics.create () in
  Metrics.incr (Metrics.counter r "b.second");
  Metrics.set (Metrics.gauge r "a.first") 2.0;
  let snap = Metrics.snapshot r in
  Alcotest.(check (list string))
    "registration order" [ "b.second"; "a.first" ]
    (List.map (fun (s, _) -> Metrics.series_key s) snap);
  Alcotest.(check string)
    "json" {|{"b.second":1,"a.first":2}|}
    (Json.to_string (Metrics.to_json snap))

(* ------------------------------------------------------------------ *)
(* spans *)

let test_nested_spans () =
  let r = Metrics.create () in
  let inner_dt = ref nan in
  let (), outer_dt =
    Span.time ~metrics:r "outer" (fun () ->
        let (), dt = Span.time ~metrics:r "inner" (fun () -> Sys.opaque_identity (ignore (Array.init 1000 Fun.id))) in
        inner_dt := dt)
  in
  Alcotest.(check bool) "inner non-negative" true (!inner_dt >= 0.0);
  Alcotest.(check bool)
    "outer dominates inner" true
    (outer_dt >= !inner_dt);
  (* both spans landed in their histograms *)
  let snap = Metrics.snapshot r in
  List.iter
    (fun name ->
      match Metrics.find ~labels:[ ("span", name) ] snap "span.seconds" with
      | Some (Metrics.Histogram_value { count; _ }) ->
        Alcotest.(check int) (name ^ " observed") 1 count
      | _ -> Alcotest.fail ("span.seconds{" ^ name ^ "} missing"))
    [ "outer"; "inner" ]

(* A span's minor words are exact whether or not a minor collection
   runs inside it: 1000 fresh cons cells are 3000 words, plus the
   span's own few words of bookkeeping. *)
let test_span_minor_words_exact () =
  let r = Metrics.create () in
  let cons () =
    let l = ref [] in
    for i = 1 to 1000 do
      l := i :: !l
    done;
    ignore (Sys.opaque_identity !l)
  in
  Span.run ~metrics:r "empty" (fun () -> ());
  Span.run ~metrics:r "cons" cons;
  Span.run ~metrics:r "cons+minor" (fun () ->
      cons ();
      Gc.minor ());
  let snap = Metrics.snapshot r in
  let words name =
    match Metrics.find ~labels:[ ("span", name) ] snap "alloc.minor_words" with
    | Some (Metrics.Histogram_value { sum; _ }) -> sum
    | _ -> Alcotest.fail ("alloc.minor_words{" ^ name ^ "} missing")
  in
  let overhead = words "empty" in
  Alcotest.(check bool)
    (Printf.sprintf "bookkeeping is small (%.0f words)" overhead)
    true
    (overhead >= 0.0 && overhead <= 64.0);
  List.iter
    (fun name ->
      let w = words name in
      Alcotest.(check bool)
        (Printf.sprintf "%s reads 3000 words (%.0f)" name w)
        true
        (w >= 3000.0 && w <= 3000.0 +. 64.0))
    [ "cons"; "cons+minor" ]

let test_span_depths_in_trace () =
  let r = Metrics.create () in
  let lines =
    with_trace_file (fun sink ->
        Span.run ~metrics:r ~sink "outer" (fun () ->
            Span.run ~metrics:r ~sink "inner" (fun () -> ())))
  in
  let events = List.map parse_json lines in
  let depth_of name ev =
    match
      List.find_opt
        (fun fields ->
          List.assoc_opt "ev" fields = Some ("\"" ^ ev ^ "\"")
          && List.assoc_opt "name" fields = Some ("\"" ^ name ^ "\""))
        events
    with
    | Some fields -> int_of_string (List.assoc "depth" fields)
    | None -> Alcotest.fail (ev ^ " for " ^ name ^ " not emitted")
  in
  Alcotest.(check int) "outer open depth" 0 (depth_of "outer" "span_open");
  Alcotest.(check int) "inner open depth" 1 (depth_of "inner" "span_open");
  Alcotest.(check int) "inner close depth" 1 (depth_of "inner" "span_close");
  Alcotest.(check int) "outer close depth" 0 (depth_of "outer" "span_close")

let test_span_unwind_two_levels () =
  (* an exception thrown from a doubly-nested span unwinds through two
     finish handlers; the depth counter must land back exactly where
     each enclosing span left it, so a later sibling opens at the same
     depth the failed subtree did and the outer close stays at 0 *)
  let r = Metrics.create () in
  let lines =
    with_trace_file (fun sink ->
        Span.run ~metrics:r ~sink "outer" (fun () ->
            (match
               Span.run ~metrics:r ~sink "mid" (fun () ->
                   Span.run ~metrics:r ~sink "deep" (fun () -> failwith "boom"))
             with
            | exception Failure _ -> ()
            | _ -> Alcotest.fail "exception swallowed");
            Span.run ~metrics:r ~sink "sibling" (fun () -> ())))
  in
  let events = List.map parse_json lines in
  let depth_of name ev =
    match
      List.find_opt
        (fun fields ->
          List.assoc_opt "ev" fields = Some ("\"" ^ ev ^ "\"")
          && List.assoc_opt "name" fields = Some ("\"" ^ name ^ "\""))
        events
    with
    | Some fields -> int_of_string (List.assoc "depth" fields)
    | None -> Alcotest.fail (ev ^ " for " ^ name ^ " not emitted")
  in
  Alcotest.(check int) "deep open depth" 2 (depth_of "deep" "span_open");
  Alcotest.(check int) "deep close depth" 2 (depth_of "deep" "span_close");
  Alcotest.(check int) "mid close depth" 1 (depth_of "mid" "span_close");
  Alcotest.(check int) "sibling opens where mid did" 1
    (depth_of "sibling" "span_open");
  Alcotest.(check int) "outer close depth" 0 (depth_of "outer" "span_close");
  (* every span, including the two that unwound, landed in its histogram *)
  let snap = Metrics.snapshot r in
  List.iter
    (fun name ->
      match Metrics.find ~labels:[ ("span", name) ] snap "span.seconds" with
      | Some (Metrics.Histogram_value { count; _ }) ->
        Alcotest.(check int) (name ^ " observed") 1 count
      | _ -> Alcotest.fail ("span.seconds{" ^ name ^ "} missing"))
    [ "outer"; "mid"; "deep"; "sibling" ]

let test_span_closes_on_raise () =
  let r = Metrics.create () in
  (match Span.run ~metrics:r ~sink:Trace.null "boom" (fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "exception swallowed");
  match
    Metrics.find ~labels:[ ("span", "boom") ] (Metrics.snapshot r)
      "span.seconds"
  with
  | Some (Metrics.Histogram_value { count; _ }) ->
    Alcotest.(check int) "closed despite raise" 1 count
  | _ -> Alcotest.fail "span.seconds{boom} missing"

(* ------------------------------------------------------------------ *)
(* json writer *)

let test_json_escaping () =
  let check name expected v =
    Alcotest.(check string) name expected (Json.to_string v)
  in
  check "specials" {|"quote \" backslash \\ newline \n tab \t"|}
    (Json.String "quote \" backslash \\ newline \n tab \t");
  check "control chars" "\"\\u0000\\u0001\\u001f\""
    (Json.String "\000\001\031");
  check "nan is null" {|[null,null,null]|}
    (Json.List [ Json.Float nan; Json.Float infinity; Json.Float neg_infinity ]);
  check "round trip float" {|0.1|} (Json.Float 0.1);
  check "nested" {|{"a":[1,true,null],"b":{"c":"d"}}|}
    (Json.Obj
       [
         ("a", Json.List [ Json.Int 1; Json.Bool true; Json.Null ]);
         ("b", Json.Obj [ ("c", Json.String "d") ]);
       ])

let hostile = "a\"b\nc\\d\001"

let test_trace_lines_parse () =
  let lines =
    with_trace_file (fun sink ->
        let emit e = Trace.emit sink e in
        emit (Event.Bb_node { solver = "mip"; node = 1; depth = 0; bound = Some 1.5; sampled_of = 1 });
        emit (Event.Bb_node { solver = "mip"; node = 2; depth = 1; bound = None; sampled_of = 1 });
        emit (Event.Incumbent { solver = "cover"; node = 2; objective = 4.0 });
        emit
          (Event.Bound_pruned
             { solver = "mip"; node = 3; bound = Some nan; incumbent = Some 4.0 });
        emit (Event.Simplex_phase { phase = 2; iterations = 17; outcome = "optimal"; sampled_of = 1 });
        emit (Event.Greedy_pick { pick = 9; gain = 0.25; covered = 0.75 });
        emit
          (Event.Flow_augmentation
             { amount = 1.0; path_cost = 3.0; routed = 1.0; sampled_of = 1 });
        (* quotes, newline, backslash and a control byte in a string
           field must be escaped into one valid line *)
        emit (Event.Recovery { stage = "escape"; detail = hostile }))
  in
  Alcotest.(check int) "one line per event" 8 (List.length lines);
  List.iter
    (fun line ->
      let fields = parse_json line in
      Alcotest.(check bool) "has ev" true (List.mem_assoc "ev" fields);
      Alcotest.(check bool) "has ts" true (List.mem_assoc "ts" fields))
    lines;
  (* the non-finite bound rendered as null, not as an invalid token *)
  let pruned =
    List.find (fun l -> List.assoc "ev" (parse_json l) = {|"bound_pruned"|}) lines
  in
  Alcotest.(check string) "nan -> null" "null"
    (List.assoc "bound" (parse_json pruned));
  (* and the hostile string reads back verbatim *)
  match Json.parse (List.nth lines 7) with
  | Ok j -> (
    match Event.of_json j with
    | Some { Event.event = Event.Recovery { detail; _ }; _ } ->
      Alcotest.(check string) "escaped string round-trips" hostile detail
    | _ -> Alcotest.fail "hostile line did not decode as recovery")
  | Error e -> Alcotest.fail e

let test_null_sink_emits_nothing () =
  let s = Trace.null in
  Alcotest.(check bool) "disabled" false (Trace.enabled s);
  Trace.emit s (Event.Bb_node { solver = "mip"; node = 1; depth = 0; bound = Some 1.0; sampled_of = 1 });
  Trace.emit s (Event.Incumbent { solver = "mip"; node = 1; objective = 0.0 });
  Trace.emit s (Event.Span_open { name = "x"; depth = 0 });
  Trace.emit s
    (Event.Span_close { name = "x"; depth = 0; seconds = 0.0; gc = None; sampled_of = 1 });
  Trace.emit s (Event.Unknown "custom");
  Alcotest.(check int) "nothing written" 0 (Trace.events_written s);
  (* the ambient default is the null sink *)
  Alcotest.(check bool) "ambient default off" false
    (Trace.enabled (Trace.current ()))

(* ------------------------------------------------------------------ *)
(* solver agreement: the trace tells the same story as the result *)

let test_mip_trace_matches_node_count () =
  (* a knapsack the LP relaxation does not solve outright, so B&B
     explores several nodes *)
  let m = Model.create Model.Maximize in
  let xs =
    Array.init 6 (fun i ->
        Model.add_var m ~obj:(float_of_int (7 + (3 * i mod 5))) Model.Binary)
  in
  Model.add_constr m
    (Array.to_list (Array.mapi (fun i x -> (float_of_int (3 + (2 * i mod 4)), x)) xs))
    Model.Le 8.0;
  let result = ref None in
  let lines =
    with_trace_file (fun sink ->
        Trace.with_current sink (fun () -> result := Some (Mip.solve m)))
  in
  let r = Option.get !result in
  let count ev solver =
    List.length
      (List.filter
         (fun l ->
           let fields = parse_json l in
           List.assoc_opt "ev" fields = Some ("\"" ^ ev ^ "\"")
           && List.assoc_opt "solver" fields = Some ("\"" ^ solver ^ "\""))
         lines)
  in
  Alcotest.(check bool) "solved" true (r.Mip.status = Mip.Optimal);
  Alcotest.(check int) "bb_node events = result.nodes" r.Mip.nodes
    (count "bb_node" "mip");
  Alcotest.(check bool) "incumbent emitted" true (count "incumbent" "mip" >= 1)

let suite =
  [
    Alcotest.test_case "counter semantics" `Quick test_counter;
    Alcotest.test_case "gauge semantics" `Quick test_gauge;
    Alcotest.test_case "histogram buckets" `Quick test_histogram;
    Alcotest.test_case "histogram rejects bad buckets" `Quick
      test_histogram_bad_buckets;
    Alcotest.test_case "snapshot order and json" `Quick
      test_snapshot_order_and_json;
    Alcotest.test_case "nested span monotonicity" `Quick test_nested_spans;
    Alcotest.test_case "span minor words exact" `Quick
      test_span_minor_words_exact;
    Alcotest.test_case "span depths in trace" `Quick test_span_depths_in_trace;
    Alcotest.test_case "span closes on raise" `Quick test_span_closes_on_raise;
    Alcotest.test_case "span depth survives two-level unwind" `Quick
      test_span_unwind_two_levels;
    Alcotest.test_case "json escaping" `Quick test_json_escaping;
    Alcotest.test_case "trace lines parse" `Quick test_trace_lines_parse;
    Alcotest.test_case "null sink emits nothing" `Quick
      test_null_sink_emits_nothing;
    Alcotest.test_case "mip trace matches node count" `Quick
      test_mip_trace_matches_node_count;
  ]
