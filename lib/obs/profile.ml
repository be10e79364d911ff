(* Span-tree reconstruction. The writer emits span_open/span_close
   pairs carrying the span name and its nesting depth; replaying them
   against a stack rebuilds the call tree, and aggregating by path
   (not just by name) yields a flamegraph-style profile: the same span
   name reached through different parents stays separate in the tree
   while the flat per-name totals merge them.

   Parallel solves interleave events from several domains in file
   order, so the replay keeps one stack per domain (keyed by the
   record's [domain] field — span depth is tracked per domain by the
   writer too). The aggregated tree is shared: a span name opened at
   the root of any domain lands in the same root node, which is what
   a profile wants — per-domain attribution stays available from the
   raw records. *)

type node = {
  name : string;
  mutable calls : int;
  mutable total : float; (* sum of the span's recorded seconds *)
  mutable self : float; (* total minus time attributed to children *)
  mutable alloc_words : float; (* words allocated (minor + major - promoted) *)
  mutable children : node list; (* reverse insertion order *)
}

type t = {
  roots : node list;
  unmatched : int; (* opens without a close, closes without an open *)
}

(* One stack frame per currently-open span. [child_secs] accumulates
   the recorded seconds of completed direct children so self time can
   be computed when this span closes. *)
type frame = {
  agg : node;
  open_depth : int;
  mutable child_secs : float;
}

let of_records records =
  let roots = ref [] in
  let unmatched = ref 0 in
  let stacks : (int, frame list ref) Hashtbl.t = Hashtbl.create 4 in
  let stack_of domain =
    match Hashtbl.find_opt stacks domain with
    | Some s -> s
    | None ->
      let s = ref [] in
      Hashtbl.add stacks domain s;
      s
  in
  let find_or_create siblings name =
    match List.find_opt (fun n -> n.name = name) !siblings with
    | Some n -> n
    | None ->
      let n =
        {
          name;
          calls = 0;
          total = 0.0;
          self = 0.0;
          alloc_words = 0.0;
          children = [];
        }
      in
      siblings := n :: !siblings;
      n
  in
  let enter stack name depth =
    (* depth jumped down: enclosing spans closed without a close event
       (lost to truncation) — unwind to the event's depth *)
    while List.length !stack > depth do
      incr unmatched;
      stack := List.tl !stack
    done;
    let agg =
      match !stack with
      | [] ->
        let n = find_or_create roots name in
        n
      | parent :: _ ->
        let siblings = ref parent.agg.children in
        let n = find_or_create siblings name in
        parent.agg.children <- !siblings;
        n
    in
    stack := { agg; open_depth = depth; child_secs = 0.0 } :: !stack
  in
  let leave stack name depth seconds gc w =
    (* unwind past any nested spans that never closed *)
    while
      match !stack with
      | f :: _ -> f.open_depth > depth
      | [] -> false
    do
      incr unmatched;
      stack := List.tl !stack
    done;
    match !stack with
    | f :: rest when f.open_depth = depth && f.agg.name = name ->
      (* a head-sampled close stands for [w] spans of roughly this
         duration: scale calls, seconds and allocation so the profile
         estimates the unsampled trace rather than the kept subset *)
      let fw = float_of_int w in
      let weighted = seconds *. fw in
      f.agg.calls <- f.agg.calls + w;
      f.agg.total <- f.agg.total +. weighted;
      f.agg.self <- f.agg.self +. Float.max 0.0 (weighted -. f.child_secs);
      (match gc with
      | Some g ->
        f.agg.alloc_words <-
          f.agg.alloc_words
          +. Float.max 0.0
               Trace.(fw *. (g.minor_words +. g.major_words -. g.promoted_words))
      | None -> ());
      stack := rest;
      (match rest with
      | parent :: _ -> parent.child_secs <- parent.child_secs +. weighted
      | [] -> ())
    | _ -> incr unmatched
  in
  List.iter
    (fun (r : Trace_reader.record) ->
      match r.Trace_reader.event with
      | Trace_reader.Span_open { name; depth } ->
        enter (stack_of r.Trace_reader.domain) name depth
      | Trace_reader.Span_close { name; depth; seconds; gc; sampled_of } ->
        leave
          (stack_of r.Trace_reader.domain)
          name depth seconds gc
          (max 1 sampled_of)
      | _ -> ())
    records;
  Hashtbl.iter
    (fun _ stack -> unmatched := !unmatched + List.length !stack)
    stacks;
  let rec order n = { n with children = List.rev_map order n.children } in
  { roots = List.rev_map order !roots; unmatched = !unmatched }

(* flat per-name aggregation, merging every path the name appears on *)
let totals t =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let rec visit n =
    (match Hashtbl.find_opt tbl n.name with
    | Some (calls, total, self) ->
      Hashtbl.replace tbl n.name (calls + n.calls, total +. n.total, self +. n.self)
    | None ->
      order := n.name :: !order;
      Hashtbl.add tbl n.name (n.calls, n.total, n.self));
    List.iter visit n.children
  in
  List.iter visit t.roots;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* flat per-name allocated words, same merge as [totals] *)
let alloc_totals t =
  let order = ref [] in
  let tbl = Hashtbl.create 16 in
  let rec visit n =
    (match Hashtbl.find_opt tbl n.name with
    | Some words -> Hashtbl.replace tbl n.name (words +. n.alloc_words)
    | None ->
      order := n.name :: !order;
      Hashtbl.add tbl n.name n.alloc_words);
    List.iter visit n.children
  in
  List.iter visit t.roots;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let grand_total t =
  List.fold_left (fun acc n -> acc +. n.total) 0.0 t.roots

(* OCaml words are 8 bytes on every platform this runs on; traces are
   cross-machine artifacts, so pin the factor rather than asking
   Sys.word_size of the analyzing host. *)
let bytes_of_words w = 8.0 *. w

let human_bytes bytes =
  if bytes < 1024.0 then Printf.sprintf "%.0fB" bytes
  else if bytes < 1024.0 *. 1024.0 then Printf.sprintf "%.1fKiB" (bytes /. 1024.0)
  else if bytes < 1024.0 *. 1024.0 *. 1024.0 then
    Printf.sprintf "%.1fMiB" (bytes /. (1024.0 *. 1024.0))
  else Printf.sprintf "%.2fGiB" (bytes /. (1024.0 *. 1024.0 *. 1024.0))

let render t =
  let b = Buffer.create 1024 in
  let whole = grand_total t in
  let pct x = if whole <= 0.0 then 0.0 else 100.0 *. x /. whole in
  let sorted ns = List.sort (fun a c -> compare c.total a.total) ns in
  let rec emit indent n =
    Buffer.add_string b
      (Printf.sprintf
         "%5.1f%% %9.3fms  self %9.3fms  %6d call%s  alloc %10s  %s%s\n"
         (pct n.total) (1e3 *. n.total) (1e3 *. n.self) n.calls
         (if n.calls = 1 then " " else "s")
         (human_bytes (bytes_of_words n.alloc_words))
         indent n.name);
    List.iter (emit (indent ^ "  ")) (sorted n.children)
  in
  Buffer.add_string b "span tree (total / self, % of traced time):\n";
  if t.roots = [] then Buffer.add_string b "  (no spans in trace)\n"
  else List.iter (emit "") (sorted t.roots);
  if t.unmatched > 0 then
    Buffer.add_string b
      (Printf.sprintf "(%d unmatched span event(s) — truncated trace?)\n"
         t.unmatched);
  Buffer.contents b

(* Folded stacks from the wall-clock profiler's stack_sample ticks:
   each line is "name;name;name count", the input format of
   flamegraph.pl / inferno / speedscope. Samples aggregate across
   domains (a flamegraph wants where time went, not which domain spent
   it); per-domain splits stay available from the raw records. *)
let folded_of_records records =
  let order = ref [] in
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun (r : Trace_reader.record) ->
      match r.Trace_reader.event with
      | Trace_reader.Stack_sample { stack; _ } when stack <> "" -> (
        match Hashtbl.find_opt tbl stack with
        | Some n -> Hashtbl.replace tbl stack (n + 1)
        | None ->
          order := stack :: !order;
          Hashtbl.add tbl stack 1)
      | _ -> ())
    records;
  List.rev_map (fun stack -> (stack, Hashtbl.find tbl stack)) !order

let render_folded records =
  let b = Buffer.create 1024 in
  List.iter
    (fun (stack, count) -> Buffer.add_string b (Printf.sprintf "%s %d\n" stack count))
    (folded_of_records records);
  Buffer.contents b

let to_json t =
  let rec node_json n =
    Json.Obj
      [
        ("name", Json.String n.name);
        ("calls", Json.Int n.calls);
        ("total_s", Json.Float n.total);
        ("self_s", Json.Float n.self);
        ("alloc_words", Json.Float n.alloc_words);
        ("children", Json.List (List.map node_json n.children));
      ]
  in
  let allocs = alloc_totals t in
  Json.Obj
    [
      ("roots", Json.List (List.map node_json t.roots));
      ( "totals",
        Json.Obj
          (List.map
             (fun (name, (calls, total, self)) ->
               ( name,
                 Json.Obj
                   [
                     ("calls", Json.Int calls);
                     ("total_s", Json.Float total);
                     ("self_s", Json.Float self);
                     ( "alloc_words",
                       Json.Float
                         (Option.value ~default:0.0 (List.assoc_opt name allocs))
                     );
                   ] ))
             (totals t)) );
      ("unmatched", Json.Int t.unmatched);
    ]
