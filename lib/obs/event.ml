(* The trace schema, written once: the typed event, its encoder and its
   decoder side by side, plus the line envelope ("ev", "ts", "domain")
   shared by the channel sinks, the flight recorder's dump and the
   reader. No other module spells an event name or a field key. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}

type t =
  | Span_open of { name : string; depth : int }
  | Span_close of {
      name : string;
      depth : int;
      seconds : float;
      gc : gc_delta option;
      sampled_of : int;
    }
  | Bb_node of {
      solver : string;
      node : int;
      depth : int;
      bound : float option;
      sampled_of : int;
    }
  | Incumbent of { solver : string; node : int; objective : float }
  | Bound_pruned of {
      solver : string;
      node : int;
      bound : float option;
      incumbent : float option;
    }
  | Warm_start of {
      dual_feasible : bool;
      iterations : int;
      kernel : string;
      outcome : string;
    }
  | Simplex_phase of {
      phase : int;
      iterations : int;
      outcome : string;
      sampled_of : int;
    }
  | Greedy_pick of { pick : int; gain : float; covered : float }
  | Flow_augmentation of {
      amount : float;
      path_cost : float;
      routed : float;
      sampled_of : int;
    }
  | Flow_pivots of {
      algo : string;
      pivots : int;
      objective : float;
      sampled_of : int;
    }
  | Flow_solve of { algo : string; pivots : int; warm : bool; status : string }
  | Ladder_descent of {
      solver : string;
      from_rung : string;
      to_rung : string;
      reason : string;
    }
  | Recovery of { stage : string; detail : string }
  | Deadline_hit of { phase : string; elapsed : float; budget : float option }
  | Chaos_inject of { site : string }
  | Stack_sample of { stack : string; domain : int }
  | Run_info of {
      run_id : string;
      git_rev : string option;
      ocaml_version : string option;
      hostname : string option;
      chaos_seed : int option;
      jobs : int option;
      scheduler : string option;
      argv : string list;
    }
  | Checkpoint_write of {
      path : string;
      nodes : int;
      frontier : int;
      seconds : float;
    }
  | Checkpoint_resume of { path : string; nodes : int; frontier : int }
  | Worker_failure of { slot : int; reason : string }
  | Preempt_stop of { phase : string; nodes : int }
  | Server_shutdown of { served : int }
  | Unknown of string

(* [domain] is the emitting domain's id; the writer omits the field
   for the initial domain, which decodes as 0 here (domain ids of
   spawned workers are always positive). Old traces therefore read as
   all-domain-0, which is exactly what they were. *)
type record = { ts : float; domain : int; event : t }

let name = function
  | Span_open _ -> "span_open"
  | Span_close _ -> "span_close"
  | Bb_node _ -> "bb_node"
  | Incumbent _ -> "incumbent"
  | Bound_pruned _ -> "bound_pruned"
  | Warm_start _ -> "warm_start"
  | Simplex_phase _ -> "simplex_phase"
  | Greedy_pick _ -> "greedy_pick"
  | Flow_augmentation _ -> "flow_augmentation"
  | Flow_pivots _ -> "flow_pivots"
  | Flow_solve _ -> "flow_solve"
  | Ladder_descent _ -> "ladder_descent"
  | Recovery _ -> "recovery"
  | Deadline_hit _ -> "deadline_hit"
  | Chaos_inject _ -> "chaos_inject"
  | Stack_sample _ -> "stack_sample"
  | Run_info _ -> "run_info"
  | Checkpoint_write _ -> "checkpoint_write"
  | Checkpoint_resume _ -> "checkpoint_resume"
  | Worker_failure _ -> "worker_failure"
  | Preempt_stop _ -> "preempt_stop"
  | Server_shutdown _ -> "server_shutdown"
  | Unknown ev -> ev

(* ------------------------------------------------------------------ *)
(* encoder *)

let str s = Json.String s

let int i = Json.Int i

let num f = Json.Float f

let opt f = function Some v -> f v | None -> Json.Null

(* The sampling weight rides as a trailing field and is omitted at
   weight 1, so unsampled traces carry no weights at all. *)
let weighted sampled_of fields =
  if sampled_of <= 1 then fields else fields @ [ ("sampled_of", int sampled_of) ]

let encode ?domain e =
  let fields =
    match e with
    | Span_open { name; depth } -> [ ("name", str name); ("depth", int depth) ]
    | Span_close { name; depth; seconds; gc; sampled_of } ->
      weighted sampled_of
        ([ ("name", str name); ("depth", int depth); ("seconds", num seconds) ]
        @
        match gc with
        | None -> []
        | Some g ->
          [
            ("minor_words", num g.minor_words);
            ("major_words", num g.major_words);
            ("promoted_words", num g.promoted_words);
            ("major_collections", int g.major_collections);
            ("top_heap_words", int g.top_heap_words);
          ])
    | Bb_node { solver; node; depth; bound; sampled_of } ->
      weighted sampled_of
        [ ("solver", str solver); ("node", int node); ("depth", int depth);
          ("bound", opt num bound) ]
    | Incumbent { solver; node; objective } ->
      [ ("solver", str solver); ("node", int node); ("objective", num objective) ]
    | Bound_pruned { solver; node; bound; incumbent } ->
      [ ("solver", str solver); ("node", int node); ("bound", opt num bound);
        ("incumbent", opt num incumbent) ]
    | Warm_start { dual_feasible; iterations; kernel; outcome } ->
      [ ("dual_feasible", Json.Bool dual_feasible); ("iterations", int iterations);
        ("kernel", str kernel); ("outcome", str outcome) ]
    | Simplex_phase { phase; iterations; outcome; sampled_of } ->
      weighted sampled_of
        [ ("phase", int phase); ("iterations", int iterations); ("outcome", str outcome) ]
    | Greedy_pick { pick; gain; covered } ->
      [ ("pick", int pick); ("gain", num gain); ("covered", num covered) ]
    | Flow_augmentation { amount; path_cost; routed; sampled_of } ->
      weighted sampled_of
        [ ("amount", num amount); ("path_cost", num path_cost); ("routed", num routed) ]
    | Flow_pivots { algo; pivots; objective; sampled_of } ->
      weighted sampled_of
        [ ("algo", str algo); ("pivots", int pivots); ("objective", num objective) ]
    | Flow_solve { algo; pivots; warm; status } ->
      [ ("algo", str algo); ("pivots", int pivots); ("warm", Json.Bool warm);
        ("status", str status) ]
    | Ladder_descent { solver; from_rung; to_rung; reason } ->
      [ ("solver", str solver); ("from_rung", str from_rung); ("to_rung", str to_rung);
        ("reason", str reason) ]
    | Recovery { stage; detail } -> [ ("stage", str stage); ("detail", str detail) ]
    | Deadline_hit { phase; elapsed; budget } ->
      [ ("phase", str phase); ("elapsed", num elapsed); ("budget", opt num budget) ]
    | Chaos_inject { site } -> [ ("site", str site) ]
    | Stack_sample { stack; domain } -> [ ("stack", str stack); ("domain", int domain) ]
    | Run_info
        { run_id; git_rev; ocaml_version; hostname; chaos_seed; jobs; scheduler; argv }
      ->
      [
        ("run_id", str run_id);
        ("git_rev", opt str git_rev);
        ("ocaml_version", opt str ocaml_version);
        ("hostname", opt str hostname);
        ("chaos_seed", opt int chaos_seed);
        ("jobs", opt int jobs);
        ("scheduler", opt str scheduler);
        ("argv", Json.List (List.map str argv));
      ]
    | Checkpoint_write { path; nodes; frontier; seconds } ->
      [ ("path", str path); ("nodes", int nodes); ("frontier", int frontier);
        ("seconds", num seconds) ]
    | Checkpoint_resume { path; nodes; frontier } ->
      [ ("path", str path); ("nodes", int nodes); ("frontier", int frontier) ]
    | Worker_failure { slot; reason } -> [ ("slot", int slot); ("reason", str reason) ]
    | Preempt_stop { phase; nodes } -> [ ("phase", str phase); ("nodes", int nodes) ]
    | Server_shutdown { served } -> [ ("served", int served) ]
    | Unknown _ -> []
  in
  match (e, domain) with
  | Stack_sample _, _ | _, None -> fields
  | _, Some d -> fields @ [ ("domain", int d) ]

(* ------------------------------------------------------------------ *)
(* decoder *)

(* Option-monad decoding: a known event missing a required field (or
   carrying it at the wrong type) degrades to [Unknown] rather than
   failing the whole read, and extra fields are ignored — the
   forward-compatibility contract that lets old analyzers read traces
   from newer writers. A numeric field written as [null] (the writer's
   rendering of nan/infinities) decodes as [None] where the event
   models it as optional. *)
let decode ~ev fields =
  let ( let+ ) o f = Option.map f o in
  let ( and+ ) a b = match (a, b) with Some a, Some b -> Some (a, b) | _ -> None in
  let field k = List.assoc_opt k fields in
  let str k = Option.bind (field k) Json.as_string in
  let int k = Option.bind (field k) Json.as_int in
  let num k = Option.bind (field k) Json.as_float in
  let bool k = Option.bind (field k) Json.as_bool in
  let sampled_of = Option.value (int "sampled_of") ~default:1 in
  let decoded =
    match ev with
    | "span_open" ->
      let+ name = str "name" and+ depth = int "depth" in
      Span_open { name; depth }
    | "span_close" ->
      (* the gc accounting is all-or-nothing: traces from writers
         predating it decode with [gc = None] *)
      let gc =
        let+ minor_words = num "minor_words"
        and+ major_words = num "major_words"
        and+ promoted_words = num "promoted_words"
        and+ major_collections = int "major_collections"
        and+ top_heap_words = int "top_heap_words" in
        { minor_words; major_words; promoted_words; major_collections; top_heap_words }
      in
      let+ name = str "name" and+ depth = int "depth" and+ seconds = num "seconds" in
      Span_close { name; depth; seconds; gc; sampled_of }
    | "bb_node" ->
      let+ solver = str "solver" and+ node = int "node" and+ depth = int "depth" in
      Bb_node { solver; node; depth; bound = num "bound"; sampled_of }
    | "incumbent" ->
      let+ solver = str "solver" and+ node = int "node"
      and+ objective = num "objective" in
      Incumbent { solver; node; objective }
    | "bound_pruned" ->
      let+ solver = str "solver" and+ node = int "node" in
      Bound_pruned { solver; node; bound = num "bound"; incumbent = num "incumbent" }
    | "warm_start" ->
      let+ dual_feasible = bool "dual_feasible" and+ iterations = int "iterations"
      and+ kernel = str "kernel" and+ outcome = str "outcome" in
      Warm_start { dual_feasible; iterations; kernel; outcome }
    | "simplex_phase" ->
      let+ phase = int "phase" and+ iterations = int "iterations"
      and+ outcome = str "outcome" in
      Simplex_phase { phase; iterations; outcome; sampled_of }
    | "greedy_pick" ->
      let+ pick = int "pick" and+ gain = num "gain" and+ covered = num "covered" in
      Greedy_pick { pick; gain; covered }
    | "flow_augmentation" ->
      let+ amount = num "amount" and+ path_cost = num "path_cost"
      and+ routed = num "routed" in
      Flow_augmentation { amount; path_cost; routed; sampled_of }
    | "flow_pivots" ->
      let+ algo = str "algo" and+ pivots = int "pivots"
      and+ objective = num "objective" in
      Flow_pivots { algo; pivots; objective; sampled_of }
    | "flow_solve" ->
      let+ algo = str "algo" and+ pivots = int "pivots" and+ warm = bool "warm"
      and+ status = str "status" in
      Flow_solve { algo; pivots; warm; status }
    | "ladder_descent" ->
      let+ solver = str "solver" and+ from_rung = str "from_rung"
      and+ to_rung = str "to_rung" and+ reason = str "reason" in
      Ladder_descent { solver; from_rung; to_rung; reason }
    | "recovery" ->
      let+ stage = str "stage" and+ detail = str "detail" in
      Recovery { stage; detail }
    | "deadline_hit" ->
      let+ phase = str "phase" and+ elapsed = num "elapsed" in
      Deadline_hit { phase; elapsed; budget = num "budget" }
    | "chaos_inject" ->
      let+ site = str "site" in
      Chaos_inject { site }
    | "stack_sample" ->
      let+ stack = str "stack" in
      Stack_sample { stack; domain = Option.value (int "domain") ~default:0 }
    | "run_info" ->
      let+ run_id = str "run_id" in
      let argv =
        Option.fold ~none:[] ~some:(List.filter_map Json.as_string)
          (Option.bind (field "argv") Json.as_list)
      in
      Run_info
        {
          run_id;
          git_rev = str "git_rev";
          ocaml_version = str "ocaml_version";
          hostname = str "hostname";
          chaos_seed = int "chaos_seed";
          jobs = int "jobs";
          scheduler = str "scheduler";
          argv;
        }
    | "checkpoint_write" ->
      let+ path = str "path" and+ nodes = int "nodes"
      and+ frontier = int "frontier" and+ seconds = num "seconds" in
      Checkpoint_write { path; nodes; frontier; seconds }
    | "checkpoint_resume" ->
      let+ path = str "path" and+ nodes = int "nodes"
      and+ frontier = int "frontier" in
      Checkpoint_resume { path; nodes; frontier }
    | "worker_failure" ->
      let+ slot = int "slot" and+ reason = str "reason" in
      Worker_failure { slot; reason }
    | "preempt_stop" ->
      let+ phase = str "phase" and+ nodes = int "nodes" in
      Preempt_stop { phase; nodes }
    | "server_shutdown" ->
      let+ served = int "served" in
      Server_shutdown { served }
    | _ -> None
  in
  Option.value decoded ~default:(Unknown ev)

(* ------------------------------------------------------------------ *)
(* line envelope *)

let render_line buf ts ev fields =
  Buffer.add_string buf "{\"ev\":\"";
  Json.escape_to buf ev;
  Buffer.add_string buf "\",\"ts\":";
  Json.float_to buf ts;
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf ",\"";
      Json.escape_to buf k;
      Buffer.add_string buf "\":";
      Json.to_buffer buf v)
    fields;
  Buffer.add_string buf "}\n"

let of_json j =
  match Option.bind (Json.member "ev" j) Json.as_string with
  | None -> None
  | Some ev ->
    let fields = Option.value (Json.as_obj j) ~default:[] in
    let member k f = Option.bind (Json.member k j) f in
    let ts = Option.value (member "ts" Json.as_float) ~default:0.0 in
    let domain = Option.value (member "domain" Json.as_int) ~default:0 in
    Some { ts; domain; event = decode ~ev fields }
