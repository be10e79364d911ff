module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Clock = Monpos_obs.Clock
module Sampler = Monpos_obs.Sampler
module Status = Monpos_obs.Status
module Json = Monpos_obs.Json
module Flightrec = Monpos_obs.Flightrec
module Error = Monpos_resilience.Error
module Deadline = Monpos_resilience.Deadline
module Chaos = Monpos_resilience.Chaos
module Preempt = Monpos_resilience.Preempt
module Ckpt = Monpos_resilience.Checkpoint
module H = Monpos_util.Heap

(* module-scope instrument handles: registration is idempotent and
   handles survive Metrics.reset, so hot paths pay no lookup. Every
   lazy here is forced on the main domain at solve entry — Lazy.force
   is not safe to race from two domains. *)
let m_nodes = lazy (Metrics.counter Metrics.default "mip.nodes")

let m_incumbents = lazy (Metrics.counter Metrics.default "mip.incumbents")

let m_prunes = lazy (Metrics.counter Metrics.default "mip.prunes")

let m_solves = lazy (Metrics.counter Metrics.default "mip.solves")

(* checkpoint write count plus the wall-clock instant of the last
   write: /statusz derives the operator-facing "checkpoint age" (how
   much search a crash right now would lose) from the pair. *)
let m_ck_writes = lazy (Metrics.counter Metrics.default "checkpoint.writes")

let m_g_ck_clock =
  lazy (Metrics.gauge Metrics.default "checkpoint.last_write_clock")

(* cumulative seconds this solve spent serializing + atomically
   replacing checkpoint files: the direct numerator of the checkpoint
   overhead, which the bench's overhead phase gates as a fraction of
   the same solve's wall (a paired wall-clock diff cannot resolve
   sub-percent costs on a shared machine) *)
let m_g_ck_seconds =
  lazy (Metrics.gauge Metrics.default "checkpoint.write_seconds")

(* Search-progress watermarks for live introspection (/statusz):
   last-published incumbent objective, best known relaxation bound,
   and their relative gap. Gauges, not counters — the serve loop reads
   whatever the solve last wrote. *)
let m_g_incumbent = lazy (Metrics.gauge Metrics.default "mip.incumbent")

let m_g_bound = lazy (Metrics.gauge Metrics.default "mip.bound")

let m_g_gap = lazy (Metrics.gauge Metrics.default "mip.gap")

type branching = Most_fractional | Pseudocost

type options = {
  branching : branching;
  max_nodes : int;
  time_limit : float;
  gap_tolerance : float;
  integrality_tol : float;
  heuristic_period : int;
  warm_start : bool;
  jobs : int;
  deterministic : bool;
  wave : int;
  checkpoint : string option;
  checkpoint_every : float;
  log : bool;
}

let env_jobs () =
  match Sys.getenv_opt "MONPOS_JOBS" with
  | None | Some "" -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with Some j -> j | None -> 1)

let default_options =
  {
    branching = Pseudocost;
    max_nodes = 200_000;
    time_limit = 120.0;
    gap_tolerance = 1e-9;
    integrality_tol = 1e-6;
    heuristic_period = 16;
    warm_start = true;
    jobs = env_jobs ();
    deterministic = true;
    wave = 16;
    checkpoint = None;
    checkpoint_every = 60.0;
    log = false;
  }

type status = Optimal | Feasible | Infeasible | Unbounded | No_solution

type result = {
  status : status;
  objective : float;
  solution : float array option;
  bound : float;
  nodes : int;
  gap : float;
  deadline_hit : bool;
  preempted : bool;
}

type node = {
  lower : float array;
  upper : float array;
  depth : int;
  (* deterministic creation sequence number: the root is 0 and
     children get consecutive numbers in coordinator merge order (down
     branch before up branch), so seq totally orders nodes by creation
     independently of which domain later solves them *)
  seq : int;
  (* pseudocost bookkeeping: which branch created this node, and the
     parent relaxation's score and fractional part, so the child's LP
     value updates the per-variable degradation statistics *)
  branched : (int * [ `Down | `Up ] * float * float) option;
  (* the parent relaxation's optimal basis (basic-variable index set):
     the child differs by one bound, so this basis is dual feasible
     and the node re-solve warm-starts off it *)
  start_basis : Simplex.basis option;
}

(* Internal scores are minimization scores: score = obj for Minimize,
   -obj for Maximize, so "smaller is better" throughout. *)

(* Shared incumbent under a deterministic total order.

   Candidates are ordered by score with ties broken by the (node seq,
   sub) key under which the candidate was produced (sub 0 is the
   node's own integral relaxation, sub >= 1 a diving candidate of that
   node). Keys are unique and the comparison is exact — no tolerance
   band — so publication is a lattice meet: the final cell content is
   the minimum over every candidate ever offered, independent of
   arrival order. That is the heart of the deterministic-mode
   contract: any interleaving of worker publishes converges to the
   same incumbent.

   The same exact order also makes work-skipping provably safe: a dive
   whose candidates all carry score >= s and key >= k can be skipped
   whenever the current cell beats (s, k), because the final incumbent
   beats the current cell and therefore beats everything the dive
   could have produced. Which skips happen is timing-dependent; the
   result is not. *)
module Incumbent = struct
  type cand = { score : float; key : int * int; x : float array }

  type t = cand option Atomic.t

  let create () : t = Atomic.make None

  let better a b = a.score < b.score || (a.score = b.score && a.key < b.key)

  let beats c = function None -> true | Some i -> better c i

  let rec publish t c =
    let cur = Atomic.get t in
    if beats c cur then
      if Atomic.compare_and_set t cur (Some c) then true else publish t c
    else false

  let get = Atomic.get
end

(* per-search pseudocost state: average objective degradation per unit
   of rounded-away fraction, per variable and direction. Owned by the
   coordinator (updated only at merge, in wave order — a worker-side
   update would make branching decisions depend on scheduling). *)
type pc = {
  pc_down : float array;
  pc_down_n : int array;
  pc_up : float array;
  pc_up_n : int array;
}

let pc_create n =
  {
    pc_down = Array.make n 0.0;
    pc_down_n = Array.make n 0;
    pc_up = Array.make n 0.0;
    pc_up_n = Array.make n 0;
  }

(* ---- wave tasks --------------------------------------------------- *)

type outcome =
  | O_pending
  | O_infeasible
  | O_unbounded
  | O_iter_limit
  | O_deadline
  | O_optimal of { raw : float; primal : float array; basis : Simplex.basis }

(* one node of a wave: the slot that solves it writes [t_outcome], and
   the coordinator reads it at the merge, after the barrier *)
type task = {
  t_node : node;
  t_bound : float;
  t_num : int;
  t_dive : bool;
  mutable t_outcome : outcome;
}

let resolved_jobs options =
  let j =
    if options.jobs <= 0 then Domain.recommended_domain_count ()
    else options.jobs
  in
  max 1 j

let scheduler_mode _ = "wave"

(* The wave scheduler is the only one: [deterministic] survives as a
   field so existing option records keep compiling, and [false] is
   refused. *)
let check_deterministic ~fn options =
  if not options.deterministic then
    invalid_arg (fn ^ ": deterministic = false is not supported")

(* ---- checkpoint (de)serialization ---------------------------------

   The checkpoint captures the deterministic wave scheduler's complete
   search state at a wave barrier: the model, the search-shaping
   options, the open-node frontier with bounds and warm-start bases,
   the incumbent, the pseudocost tables and the run manifest. Two
   representation choices carry the determinism-under-resume contract:

   - every float travels as a hexadecimal literal ("%h"), so bounds,
     coefficients and scores round-trip bit-exactly — resumed
     arithmetic starts from the very same bits;

   - the heap is stored as its verbatim internal array (Heap.snapshot
     / Heap.restore), not as a sorted drain: a rebuild by re-pushing
     would reorder equal keys and change which of two tied nodes is
     expanded first.

   The container (header, checksum trailer, atomic tmp-then-rename
   replace) is Monpos_resilience.Checkpoint; this block only encodes
   and decodes the body lines. *)

let ck_magic = "monpos-mip-checkpoint"

let ck_version = 2

(* everything [resume] needs to restart [solve_gen] mid-search *)
type saved = {
  s_path : string;
  s_options : options;
  s_model : Model.t;
  s_elapsed : float;
  s_nodes : int;
  s_next_seq : int;
  s_best_open : float;
  s_stopped : bool;
  s_deadline_stop : bool;
  s_infeasible_root : bool;
  s_incumbent : Incumbent.cand option;
  s_pc : (int * float * int * float * int) list;
  s_heap_keys : float array;
  s_heap_nodes : node array;
}

(* Printf's "%h" is most of a write's encoding time; the bounds of
   binary variables are nearly all 0 and 1 *)
let ck_float x =
  if x = 1.0 then "0x1p+0"
  else if Int64.bits_of_float x = 0L then "0x0p+0"
  else Printf.sprintf "%h" x

let ck_b b = if b then "1" else "0"

(* The model block ("vars" .. the last "c" line). The model is
   immutable during a solve, so a solve encodes it once, on its first
   checkpoint write, and every later write reuses the lines. *)
let ck_model_lines model =
  let n = Model.num_vars model in
  let lines = ref [] in
  let add l = lines := l :: !lines in
  let buf = Buffer.create 256 in
  add (Printf.sprintf "vars %d" n);
  for v = 0 to n - 1 do
    let hv = Model.var_of_index model v in
    add
      (Printf.sprintf "v %s %s %s %s"
         (ck_float (Model.var_lb model hv))
         (ck_float (Model.var_ub model hv))
         (ck_float (Model.var_obj model hv))
         (match Model.var_kind model hv with
         | Model.Continuous -> "c"
         | Model.Integer -> "i"
         | Model.Binary -> "b"))
  done;
  add (Printf.sprintf "constrs %d" (Model.num_constrs model));
  Model.iter_constrs model (fun _ terms sense rhs ->
      Buffer.add_string buf "c ";
      Buffer.add_string buf
        (match sense with Model.Le -> "le" | Model.Ge -> "ge" | Model.Eq -> "eq");
      Buffer.add_char buf ' ';
      Buffer.add_string buf (ck_float rhs);
      Buffer.add_char buf ' ';
      Buffer.add_string buf (string_of_int (List.length terms));
      List.iter
        (fun (c, v) ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (ck_float c);
          Buffer.add_char buf ' ';
          Buffer.add_string buf (string_of_int v))
        terms;
      add (Buffer.contents buf);
      Buffer.clear buf);
  List.rev !lines

let ck_encode ~model ~model_lines ~options ~elapsed ~nodes ~next_seq
    ~best_open ~stopped ~deadline_stop ~infeasible_root ~incumbent ~pc ~queue
    =
  let n = Model.num_vars model in
  let lines = ref [] in
  let add l = lines := l :: !lines in
  let buf = Buffer.create 256 in
  let flush_line () =
    let s = Buffer.contents buf in
    Buffer.clear buf;
    add s
  in
  add
    (Printf.sprintf "dir %s"
       (match Model.direction model with
       | Model.Minimize -> "min"
       | Model.Maximize -> "max"));
  add
    (Printf.sprintf "opts %s %s %s %d %s %d"
       (match options.branching with
       | Pseudocost -> "pc"
       | Most_fractional -> "mf")
       (ck_float options.gap_tolerance)
       (ck_float options.integrality_tol)
       options.heuristic_period (ck_b options.warm_start) options.wave);
  add (Printf.sprintf "elapsed %s" (ck_float elapsed));
  lines := List.rev_append model_lines !lines;
  add
    (Printf.sprintf "state %d %d %s %s %s %s" nodes next_seq
       (ck_float best_open) (ck_b stopped) (ck_b deadline_stop)
       (ck_b infeasible_root));
  (match incumbent with
  | None -> add "inc none"
  | Some c ->
    Buffer.add_string buf "inc ";
    Buffer.add_string buf (ck_float c.Incumbent.score);
    let k1, k2 = c.Incumbent.key in
    Buffer.add_string buf
      (Printf.sprintf " %d %d %d" k1 k2 (Array.length c.Incumbent.x));
    Array.iter
      (fun x ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (ck_float x))
      c.Incumbent.x;
    flush_line ());
  for v = 0 to n - 1 do
    if pc.pc_down_n.(v) > 0 || pc.pc_up_n.(v) > 0 then
      add
        (Printf.sprintf "pc %d %s %d %s %d" v
           (ck_float pc.pc_down.(v))
           pc.pc_down_n.(v)
           (ck_float pc.pc_up.(v))
           pc.pc_up_n.(v))
  done;
  let keys, frontier = H.snapshot queue in
  add (Printf.sprintf "heap %d" (Array.length keys));
  Array.iteri
    (fun i key ->
      let nd = frontier.(i) in
      Buffer.add_string buf "h ";
      Buffer.add_string buf (ck_float key);
      Buffer.add_string buf (Printf.sprintf " %d %d" nd.seq nd.depth);
      (match nd.branched with
      | None -> Buffer.add_string buf " -"
      | Some (v, dir, score, frac) ->
        Buffer.add_string buf
          (Printf.sprintf " %d %s %s %s" v
             (match dir with `Down -> "d" | `Up -> "u")
             (ck_float score) (ck_float frac)));
      (match nd.start_basis with
      | None -> Buffer.add_string buf " -"
      | Some b ->
        Buffer.add_string buf (Printf.sprintf " %d" (Array.length b));
        Array.iter
          (fun bi ->
            Buffer.add_char buf ' ';
            Buffer.add_string buf (string_of_int bi))
          b);
      Array.iter
        (fun x ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (ck_float x))
        nd.lower;
      Array.iter
        (fun x ->
          Buffer.add_char buf ' ';
          Buffer.add_string buf (ck_float x))
        nd.upper;
      flush_line ())
    keys;
  (* the run manifest rides along verbatim, so a checkpoint identifies
     the run (host, argv, git revision) that produced it *)
  (match Status.manifest () with
  | Some j -> add ("manifest " ^ Json.to_string j)
  | None -> ());
  List.rev !lines

let ck_decode ~path body =
  let arr = Array.of_list body in
  (* body line [i] sits at file line [i + 2]: line 1 is the header *)
  let fail i msg = Error.parse_error ~file:path ~line:(i + 2) msg in
  let idx = ref 0 in
  let peek () = if !idx < Array.length arr then Some arr.(!idx) else None in
  let next what =
    match peek () with
    | Some l ->
      incr idx;
      (l, !idx - 1)
    | None -> fail (Array.length arr) ("truncated checkpoint: wanted " ^ what)
  in
  let toks what =
    let l, i = next what in
    (String.split_on_char ' ' l, i)
  in
  let pfloat i s =
    match float_of_string_opt s with
    | Some f -> f
    | None -> fail i (Printf.sprintf "bad float %S" s)
  in
  let pint i s =
    match int_of_string_opt s with
    | Some v -> v
    | None -> fail i (Printf.sprintf "bad int %S" s)
  in
  let pbool i s =
    match s with
    | "1" -> true
    | "0" -> false
    | _ -> fail i (Printf.sprintf "bad flag %S" s)
  in
  let direction =
    match toks "dir" with
    | [ "dir"; "min" ], _ -> Model.Minimize
    | [ "dir"; "max" ], _ -> Model.Maximize
    | _, i -> fail i "bad dir record"
  in
  let s_options =
    match toks "opts" with
    | [ "opts"; br; gap; itol; heur; warm; wave ], i ->
      {
        default_options with
        branching =
          (match br with
          | "pc" -> Pseudocost
          | "mf" -> Most_fractional
          | _ -> fail i (Printf.sprintf "bad branching %S" br));
        gap_tolerance = pfloat i gap;
        integrality_tol = pfloat i itol;
        heuristic_period = pint i heur;
        warm_start = pbool i warm;
        wave = pint i wave;
        deterministic = true;
      }
    | _, i -> fail i "bad opts record"
  in
  let s_elapsed =
    match toks "elapsed" with
    | [ "elapsed"; e ], i -> pfloat i e
    | _, i -> fail i "bad elapsed record"
  in
  let n =
    match toks "vars" with
    | [ "vars"; n ], i -> pint i n
    | _, i -> fail i "bad vars record"
  in
  let model = Model.create ~name:"resumed" direction in
  for _ = 1 to n do
    match toks "v" with
    | [ "v"; lb; ub; obj; kind ], i ->
      let kind =
        match kind with
        | "c" -> Model.Continuous
        | "i" -> Model.Integer
        | "b" -> Model.Binary
        | _ -> fail i (Printf.sprintf "bad var kind %S" kind)
      in
      ignore
        (Model.add_var model ~lb:(pfloat i lb) ~ub:(pfloat i ub)
           ~obj:(pfloat i obj) kind)
    | _, i -> fail i "bad v record"
  done;
  let m =
    match toks "constrs" with
    | [ "constrs"; m ], i -> pint i m
    | _, i -> fail i "bad constrs record"
  in
  for _ = 1 to m do
    match toks "c" with
    | "c" :: sense :: rhs :: k :: rest, i ->
      let sense =
        match sense with
        | "le" -> Model.Le
        | "ge" -> Model.Ge
        | "eq" -> Model.Eq
        | _ -> fail i (Printf.sprintf "bad sense %S" sense)
      in
      let k = pint i k in
      let rec take acc j rest =
        if j = k then (List.rev acc, rest)
        else
          match rest with
          | c :: v :: rest ->
            take
              ((pfloat i c, Model.var_of_index model (pint i v)) :: acc)
              (j + 1) rest
          | _ -> fail i "truncated constraint terms"
      in
      let terms, rest = take [] 0 rest in
      if rest <> [] then fail i "trailing constraint tokens";
      Model.add_constr model terms sense (pfloat i rhs)
    | _, i -> fail i "bad c record"
  done;
  let s_nodes, s_next_seq, s_best_open, s_stopped, s_deadline_stop,
      s_infeasible_root =
    match toks "state" with
    | [ "state"; nodes; seq; best; stopped; dstop; infroot ], i ->
      ( pint i nodes,
        pint i seq,
        pfloat i best,
        pbool i stopped,
        pbool i dstop,
        pbool i infroot )
    | _, i -> fail i "bad state record"
  in
  let s_incumbent =
    match toks "inc" with
    | [ "inc"; "none" ], _ -> None
    | "inc" :: score :: k1 :: k2 :: len :: rest, i ->
      let len = pint i len in
      if List.length rest <> len then fail i "truncated incumbent vector";
      let x = Array.of_list (List.map (pfloat i) rest) in
      Some
        { Incumbent.score = pfloat i score; key = (pint i k1, pint i k2); x }
    | _, i -> fail i "bad inc record"
  in
  let rec pc_rows acc =
    match peek () with
    | Some l when String.length l > 3 && String.sub l 0 3 = "pc " -> (
      match toks "pc" with
      | [ "pc"; v; d; dn; u; un ], i ->
        pc_rows ((pint i v, pfloat i d, pint i dn, pfloat i u, pint i un) :: acc)
      | _, i -> fail i "bad pc record")
    | _ -> List.rev acc
  in
  let s_pc = pc_rows [] in
  let hlen =
    match toks "heap" with
    | [ "heap"; c ], i -> pint i c
    | _, i -> fail i "bad heap record"
  in
  let s_heap_keys = Array.make hlen 0.0 in
  let dummy =
    {
      lower = [||];
      upper = [||];
      depth = 0;
      seq = 0;
      branched = None;
      start_basis = None;
    }
  in
  let s_heap_nodes = Array.make hlen dummy in
  for slot = 0 to hlen - 1 do
    match toks "h" with
    | "h" :: key :: seq :: depth :: rest, i ->
      let branched, rest =
        match rest with
        | "-" :: rest -> (None, rest)
        | v :: d :: score :: frac :: rest ->
          let dir =
            match d with
            | "d" -> `Down
            | "u" -> `Up
            | _ -> fail i (Printf.sprintf "bad branch direction %S" d)
          in
          (Some (pint i v, dir, pfloat i score, pfloat i frac), rest)
        | _ -> fail i "truncated node record"
      in
      let start_basis, rest =
        match rest with
        | "-" :: rest -> (None, rest)
        | sz :: rest ->
          let sz = pint i sz in
          let b = Array.make sz 0 in
          let rec take j rest =
            if j = sz then rest
            else
              match rest with
              | x :: rest ->
                b.(j) <- pint i x;
                take (j + 1) rest
              | [] -> fail i "truncated basis"
          in
          (Some b, take 0 rest)
        | [] -> fail i "truncated node record"
      in
      let floats count what rest =
        let a = Array.make count 0.0 in
        let rec take j rest =
          if j = count then rest
          else
            match rest with
            | x :: rest ->
              a.(j) <- pfloat i x;
              take (j + 1) rest
            | [] -> fail i ("truncated " ^ what)
        in
        (a, take 0 rest)
      in
      let lower, rest = floats n "node lower bounds" rest in
      let upper, rest = floats n "node upper bounds" rest in
      if rest <> [] then fail i "trailing node tokens";
      s_heap_keys.(slot) <- pfloat i key;
      s_heap_nodes.(slot) <-
        {
          lower;
          upper;
          depth = pint i depth;
          seq = pint i seq;
          branched;
          start_basis;
        }
    | _, i -> fail i "bad h record"
  done;
  (* optional trailing manifest line: informational, not restored *)
  (match peek () with
  | Some l when String.length l >= 9 && String.sub l 0 9 = "manifest " ->
    incr idx
  | _ -> ());
  if !idx <> Array.length arr then
    fail !idx "trailing records after checkpoint body";
  {
    s_path = path;
    s_options;
    s_model = model;
    s_elapsed;
    s_nodes;
    s_next_seq;
    s_best_open;
    s_stopped;
    s_deadline_stop;
    s_infeasible_root;
    s_incumbent;
    s_pc;
    s_heap_keys;
    s_heap_nodes;
  }

(* chaos site [process.kill]: a self-delivered SIGKILL right after a
   durable checkpoint write — the harshest crash the checkpoint layer
   claims to survive, placed at the exact moment the claim is
   strongest. Gated behind MONPOS_CHAOS_KILL because a stray fire
   would take the whole test runner down with it. With the chaos
   lottery armed the site draws from its per-site stream; without it
   the kill is deterministic on the first write — which is what the
   CI crash/resume identity check uses, keeping chaos draws out of
   the bit-identity comparison. *)
let kill_armed = lazy (Sys.getenv_opt "MONPOS_CHAOS_KILL" <> None)

let process_kill_site () =
  if Lazy.force kill_armed then begin
    let fire =
      if Chaos.active () then
        Chaos.fire ~scoped:false ~site:"process.kill" ~p:0.5 ()
      else true
    in
    if fire then Unix.kill (Unix.getpid ()) Sys.sigkill
  end

(* The one search routine behind both [solve] and [resume]: [restore]
   carries a decoded checkpoint, and every piece of search state below
   initializes from it when present. *)
let solve_gen ~options ~(restore : saved option) model =
  Monpos_obs.Span.run "mip.solve" @@ fun () ->
  Status.with_phase "mip.solve" @@ fun () ->
  let sink = Trace.current () in
  ignore (Lazy.force m_nodes);
  ignore (Lazy.force m_incumbents);
  ignore (Lazy.force m_prunes);
  ignore (Lazy.force m_g_incumbent);
  ignore (Lazy.force m_g_bound);
  ignore (Lazy.force m_g_gap);
  Metrics.incr (Lazy.force m_solves);
  let minimize = Model.direction model = Model.Minimize in
  (* The wall-clock budget becomes a Deadline threaded through the
     whole solve — every node (and diving) LP polls it, on whichever
     domain it runs — so not even a single large relaxation can overrun
     [time_limit] unboundedly. Chaos may compress the budget to a
     tenth to exercise the deadline paths. *)
  let budget =
    if Chaos.fire ~site:"deadline.compress" ~p:0.25 () then
      options.time_limit *. 0.1
    else options.time_limit
  in
  (* a resumed run inherits the original run's wall-clock budget minus
     what it had already consumed, so crash/resume cycles cannot
     stretch a time-limited solve without bound *)
  let elapsed_base =
    match restore with Some s -> s.s_elapsed | None -> 0.0
  in
  let budget = Float.max 0.001 (budget -. elapsed_base) in
  let deadline = Deadline.of_budget budget in
  let deadline_stop = ref false in
  let n = Model.num_vars model in
  let problem = Simplex.of_model model in
  let to_score obj = if minimize then obj else -.obj in
  let of_score s = if minimize then s else -.s in
  let int_vars =
    List.filter
      (fun v ->
        match Model.var_kind model (Model.var_of_index model v) with
        | Model.Integer | Model.Binary -> true
        | Model.Continuous -> false)
      (List.init n (fun i -> i))
  in
  let itol = options.integrality_tol in
  (* When every objective coefficient sits on integer variables and is
     itself integral, any LP bound can be rounded up to the next
     integer — a large amount of extra pruning for pure cardinality
     objectives like the paper's device counts. *)
  let integral_objective =
    List.for_all
      (fun v ->
        let c = Model.var_obj model (Model.var_of_index model v) in
        let is_int_var =
          match Model.var_kind model (Model.var_of_index model v) with
          | Model.Integer | Model.Binary -> true
          | Model.Continuous -> false
        in
        if is_int_var then Float.is_integer c else c = 0.0)
      (List.init n (fun i -> i))
  in
  let sharpen score =
    if integral_objective && score > neg_infinity && score < infinity then
      Float.round (Float.ceil (score -. 1e-6))
    else score
  in
  let fractional_var primal =
    (* most fractional integer variable, or None if integral *)
    let best = ref (-1) and best_dist = ref 0.0 in
    List.iter
      (fun v ->
        let x = primal.(v) in
        let dist = abs_float (x -. Float.round x) in
        if dist > itol && dist > !best_dist then begin
          best := v;
          best_dist := dist
        end)
      int_vars;
    if !best = -1 then None else Some !best
  in
  (* The fractional part recorded at branch time is x - floor(x + itol),
     which sits in (itol, 1 - itol) for the default tolerance but can
     approach 0 or 1 (or even leave [0, 1] entirely) when callers loosen
     integrality_tol; dividing by it unguarded turns one degenerate
     branch into a pseudocost that dwarfs every honest observation.
     Clamp the denominator below by the tolerance itself. *)
  let pc_frac f = Float.max f (Float.max itol 1e-6) in
  let record_pseudocost pc node child_score =
    match node.branched with
    | None -> ()
    | Some (v, dir, parent_score, frac) ->
      let degradation = max 0.0 (child_score -. parent_score) in
      (match dir with
      | `Down ->
        let per_unit = degradation /. pc_frac frac in
        pc.pc_down.(v) <-
          ((pc.pc_down.(v) *. float_of_int pc.pc_down_n.(v)) +. per_unit)
          /. float_of_int (pc.pc_down_n.(v) + 1);
        pc.pc_down_n.(v) <- pc.pc_down_n.(v) + 1
      | `Up ->
        let per_unit = degradation /. pc_frac (1.0 -. frac) in
        pc.pc_up.(v) <-
          ((pc.pc_up.(v) *. float_of_int pc.pc_up_n.(v)) +. per_unit)
          /. float_of_int (pc.pc_up_n.(v) + 1);
        pc.pc_up_n.(v) <- pc.pc_up_n.(v) + 1)
  in
  let branch_var pc primal =
    match options.branching with
    | Most_fractional -> fractional_var primal
    | Pseudocost ->
      (* product rule over estimated degradations; variables without
         history fall back to their fractionality *)
      let best = ref (-1) and best_score = ref neg_infinity in
      List.iter
        (fun v ->
          let x = primal.(v) in
          let frac = x -. Float.floor x in
          let dist = abs_float (x -. Float.round x) in
          if dist > itol then begin
            let est_down =
              if pc.pc_down_n.(v) > 0 then pc.pc_down.(v) *. frac else dist
            in
            let est_up =
              if pc.pc_up_n.(v) > 0 then pc.pc_up.(v) *. (1.0 -. frac)
              else dist
            in
            let score = max est_down 1e-6 *. max est_up 1e-6 in
            if score > !best_score then begin
              best := v;
              best_score := score
            end
          end)
        int_vars;
      if !best = -1 then None else Some !best
  in
  let incumbent = Incumbent.create () in
  (* a restored incumbent re-enters the lattice silently: it was
     already counted, traced and logged by the run that found it *)
  let () =
    match restore with
    | Some { s_incumbent = Some c; _ } -> ignore (Incumbent.publish incumbent c)
    | _ -> ()
  in
  let inc_score_now () =
    match Incumbent.get incumbent with
    | Some c -> c.Incumbent.score
    | None -> infinity
  in
  (* live bound/gap watermark for /statusz: [score] is the relaxation
     bound of the node being expanded — in best-first wave order the
     global bound. Gauges are last-writer-wins, which is all a live
     view needs. *)
  let publish_bound_watermark score =
    let b = of_score score in
    Metrics.set (Lazy.force m_g_bound) b;
    let inc = inc_score_now () in
    if Float.is_finite inc then begin
      let i = of_score inc in
      Metrics.set (Lazy.force m_g_gap)
        (Float.abs (i -. b) /. Float.max 1e-9 (Float.abs i))
    end
  in
  (* could a candidate at [score] with minimal key [key] (or any
     candidate from a subtree bounded below by that pair) still become
     the final incumbent? The order is exact, so "no" is a proof and
     the work can be dropped on any domain without changing the
     result. *)
  let worth ~key score =
    match Incumbent.get incumbent with
    | None -> true
    | Some c ->
      score < c.Incumbent.score
      || (score = c.Incumbent.score && key < c.Incumbent.key)
  in
  let publish_candidate ~key primal score =
    if worth ~key score then begin
      (* snap integers exactly before the feasibility re-check *)
      let snapped = Array.copy primal in
      List.iter (fun v -> snapped.(v) <- Float.round snapped.(v)) int_vars;
      if Model.value_feasible ~tol:1e-6 model snapped then begin
        let c = { Incumbent.score; key; x = snapped } in
        if Incumbent.publish incumbent c then begin
          Metrics.incr (Lazy.force m_incumbents);
          Metrics.set (Lazy.force m_g_incumbent) (of_score score);
          if Trace.enabled sink then
            Trace.emit sink
              (Event.Incumbent
                 { solver = "mip"; node = fst key; objective = of_score score });
          if options.log then
            Printf.eprintf "[mip] incumbent %.6f\n%!" (of_score score)
        end
      end
    end
  in
  (* prune test mirroring the serial solver: a (sharpened) score at or
     above incumbent - gap_tolerance*(1+|incumbent|) cannot improve
     the answer by more than the accepted gap. False while no
     incumbent exists. *)
  let within_gap_of_incumbent score =
    match Incumbent.get incumbent with
    | None -> false
    | Some c ->
      score
      >= c.Incumbent.score
         -. (options.gap_tolerance *. (1.0 +. abs_float c.Incumbent.score))
  in
  (* LP diving: repeatedly fix the most fractional integer variable to
     its rounded value (retrying the opposite value if that kills
     feasibility) until the LP relaxation comes out integral. Much more
     reliable than one-shot rounding on covering-type programs, where
     rounding fractional openings down is almost always infeasible.
     Runs entirely on the domain that owns the node; the candidate is
     published under key (node seq, 1) so the deterministic incumbent
     order covers it. *)
  let diving_heuristic ~seq node primal0 basis0 =
    let lower = Array.copy node.lower and upper = Array.copy node.upper in
    let warm basis = if options.warm_start then Some basis else None in
    let rec dive primal basis fuel =
      if fuel >= 0 then
        match fractional_var primal with
        | None ->
          (* integral: re-solve once to get the continuous completion *)
          let sol =
            Simplex.solve ~lower ~upper ?basis:(warm basis) ~deadline problem
          in
          if sol.Simplex.status = Simplex.Optimal then
            publish_candidate ~key:(seq, 1) sol.Simplex.primal
              (to_score sol.Simplex.objective)
        | Some v ->
          let try_fix value =
            let saved_l = lower.(v) and saved_u = upper.(v) in
            lower.(v) <- value;
            upper.(v) <- value;
            let sol =
              Simplex.solve ~lower ~upper ?basis:(warm basis) ~deadline problem
            in
            if sol.Simplex.status = Simplex.Optimal then Some sol
            else begin
              lower.(v) <- saved_l;
              upper.(v) <- saved_u;
              None
            end
          in
          let rounded = Float.round primal.(v) in
          let rounded = max node.lower.(v) (min node.upper.(v) rounded) in
          let other =
            if rounded +. 1.0 <= upper.(v) +. 1e-9 then rounded +. 1.0
            else rounded -. 1.0
          in
          (match try_fix rounded with
          | Some sol -> dive sol.Simplex.primal sol.Simplex.basis (fuel - 1)
          | None -> (
            match try_fix other with
            | Some sol -> dive sol.Simplex.primal sol.Simplex.basis (fuel - 1)
            | None -> ()))
    in
    dive primal0 basis0 (List.length int_vars)
  in
  let jobs = resolved_jobs options in
  let wave_size = max 1 options.wave in
  let root =
    {
      lower =
        Array.init n (fun v -> Model.var_lb model (Model.var_of_index model v));
      upper =
        Array.init n (fun v -> Model.var_ub model (Model.var_of_index model v));
      depth = 0;
      seq = 0;
      branched = None;
      start_basis = None;
    }
  in
  let nodes = ref (match restore with Some s -> s.s_nodes | None -> 0) in
  (* least score over subtrees closed without being searched; only
     ever lowered, so it starts at +inf *)
  let best_open_bound =
    ref (match restore with Some s -> s.s_best_open | None -> infinity)
  in
  let root_unbounded = ref false in
  let infeasible_root =
    ref (match restore with Some s -> s.s_infeasible_root | None -> true)
  in
  (* Two tiers of stop flags. [merge_*] is what checkpoints persist:
     stops observed at merges (node iteration limits, in-flight
     deadline hits) are genuine search state that must survive a
     resume. A halt caused by this run's own max_nodes cut, deadline
     or preemption is an artifact of the interruption — the resumed
     run keeps searching — so it is absorbed only by the outer
     [stopped_at_limit]/[deadline_stop] flags that drive this run's
     result. Persisting the outer flags would permanently poison a
     resumed result's status. *)
  let merge_stopped =
    ref (match restore with Some s -> s.s_stopped | None -> false)
  in
  let merge_deadline =
    ref (match restore with Some s -> s.s_deadline_stop | None -> false)
  in
  let stopped_at_limit = ref !merge_stopped in
  let () = if !merge_deadline then deadline_stop := true in
  let preempted = ref false in

  (* -------------- deterministic wave scheduler -------------------

     The coordinator repeats: pop up to [wave] nodes from the
     best-bound heap (assigning node numbers, emitting bb_node events
     and deciding stop conditions — all heap-order-deterministic),
     publish them to the wave pool, barrier, then merge the LP
     outcomes in wave order. Everything order-sensitive — pseudocost
     updates, branching decisions, child seq assignment, bound
     pruning, chaos draws — happens at the merge, on this domain, in
     wave order; workers only solve LPs and offer candidates to the
     exact-ordered incumbent. Node counts, the incumbent, objective,
     bound and gap are therefore identical for every [jobs] value. *)
  let solve_deterministic () =
    let queue = H.create () in
    let next_seq = ref 1 in
    let pc = pc_create n in
    (match restore with
    | Some s ->
      (* verbatim internal arrays: pop order among equal keys is part
         of the determinism contract (see Heap.snapshot) *)
      H.restore queue s.s_heap_keys s.s_heap_nodes;
      next_seq := s.s_next_seq;
      List.iter
        (fun (v, d, dn, u, un) ->
          if v >= 0 && v < n then begin
            pc.pc_down.(v) <- d;
            pc.pc_down_n.(v) <- dn;
            pc.pc_up.(v) <- u;
            pc.pc_up_n.(v) <- un
          end)
        s.s_pc;
      if Trace.enabled sink then
        Trace.emit sink
          (Event.Checkpoint_resume
             { path = s.s_path; nodes = s.s_nodes; frontier = H.size queue })
    | None -> H.push queue neg_infinity root);
    let process_task (t : task) =
      (* Scoped chaos is suppressed during node processing: a fault
         injected into one node LP (say a singular warm basis) is
         recovered to the same optimum but possibly a different basis
         and primal, and which domain solves which node is timing-
         dependent — letting it fire here would break jobs-invariance.
         Chaos still hits the deterministic coordinator points
         (deadline compression at entry, NaN poisoning at merge) and
         every LP solve outside the parallel section. *)
      Chaos.suppress @@ fun () ->
      let node = t.t_node in
      let sol =
        Simplex.solve ~lower:node.lower ~upper:node.upper
          ?basis:(if options.warm_start then node.start_basis else None)
          ~deadline problem
      in
      match sol.Simplex.status with
      | Simplex.Infeasible -> t.t_outcome <- O_infeasible
      | Simplex.Iteration_limit -> t.t_outcome <- O_iter_limit
      | Simplex.Deadline_reached -> t.t_outcome <- O_deadline
      | Simplex.Unbounded -> t.t_outcome <- O_unbounded
      | Simplex.Optimal ->
        let raw = to_score sol.Simplex.objective in
        (match fractional_var sol.Simplex.primal with
        | None ->
          publish_candidate ~key:(node.seq, 0) sol.Simplex.primal (sharpen raw)
        | Some _ ->
          (* skipping a provably-losing dive is result-invariant (see
             Incumbent); (node.seq, 1) bounds every candidate the dive
             could offer from below *)
          if t.t_dive && worth ~key:(node.seq, 1) raw then
            diving_heuristic ~seq:node.seq node sol.Simplex.primal
              sol.Simplex.basis);
        t.t_outcome <-
          O_optimal
            { raw; primal = sol.Simplex.primal; basis = sol.Simplex.basis }
    in
    (* the pool runs the root (a singleton wave) inline on this
       domain, so the root LP forces every kernel-internal lazy before
       a worker domain can race it; a serial solve needs no pool *)
    let pool =
      if jobs = 1 then None
      else
        Some
          (Wave_pool.create ~jobs ~process:(fun _w t -> process_task t) ~sink)
    in
    let run_tasks ts =
      match pool with
      | None -> List.iter process_task ts
      | Some pool -> Wave_pool.run pool ts
    in
    let searching = ref true in
    let merge (t : task) =
      let node = t.t_node in
      match t.t_outcome with
      | O_pending ->
        (* unreachable: a worker failure re-raises from Wave_pool.run
           before the merge runs *)
        assert false
      | O_infeasible -> ()
      | O_iter_limit ->
        (* treat as unresolved: keep the parent bound, re-queueing
           would loop, so give up on this subtree pessimistically by
           keeping it open in the bound accounting *)
        best_open_bound := min !best_open_bound t.t_bound;
        merge_stopped := true;
        stopped_at_limit := true
      | O_deadline ->
        (* same pessimistic accounting; the collection loop notices
           the expired deadline on the next wave *)
        best_open_bound := min !best_open_bound t.t_bound;
        merge_stopped := true;
        merge_deadline := true;
        stopped_at_limit := true;
        deadline_stop := true
      | O_unbounded ->
        infeasible_root := false;
        if node.depth = 0 then begin
          root_unbounded := true;
          searching := false
        end
      | O_optimal { raw; primal; basis } ->
        infeasible_root := false;
        (* NaN guard: a poisoned node objective would silently rank
           the subtree as best-possible in the heap and corrupt every
           bound downstream, so it is a typed numerical failure
           instead. Chaos poisons the score here — at the merge, a
           deterministic point, so the draw sequence is jobs-invariant
           — to prove the guard (and the ladder above it) works. *)
        let raw =
          if Chaos.fire ~site:"mip.nan_cost" ~p:0.05 () then Float.nan else raw
        in
        if Float.is_nan raw then
          Error.numerical ~stage:"mip.node_lp"
            ~detail:
              (Printf.sprintf "NaN relaxation objective at node %d" t.t_num);
        record_pseudocost pc node raw;
        let score = sharpen raw in
        if within_gap_of_incumbent score then begin
          Metrics.incr (Lazy.force m_prunes);
          if Trace.enabled sink then
            Trace.emit sink
              (Event.Bound_pruned
                 { solver = "mip"; node = t.t_num; bound = Some (of_score score);
                   incumbent = Some (of_score (inc_score_now ())) })
        end
        else (
          match branch_var pc primal with
          | None ->
            (* integral: the candidate was already offered worker-side
               under key (seq, 0) *)
            ()
          | Some v ->
            let x = primal.(v) in
            let f = floor (x +. itol) in
            let frac = x -. f in
            (* both children differ from this node by one bound, so
               this relaxation's basis stays dual feasible for them *)
            let child_basis = Some basis in
            let down =
              {
                node with
                upper = Array.copy node.upper;
                depth = node.depth + 1;
                seq = !next_seq;
                branched = Some (v, `Down, raw, frac);
                start_basis = child_basis;
              }
            in
            down.upper.(v) <- f;
            let up =
              {
                node with
                lower = Array.copy node.lower;
                depth = node.depth + 1;
                seq = !next_seq + 1;
                branched = Some (v, `Up, raw, frac);
                start_basis = child_basis;
              }
            in
            up.lower.(v) <- f +. 1.0;
            next_seq := !next_seq + 2;
            if down.upper.(v) >= down.lower.(v) -. 1e-9 then
              H.push queue score down;
            if up.lower.(v) <= up.upper.(v) +. 1e-9 then H.push queue score up)
    in
    (* Checkpoint writes happen here — at a wave barrier, on the
       coordinating domain, with no task in flight — so the heap, the
       pseudocosts and [next_seq] are a consistent snapshot of the
       search. [merge_*] (not the outer stop flags) are what goes to
       disk; see their definition above. *)
    let last_ck = ref (Clock.now ()) in
    let ck_seconds = ref 0.0 in
    let ck_model = lazy (ck_model_lines model) in
    let write_checkpoint () =
      match options.checkpoint with
      | None -> ()
      | Some path ->
        let t0 = Clock.now () in
        let lines =
          ck_encode ~model ~model_lines:(Lazy.force ck_model) ~options
            ~elapsed:(elapsed_base +. Deadline.elapsed deadline)
            ~nodes:!nodes ~next_seq:!next_seq ~best_open:!best_open_bound
            ~stopped:!merge_stopped ~deadline_stop:!merge_deadline
            ~infeasible_root:!infeasible_root
            ~incumbent:(Incumbent.get incumbent)
            ~pc ~queue
        in
        Ckpt.write ~path ~magic:ck_magic ~version:ck_version lines;
        let dt = Clock.now () -. t0 in
        ck_seconds := !ck_seconds +. dt;
        Metrics.incr (Lazy.force m_ck_writes);
        Metrics.set (Lazy.force m_g_ck_clock) (Clock.now ());
        Metrics.set (Lazy.force m_g_ck_seconds) !ck_seconds;
        if Trace.enabled sink then
          Trace.emit sink
            (Event.Checkpoint_write
               { path; nodes = !nodes; frontier = H.size queue; seconds = dt });
        last_ck := Clock.now ();
        process_kill_site ()
    in
    Fun.protect
      ~finally:(fun () -> Option.iter Wave_pool.shutdown pool)
    @@ fun () ->
    while !searching do
      if Preempt.requested () then begin
        (* cooperative preemption lands exactly like a node-budget
           stop: the incumbent and the certified bound remain valid,
           and the final checkpoint below captures the frontier *)
        preempted := true;
        stopped_at_limit := true;
        searching := false;
        if Trace.enabled sink then
          Trace.emit sink (Event.Preempt_stop { phase = "mip"; nodes = !nodes });
        Flightrec.trigger ~reason:"preempt"
      end
      else begin
        let halt = ref false in
        let rev_tasks = ref [] in
        let count = ref 0 in
        let filling = ref true in
        while !filling && !count < wave_size do
          match H.min queue with
          | None -> filling := false
          | Some (parent_bound, node) ->
            if !nodes >= options.max_nodes || Deadline.expired deadline
            then begin
              (* peek, don't pop: the node stays on the heap so the
                 final checkpoint and the post-loop drain both see the
                 complete frontier *)
              if Deadline.expired deadline then deadline_stop := true;
              stopped_at_limit := true;
              halt := true;
              filling := false
            end
            else if within_gap_of_incumbent parent_bound then begin
              (* best-first: every remaining node is at least as bad.
                 That closes the search only on an empty wave: nodes
                 already dealt into this one branch at the merge, and
                 their children may sit below this bound, so the wave
                 runs and the next fill re-examines the heap. *)
              if !count = 0 then begin
                ignore (H.pop_min queue);
                if Trace.enabled sink then
                  Trace.emit sink
                    (Event.Bound_pruned
                       { solver = "mip"; node = !nodes;
                         bound = Some (of_score parent_bound);
                         incumbent = Some (of_score (inc_score_now ())) });
                best_open_bound := min !best_open_bound parent_bound;
                halt := true
              end;
              filling := false
            end
            else begin
              ignore (H.pop_min queue);
              incr nodes;
              incr count;
              Metrics.incr (Lazy.force m_nodes);
              publish_bound_watermark parent_bound;
              if Trace.enabled sink then begin
                let w = Sampler.decide Sampler.Bb_node in
                if w > 0 then
                  Trace.emit sink
                    (Event.Bb_node
                       { solver = "mip"; node = !nodes; depth = node.depth;
                         bound = Some (of_score parent_bound); sampled_of = w })
              end;
              let t_dive =
                options.heuristic_period > 0
                && (!nodes = 1 || !nodes mod options.heuristic_period = 0)
              in
              rev_tasks :=
                {
                  t_node = node;
                  t_bound = parent_bound;
                  t_num = !nodes;
                  t_dive;
                  t_outcome = O_pending;
                }
                :: !rev_tasks
            end
        done;
        let tasks = List.rev !rev_tasks in
        if tasks = [] && not !halt then searching := false
        else begin
          run_tasks tasks;
          List.iter merge tasks;
          if !halt then searching := false;
          if
            !searching
            && options.checkpoint <> None
            && Clock.now () -. !last_ck >= options.checkpoint_every
          then write_checkpoint ()
        end
      end
    done;
    (* interrupted (budget, deadline or preemption): one final
       checkpoint before the heap is drained, so a resume restarts
       from exactly this barrier *)
    if !stopped_at_limit then write_checkpoint ();
    (* fold any still-queued nodes into the bound *)
    if !stopped_at_limit then begin
      let rec drain () =
        match H.pop_min queue with
        | None -> ()
        | Some (b, _) ->
          best_open_bound := min !best_open_bound b;
          drain ()
      in
      drain ()
    end
  in

  solve_deterministic ();
  let inc = Incumbent.get incumbent in
  let inc_score =
    match inc with Some c -> c.Incumbent.score | None -> infinity
  in
  let bound_score = min !best_open_bound inc_score in
  let gap =
    if inc_score = infinity || bound_score = neg_infinity then infinity
    else (inc_score -. bound_score) /. max 1.0 (abs_float inc_score)
  in
  let status =
    if !root_unbounded then Unbounded
    else
      match inc with
      | Some _ ->
        if (not !stopped_at_limit) || gap <= options.gap_tolerance then Optimal
        else Feasible
      | None -> if !stopped_at_limit then No_solution else Infeasible
  in
  if !deadline_stop then begin
    if Trace.enabled sink then
      Trace.emit sink
        (Event.Deadline_hit
           { phase = "mip"; elapsed = Deadline.elapsed deadline;
             budget = Some budget });
    if options.log then
      Printf.eprintf "[mip] deadline hit after %.3fs (budget %.3fs)\n%!"
        (Deadline.elapsed deadline) budget
  end;
  let result =
    {
      status;
      objective =
        (match inc with Some c -> of_score c.Incumbent.score | None -> nan);
      solution = (match inc with Some c -> Some c.Incumbent.x | None -> None);
      bound = of_score bound_score;
      nodes = !nodes;
      gap = (if status = Optimal then 0.0 else gap);
      deadline_hit = !deadline_stop;
      preempted = !preempted;
    }
  in
  (* the watermarks end on the answer, not on the last expanded node *)
  Metrics.set (Lazy.force m_g_incumbent) result.objective;
  Metrics.set (Lazy.force m_g_bound) result.bound;
  Metrics.set (Lazy.force m_g_gap) result.gap;
  result

let solve ?(options = default_options) model =
  check_deterministic ~fn:"Mip.solve" options;
  solve_gen ~options ~restore:None model

(* Options split on resume: the checkpoint owns everything that shapes
   the search tree (branching rule, tolerances, heuristic period, warm
   start, wave size) — honoring caller overrides there would
   silently break the bit-identity contract. The caller keeps the
   run-environment knobs: jobs (results are jobs-invariant), budgets,
   logging and where the next checkpoint goes (defaulting to
   overwriting the file being resumed). *)
let resume ?(options = default_options) path =
  check_deterministic ~fn:"Mip.resume" options;
  let version, body = Ckpt.load ~path ~magic:ck_magic in
  if version <> ck_version then
    Error.parse_error ~file:path ~line:1
      (Printf.sprintf
         "unsupported checkpoint version %d (this build reads version %d)"
         version ck_version);
  let s = ck_decode ~path body in
  let options =
    {
      s.s_options with
      jobs = options.jobs;
      max_nodes = options.max_nodes;
      time_limit = options.time_limit;
      log = options.log;
      checkpoint =
        (match options.checkpoint with None -> Some path | c -> c);
      checkpoint_every = options.checkpoint_every;
    }
  in
  solve_gen ~options ~restore:(Some s) s.s_model

(* A result without a usable solution becomes a typed error:
   infeasibility and unboundedness are properties of the model, a
   deadline stop is a deadline error, anything else (node budget,
   iteration limits) is internal. *)
let solve_or_fail ?options ~stage model =
  let r = solve ?options model in
  match (r.status, r.solution) with
  | (Optimal | Feasible), Some x -> (x, r.status = Optimal)
  | Infeasible, _ -> Error.infeasible (stage ^ ": no feasible solution exists")
  | Unbounded, _ -> Error.numerical ~stage ~detail:"relaxation unbounded"
  | _ when r.deadline_hit ->
    let limit = (Option.value options ~default:default_options).time_limit in
    Error.deadline_exceeded ~phase:stage ~elapsed:limit
  | _ ->
    Error.internal
      (Printf.sprintf "%s: solver stopped without a solution after %d nodes"
         stage r.nodes)
