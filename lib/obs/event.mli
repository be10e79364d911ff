(** The trace event schema: the typed events writers emit, and the one
    codec between them and JSONL trace lines.

    Every event name and field key of the trace format lives in this
    module. Writers build an {!t} and hand it to {!Trace.emit}, which
    encodes it with {!encode}; readers decode lines back with
    {!of_json} / {!decode}. [decode (encode e)] is [e].

    Decoding follows a skip-unknown forward-compatibility contract: an
    event name this schema does not know — or a known event whose
    required fields are missing or mistyped — decodes as {!Unknown}
    instead of failing the read, and extra fields on known events are
    ignored. Numeric fields the writer rendered as [null]
    (nan/infinities) decode as [None] where the event models them as
    optional.

    {b Sampling weights.} The high-frequency events carry
    [sampled_of]: when the adaptive {!Sampler} keeps one event on
    behalf of a block of [w] (itself included), the event stands for
    [w] occurrences, and summing [sampled_of] over the kept events of
    a class gives at least the true count and less than the true count
    plus the last kept weight. Weight 1 adds no field, so unsampled
    traces carry no [sampled_of] at all. *)

type gc_delta = {
  minor_words : float;
  major_words : float;
  promoted_words : float;
  major_collections : int;
  top_heap_words : int;
}
(** GC deltas over a span: words allocated on the minor heap (exact,
    from [Gc.minor_words]) and, as [Gc.quick_stat] counts them at
    collections, on the major heap, words promoted, major collections
    run, and growth of the major heap's high-water mark. All fields
    are differences of monotone GC counters, so they are
    non-negative. *)

type t =
  | Span_open of { name : string; depth : int }
  | Span_close of {
      name : string;
      depth : int;
      seconds : float;
      gc : gc_delta option;
          (** allocation accounting; [None] for traces written before
              GC sampling existed *)
      sampled_of : int;
    }
  | Bb_node of {
      solver : string;  (** ["mip"] (LP-based) or ["cover"] (set cover) *)
      node : int;
      depth : int;
      bound : float option;
      sampled_of : int;
    }  (** a branch-and-bound node was visited *)
  | Incumbent of { solver : string; node : int; objective : float }
      (** the incumbent improved (the initial heuristic one included) *)
  | Bound_pruned of {
      solver : string;
      node : int;
      bound : float option;
      incumbent : float option;
    }
  | Warm_start of {
      dual_feasible : bool;
      iterations : int;
          (** dual-simplex pivots (0 when the basis was installed but
              the primal phases ran instead) *)
      kernel : string;  (** the linear-algebra kernel, ["sparse_lu"] *)
      outcome : string;
          (** ["reoptimal"], ["primal_fallback"], ["infeasible_guess"],
              ["iteration_limit"] or ["deadline"] *)
    }  (** a simplex solve started from a caller-supplied basis *)
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
      (** a batch of network-simplex pivots inside one flow solve:
          cumulative pivot count and current (shifted) objective *)
  | Flow_solve of { algo : string; pivots : int; warm : bool; status : string }
      (** one min-cost-flow solve: kernel name (["ssp"] or
          ["netsimplex"]), pivot count (0 for SSP), whether the basis
          warm started, and final status *)
  | Ladder_descent of {
      solver : string;
      from_rung : string;
      to_rung : string;
      reason : string;
    }  (** the degradation ladder fell one rung *)
  | Recovery of { stage : string; detail : string }
      (** a solver recovered internally from a fault *)
  | Deadline_hit of { phase : string; elapsed : float; budget : float option }
      (** a wall-clock budget expired inside [phase] *)
  | Chaos_inject of { site : string }
      (** the fault-injection harness fired at [site] *)
  | Stack_sample of { stack : string; domain : int }
      (** one wall-clock profiler tick: the open span stack of the
          sampled [domain], outermost first, [;]-joined
          (folded-stack format). The ticker emits it on behalf of
          [domain], so the line's ["domain"] field names the sampled
          domain, not the emitting one. *)
  | Run_info of {
      run_id : string;
      git_rev : string option;
      ocaml_version : string option;
      hostname : string option;
      chaos_seed : int option;
      jobs : int option;
      scheduler : string option;
      argv : string list;
    }  (** the run manifest stamped at the head of every traced run *)
  | Checkpoint_write of {
      path : string;
      nodes : int;
      frontier : int;
      seconds : float;
    }
      (** a branch-and-bound checkpoint was atomically written:
          [nodes] explored so far, [frontier] open nodes captured,
          the write took [seconds] *)
  | Checkpoint_resume of { path : string; nodes : int; frontier : int }
      (** a search resumed from the checkpoint at [path] *)
  | Worker_failure of { slot : int; reason : string }
      (** a worker domain died; the supervisor marked [slot] dead and
          requeued its work on the survivors *)
  | Preempt_stop of { phase : string; nodes : int }
      (** SIGINT/SIGTERM stopped the search cooperatively at a wave
          barrier *)
  | Server_shutdown of { served : int }
      (** the scrape server exited gracefully after [served] requests *)
  | Unknown of string  (** carries the unrecognized event name *)

type record = { ts : float; domain : int; event : t }
(** One trace line. [ts] is seconds since the writing sink was created
    (0. if the field is absent). [domain] is the id of the domain the
    line belongs to: the writer stamps it only on events from spawned
    domains (and on every {!Stack_sample}), so events from the initial
    domain — and every event of a trace predating parallel solves —
    decode as domain [0]. Consumers replaying stateful event pairs
    (span_open/span_close) must key their state by [domain], since
    parallel solves interleave the per-domain streams in file order. *)

val name : t -> string
(** The event's ["ev"] name. *)

val encode : ?domain:int -> t -> (string * Json.t) list
(** The event's fields, in line order. [domain], the id of the
    emitting domain, is appended when given — except on
    {!Stack_sample}, which names its sampled domain itself. *)

val decode : ev:string -> (string * Json.t) list -> t
(** Decode one event from its name and fields. Also usable by live
    consumers fed through {!Trace.custom}, which see events as name +
    fields without a JSON round-trip. *)

val render_line :
  Buffer.t -> float -> string -> (string * Json.t) list -> unit
(** Append one line (one JSON object plus newline): the name under
    ["ev"], the timestamp under ["ts"], then the fields. The channel
    sinks and the flight recorder's dump both render through this, so
    their output is byte-compatible. *)

val of_json : Json.t -> record option
(** [None] when the value has no string ["ev"] field at all (not a
    trace event); otherwise always produces a record, degrading to
    {!Unknown} as described above. *)
