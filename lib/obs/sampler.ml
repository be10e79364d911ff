(* Deterministic adaptive head-sampling for high-frequency trace
   events.

   Each event class keeps a per-domain (seen, stride) pair: the first
   [threshold] events of a class pass 1:1, and once the class has
   emitted [threshold] blocks at the current stride, the stride
   multiplies by 8 (capped) at the next ordinal that is a multiple of
   the new stride. An event is kept iff its sequence number is a
   multiple of the stride, and a kept event carries the stride as its
   [sampled_of] weight, standing for itself and the stride - 1
   dropped events after it. Every ordinal therefore belongs to exactly
   one kept block: over the first N events the weights sum to at
   least N and to less than N plus the last kept weight, which is
   what lets Profile/Converge rescale exactly while the trace volume
   grows only logarithmically in the event count.

   No randomness anywhere: the decision is a pure function of the
   class's per-domain event ordinal, so a replayed run (same seed,
   same jobs) samples the same events. State is per domain (DLS), so
   worker domains never contend and each domain's stream is
   self-consistent. *)

type cls = Bb_node | Simplex_phase | Flow_pivot | Span of string

let max_stride = 4096

(* 0 = sampling off (every decide returns weight 1). Plain ref: set
   once at startup before worker domains spawn; racing reads of an
   immediate int are atomic. *)
let threshold_ref =
  ref
    (match Sys.getenv_opt "MONPOS_TRACE_SAMPLE" with
    | Some s -> ( match int_of_string_opt (String.trim s) with
      | Some t when t > 0 -> t
      | _ -> 0)
    | None -> 0)

let configure ~threshold = threshold_ref := max 0 threshold

let disable () = threshold_ref := 0

let threshold () = !threshold_ref

let enabled () = !threshold_ref > 0

type cls_state = { mutable seen : int; mutable stride : int }

type state = {
  bb : cls_state;
  sp : cls_state;
  fp : cls_state;
  spans : (string, cls_state) Hashtbl.t;
}

let fresh_cls () = { seen = 0; stride = 1 }

let state_key =
  Domain.DLS.new_key (fun () ->
      {
        bb = fresh_cls ();
        sp = fresh_cls ();
        fp = fresh_cls ();
        spans = Hashtbl.create 8;
      })

let cls_state st = function
  | Bb_node -> st.bb
  | Simplex_phase -> st.sp
  | Flow_pivot -> st.fp
  | Span name -> (
    match Hashtbl.find_opt st.spans name with
    | Some s -> s
    | None ->
      let s = fresh_cls () in
      Hashtbl.add st.spans name s;
      s)

let decide cls =
  let threshold = !threshold_ref in
  if threshold = 0 then 1
  else begin
    let s = cls_state (Domain.DLS.get state_key) cls in
    let n = s.seen in
    s.seen <- n + 1;
    (* raise the stride only at a multiple of the new one: the kept
       event there opens a full block, so no ordinal between the last
       block of the old stride and the first of the new goes
       unweighted *)
    if s.stride < max_stride && n >= threshold * s.stride then begin
      let next = min max_stride (s.stride * 8) in
      if n mod next = 0 then s.stride <- next
    end;
    if n mod s.stride = 0 then s.stride else 0
  end

(* tests reset the calling domain's streams between scenarios *)
let reset () =
  let st = Domain.DLS.get state_key in
  let zero (s : cls_state) =
    s.seen <- 0;
    s.stride <- 1
  in
  zero st.bb;
  zero st.sp;
  zero st.fp;
  Hashtbl.reset st.spans
