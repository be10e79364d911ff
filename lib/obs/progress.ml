(* Throttled in-place progress reporter, fed live through a
   Trace.custom sink (typically fanned out next to a file sink).
   On a terminal it renders "\r nodes .. incumbent .. gap .. elapsed"
   onto one line at most every [interval] seconds, padding to a fixed
   width so a shorter line fully overwrites a longer one. When the
   output is not a tty (a pipe, a CI log) carriage returns would smear
   every repaint onto one unreadable mega-line, so it falls back to
   whole newline-terminated lines at a coarser throttle. *)

type state = {
  oc : out_channel;
  tty : bool;
  interval : float;
  lock : Mutex.t; (* worker domains emit into the same sink *)
  conv : Converge.acc;
  mutable last_ts : float;
  mutable last_render : float; (* Clock time of the last repaint *)
  mutable rendered : bool;
}

(* The figures are Converge's for the current solver, so a
   head-sampled trace reports its weighted node count. *)
let line st =
  let cell name = function
    | None -> Printf.sprintf "%s -" name
    | Some v -> Printf.sprintf "%s %.6g" name v
  in
  let solver, nodes, incumbent, bound, gap =
    match Converge.current st.conv with
    | None -> ("solve", 0, None, None, None)
    | Some s ->
      (s.Converge.solver, s.nodes, s.final_incumbent, s.final_bound, s.final_gap)
  in
  Printf.sprintf "[%s] nodes %d  %s  %s  %s  %.1fs" solver nodes
    (cell "incumbent" incumbent) (cell "bound" bound)
    (match gap with
    | Some g -> Printf.sprintf "gap %.2f%%" (100.0 *. g)
    | None -> "gap -")
    st.last_ts

let width = 78

let repaint st =
  let s = line st in
  if st.tty then begin
    let s =
      if String.length s >= width then String.sub s 0 width
      else s ^ String.make (width - String.length s) ' '
    in
    output_char st.oc '\r';
    output_string st.oc s
  end
  else begin
    output_string st.oc s;
    output_char st.oc '\n'
  end;
  flush st.oc;
  st.rendered <- true

(* one line per second is plenty for a log file; a terminal can take
   the default 10 Hz repaint *)
let non_tty_interval = 1.0

let is_tty oc =
  try Unix.isatty (Unix.descr_of_out_channel oc) with Unix.Unix_error _ -> false

let sink ?interval ?(oc = stderr) ?tty () =
  let tty = match tty with Some b -> b | None -> is_tty oc in
  let interval =
    match interval with
    | Some i -> i
    | None -> if tty then 0.1 else non_tty_interval
  in
  let st =
    {
      oc;
      tty;
      interval;
      lock = Mutex.create ();
      conv = Converge.create ();
      last_ts = 0.0;
      last_render = neg_infinity;
      rendered = false;
    }
  in
  let on_event ts ev fields =
    Mutex.protect st.lock (fun () ->
        st.last_ts <- ts;
        Converge.add st.conv
          { Trace_reader.ts; domain = 0; event = Trace_reader.decode ~ev fields };
        let now = Clock.now () in
        if now -. st.last_render >= st.interval then begin
          st.last_render <- now;
          repaint st
        end)
  in
  let close () =
    if st.rendered then begin
      repaint st;
      (* the tty repaint leaves the cursor mid-line; the fallback lines
         already end in a newline *)
      if st.tty then output_char st.oc '\n';
      flush st.oc
    end
  in
  Trace.custom ~close on_event
