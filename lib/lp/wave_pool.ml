module Trace = Monpos_obs.Trace
module Event = Monpos_obs.Event
module Metrics = Monpos_obs.Metrics
module Clock = Monpos_obs.Clock
module Flightrec = Monpos_obs.Flightrec
module Error = Monpos_resilience.Error
module Chaos = Monpos_resilience.Chaos

let m_failures = lazy (Metrics.counter Metrics.default "mip.worker_failures")

(* per-slot series, labeled by slot (0 = the calling domain), not by
   runtime domain id: slot labels keep the series cardinality bounded
   by [jobs] where raw domain ids would grow without bound across
   pools. The node split has a family of its own: under Mip's
   [mip.nodes] a sum over the family would count every node twice.
   Registration happens on the calling domain only (before spawn or
   after join); workers touch nothing but forced handles. *)
let nodes_counter w =
  Metrics.counter
    ~labels:[ ("domain", string_of_int w) ]
    Metrics.default "mip.slot_nodes"

let idle_gauge w =
  Metrics.gauge
    ~labels:[ ("domain", string_of_int w) ]
    Metrics.default "mip.idle_seconds"

(* chaos site [domain.die]: the injected fail-stop worker death. The
   exception deliberately is not [Error.Error] — the supervisor must
   treat it like any other unexpected worker crash. *)
exception Worker_killed of int

(* a task's third failure propagates: past that it is evidently the
   task's own (a deterministic bug), not the slot's *)
let max_failures = 3

type 'a entry = {
  task : 'a;
  (* how many slots have already died while holding this task *)
  mutable tries : int;
}

(* One published wave: the tasks and the index of the next unclaimed
   one. Each wave is a fresh record, so a straggler still claiming from
   the previous wave's counter can never take a task of this one, and
   the record's identity doubles as the wave's generation. *)
type 'a wave = { tasks : 'a entry array; next : int Atomic.t }

(* The barrier is [remaining] reaching zero under [lock]; [wave] and
   [remaining] change together, under [lock], once per wave. *)
type 'a t = {
  jobs : int;
  process : int -> 'a -> unit;
  sink : Trace.sink;
  lock : Mutex.t;
  cond : Condition.t;
  mutable wave : 'a wave;
  mutable remaining : int;
  mutable quit : bool;
  mutable failure : exn option;
  (* fail-stop supervision state: a slot whose task raised is marked
     dead (written only by that slot), its task moves to [retry]
     (guarded by [lock]), and the surviving slots drain it. Slot 0 is
     never marked dead. *)
  dead : bool array;
  retry : 'a entry Queue.t;
  idle : float array;
  nodes_w : Metrics.counter Lazy.t array;
  mutable domains : unit Domain.t array;
  (* set by the first claim any worker makes in the pool's lifetime *)
  worker_claimed : bool Atomic.t;
}

let create ~jobs ~process ~sink =
  if jobs < 1 then invalid_arg "Wave_pool.create: jobs < 1";
  {
    jobs;
    process;
    sink;
    lock = Mutex.create ();
    cond = Condition.create ();
    wave = { tasks = [||]; next = Atomic.make 0 };
    remaining = 0;
    quit = false;
    failure = None;
    dead = Array.make jobs false;
    retry = Queue.create ();
    idle = Array.make jobs 0.0;
    nodes_w = Array.init jobs (fun w -> lazy (nodes_counter w));
    domains = [||];
    worker_claimed = Atomic.make false;
  }

let claim pool wave =
  let i = Atomic.fetch_and_add wave.next 1 in
  if i < Array.length wave.tasks then Some wave.tasks.(i)
  else Mutex.protect pool.lock (fun () -> Queue.take_opt pool.retry)

let record_failure pool e =
  Mutex.protect pool.lock (fun () ->
      match pool.failure with
      | None -> pool.failure <- Some e
      | Some _ -> ())

let task_done pool =
  Mutex.protect pool.lock (fun () ->
      pool.remaining <- pool.remaining - 1;
      if pool.remaining = 0 then Condition.broadcast pool.cond)

(* Fail-stop containment for a dying slot: the slot is marked dead,
   the one task it held moves to the retry queue, and the survivors
   are woken to drain it. [remaining] is deliberately not decremented —
   the barrier completes only once a survivor has actually finished
   the task. *)
let supervise_failure pool w entry e =
  entry.tries <- entry.tries + 1;
  Mutex.protect pool.lock (fun () ->
      pool.dead.(w) <- true;
      Queue.push entry pool.retry;
      (* forced under the lock: two slots dying at once must not race
         the lazy *)
      Metrics.incr (Lazy.force m_failures);
      Condition.broadcast pool.cond);
  if Trace.enabled pool.sink then
    Trace.emit pool.sink
      (Event.Worker_failure { slot = w; reason = Printexc.to_string e });
  Flightrec.trigger ~reason:"worker_failure"

(* Slot [w] works on [wave] until it is done: claim, process, repeat;
   with nothing left to claim, wait for the barrier — or, on a worker,
   for the next wave, which ends this one for it. *)
let rec drain pool w wave =
  if not pool.dead.(w) then
    match claim pool wave with
    | Some entry -> (
      let first_worker_claim =
        w > 0 && not (Atomic.exchange pool.worker_claimed true)
      in
      if first_worker_claim then
        Mutex.protect pool.lock (fun () -> Condition.broadcast pool.cond);
      match
        (* the die site fires only on a task's first attempt: a slot
           picking up a requeued task must not die on it again, or a
           single unlucky task could fell every slot in turn. The
           pool's first worker claim always dies, so an armed seed
           injects a death however the slots happen to be scheduled *)
        if
          w > 0 && entry.tries = 0
          && Chaos.fire ~scoped:false ~site:"domain.die"
               ~p:(if first_worker_claim then 1.0 else 0.02)
               ()
        then raise (Worker_killed w)
        else pool.process w entry.task
      with
      | () ->
        Metrics.incr (Lazy.force pool.nodes_w.(w));
        task_done pool;
        drain pool w wave
      | exception e ->
        let supervisable =
          w > 0
          && entry.tries + 1 < max_failures
          && match e with Error.Error _ -> false | _ -> true
        in
        if supervisable then supervise_failure pool w entry e
        else begin
          record_failure pool e;
          task_done pool;
          drain pool w wave
        end)
    | None ->
      let finished =
        Mutex.protect pool.lock (fun () ->
            if pool.remaining > 0 && pool.wave == wave && not pool.quit
            then begin
              let t0 = Clock.now () in
              Condition.wait pool.cond pool.lock;
              pool.idle.(w) <- pool.idle.(w) +. (Clock.now () -. t0);
              false
            end
            else true)
      in
      if not finished then drain pool w wave

let rec worker_loop pool w wave =
  let next =
    Mutex.protect pool.lock (fun () ->
        let t0 = Clock.now () in
        while (not pool.quit) && pool.wave == wave do
          Condition.wait pool.cond pool.lock
        done;
        pool.idle.(w) <- pool.idle.(w) +. (Clock.now () -. t0);
        if pool.quit then None else Some pool.wave)
  in
  match next with
  | None ->
    (* domain exit: push out any events this domain buffered, so a
       reader never sees a torn per-domain span pair *)
    Trace.flush pool.sink
  | Some wave ->
    drain pool w wave;
    worker_loop pool w wave

let spawn pool =
  Array.iter (fun c -> ignore (Lazy.force c)) pool.nodes_w;
  let wave = pool.wave in
  pool.domains <-
    Array.init (pool.jobs - 1) (fun i ->
        Domain.spawn (fun () -> worker_loop pool (i + 1) wave))

let run pool = function
  | [] -> ()
  | [ task ] ->
    (* singleton waves (a B&B root above all) run inline: they never
       pay a spawn, and the first one runs before any worker exists *)
    pool.process 0 task;
    Metrics.incr (Lazy.force pool.nodes_w.(0))
  | tasks ->
    if pool.jobs > 1 && Array.length pool.domains = 0 then spawn pool;
    let tasks = List.map (fun task -> { task; tries = 0 }) tasks in
    let wave = { tasks = Array.of_list tasks; next = Atomic.make 0 } in
    Mutex.protect pool.lock (fun () ->
        pool.wave <- wave;
        pool.remaining <- Array.length wave.tasks;
        Condition.broadcast pool.cond);
    (* under an armed chaos seed slot 0 waits for a worker's first
       claim: on a busy machine it could otherwise finish whole waves
       before any worker wakes, and [domain.die] would never draw *)
    if pool.jobs > 1 && Chaos.active () then
      Mutex.protect pool.lock (fun () ->
          while not (Atomic.get pool.worker_claimed) do
            Condition.wait pool.cond pool.lock
          done);
    (* slot 0 is never dead and nothing else publishes a wave, so this
       returns exactly at the barrier *)
    drain pool 0 wave;
    match pool.failure with
    | Some e ->
      pool.failure <- None;
      raise e
    | None -> ()

let shutdown pool =
  Mutex.protect pool.lock (fun () ->
      pool.quit <- true;
      Condition.broadcast pool.cond);
  Array.iter Domain.join pool.domains;
  Array.iteri
    (fun w s ->
      if s > 0.0 then begin
        let g = idle_gauge w in
        Metrics.set g (Metrics.gauge_value g +. s)
      end)
    pool.idle
