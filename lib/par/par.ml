(* Shared-memory SPMD execution backend: runs the communication IR for
   real on OCaml 5 domains.

   A pool spawns a team of worker domains once and reuses it for every
   remap of a run.  Processor ranks are multiplexed onto the team round
   robin (nprocs may exceed the physical core count), so a pool is
   independent of any particular processor grid: each plan brings its own
   rank count and the team adapts.

   A remap executes the plan's lowered schedule — the step program the
   stepped cost model charges, or the collective phase program — in
   lockstep: per round, every worker copies the messages whose sending
   rank it hosts payload to payload through their compiled runs
   ([Comm.run_direct]), then crosses a sense-reversing barrier before
   the next round.  All copies live in one address space, so a message
   is one copy, with no staging buffer and no mailbox; under the
   collective lowering a sliced message moves whole in the round of its
   offset-zero slice.  DESIGN.md §5 (parallel backend) gives why these
   unlocked concurrent writes are race-free.  The coordinator
   precompiles the run memo of each message before the job is
   submitted, so worker domains only ever read it.

   The caller's domain stays the coordinator: it submits the job, waits
   for the team, and then owns all machine accounting — counters, the
   modeled clock and the modeled staging bill via [Comm.charge], and the
   trace via [Comm.record_rounds], both shared with the sequential
   executor — so modeled numbers are byte-identical across executors by
   construction.  Only the measured wall events ([Wall_step] per step,
   [Wall_remap] per remap) are the executor's own.  Worker domains never
   touch the machine, so tracing needs no locks.

   A worker that raises (a faulty endpoint buffer, say) aborts the job
   rather than leaving its siblings waiting on a barrier forever: the
   first exception is recorded, every waiter of the job is woken and
   unwinds, and the coordinator re-raises it once the whole team has
   left the job — the pool stays usable. *)

module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Comm = Hpfc_runtime.Comm

(* Raised inside the workers of an aborted job to unwind from a wait. *)
exception Aborted

(* --- sense-reversing barrier --------------------------------------------- *)

type barrier = {
  b_mutex : Mutex.t;
  b_cond : Condition.t;
  b_parties : int;
  mutable b_count : int;
  mutable b_phase : int;
}

let barrier_make parties =
  {
    b_mutex = Mutex.create ();
    b_cond = Condition.create ();
    b_parties = parties;
    b_count = 0;
    b_phase = 0;
  }

(* Block until all parties arrive; the last arriver runs [on_last] while
   holding the barrier mutex (used to stamp per-step wall clocks).
   Raises [Aborted] instead once [abort] is set: the aborter sets it
   before broadcasting under the barrier mutex, so no waiter misses
   it. *)
let barrier_await b ~abort ~on_last =
  Mutex.lock b.b_mutex;
  let phase = b.b_phase in
  b.b_count <- b.b_count + 1;
  if b.b_count = b.b_parties then begin
    on_last ();
    b.b_count <- 0;
    b.b_phase <- b.b_phase + 1;
    Condition.broadcast b.b_cond
  end
  else
    while b.b_phase = phase && not (Atomic.get abort) do
      Condition.wait b.b_cond b.b_mutex
    done;
  let aborted = b.b_phase = phase && Atomic.get abort in
  Mutex.unlock b.b_mutex;
  if aborted then raise Aborted

(* --- jobs ------------------------------------------------------------------ *)

(* One remap: the plan's on-processor moves and its lowered schedule,
   both shared read-only by the workers.  Worker [w] moves the messages
   whose sending rank it hosts ([m_from mod ndomains = w]), so a job
   allocates nothing per rank or per message.  A round is a step of the
   point-to-point step program or a phase of the collective phase
   program; the copy / barrier body is the same. *)
type job = {
  j_locals : Redist.message list;
  j_rounds : Comm.round array;
  j_src : Comm.endpoint;
  j_dst : Comm.endpoint;
  j_wall : float array;  (* round -> measured wall seconds *)
  mutable j_tick : float;  (* last barrier crossing; written by the
                              barrier's last arriver only *)
}

type t = {
  ndomains : int;
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_job : job option;
  mutable p_generation : int;  (* bumped per submitted job *)
  mutable p_done : int;  (* workers finished with the current job *)
  mutable p_shutdown : bool;
  p_barrier : barrier;
  p_abort : bool Atomic.t;  (* the current job was aborted *)
  mutable p_error : exn option;
      (* the first exception a worker raised in the current job *)
  mutable p_domains : unit Domain.t list;
}

let ndomains t = t.ndomains

(* --- the job body --------------------------------------------------------- *)

(* The SPMD body one worker runs for its ranks: local moves, then per
   round copy / barrier.  A message moves whole at its offset-zero item.
   The last arriver at each barrier stamps the round's wall clock. *)
let run_job pool w (job : job) =
  let move (m : Redist.message) =
    if m.Redist.m_from mod pool.ndomains = w then
      Comm.run_direct ~src:job.j_src ~dst:job.j_dst m
  in
  let abort = pool.p_abort in
  List.iter move job.j_locals;
  barrier_await pool.p_barrier ~abort ~on_last:(fun () ->
      job.j_tick <- Unix.gettimeofday ());
  Array.iteri
    (fun i r ->
      Comm.iter_items (fun m off _ -> if off = 0 then move m) r;
      barrier_await pool.p_barrier ~abort ~on_last:(fun () ->
          let now = Unix.gettimeofday () in
          job.j_wall.(i) <- now -. job.j_tick;
          job.j_tick <- now))
    job.j_rounds

(* --- the worker loop --------------------------------------------------------- *)

(* Abort the current job after a worker raised [e]: record the first
   real exception, then wake every waiter of the job's barrier so it
   re-checks the abort flag and unwinds. *)
let abort_job pool e =
  Mutex.lock pool.p_mutex;
  (match e with
  | Aborted -> ()
  | e -> if Option.is_none pool.p_error then pool.p_error <- Some e);
  Mutex.unlock pool.p_mutex;
  Atomic.set pool.p_abort true;
  let b = pool.p_barrier in
  Mutex.lock b.b_mutex;
  Condition.broadcast b.b_cond;
  Mutex.unlock b.b_mutex

let worker pool w =
  let rec loop generation =
    Mutex.lock pool.p_mutex;
    while (not pool.p_shutdown) && pool.p_generation = generation do
      Condition.wait pool.p_cond pool.p_mutex
    done;
    if pool.p_shutdown then Mutex.unlock pool.p_mutex
    else begin
      let generation = pool.p_generation in
      let job = Option.get pool.p_job in
      Mutex.unlock pool.p_mutex;
      (try run_job pool w job with e -> abort_job pool e);
      Mutex.lock pool.p_mutex;
      pool.p_done <- pool.p_done + 1;
      if pool.p_done = pool.ndomains then Condition.broadcast pool.p_cond;
      Mutex.unlock pool.p_mutex;
      loop generation
    end
  in
  loop 0

let create ?ndomains () =
  let n =
    match ndomains with
    | Some n when n > 0 -> n
    | Some _ | None -> max 1 (Domain.recommended_domain_count ())
  in
  let pool =
    {
      ndomains = n;
      p_mutex = Mutex.create ();
      p_cond = Condition.create ();
      p_job = None;
      p_generation = 0;
      p_done = 0;
      p_shutdown = false;
      p_barrier = barrier_make n;
      p_abort = Atomic.make false;
      p_error = None;
      p_domains = [];
    }
  in
  pool.p_domains <- List.init n (fun w -> Domain.spawn (fun () -> worker pool w));
  pool

let destroy pool =
  Mutex.lock pool.p_mutex;
  pool.p_shutdown <- true;
  Condition.broadcast pool.p_cond;
  Mutex.unlock pool.p_mutex;
  List.iter Domain.join pool.p_domains;
  pool.p_domains <- []

(* Submit one job and block until the whole team has finished it.  If a
   worker raised, re-raise its exception once every worker has left the
   job, after resetting the barrier its siblings abandoned. *)
let run_job_sync pool job =
  Mutex.lock pool.p_mutex;
  if pool.p_shutdown then begin
    Mutex.unlock pool.p_mutex;
    Hpfc_base.Error.fail Runtime_fault "parallel pool used after destroy"
  end;
  pool.p_job <- Some job;
  pool.p_done <- 0;
  pool.p_generation <- pool.p_generation + 1;
  Condition.broadcast pool.p_cond;
  while pool.p_done < pool.ndomains do
    Condition.wait pool.p_cond pool.p_mutex
  done;
  pool.p_job <- None;
  let error = pool.p_error in
  pool.p_error <- None;
  Mutex.unlock pool.p_mutex;
  if Atomic.get pool.p_abort then begin
    Mutex.lock pool.p_barrier.b_mutex;
    pool.p_barrier.b_count <- 0;
    Mutex.unlock pool.p_barrier.b_mutex;
    Atomic.set pool.p_abort false
  end;
  Option.iter raise error

(* --- the executor ----------------------------------------------------------- *)

let execute pool (mach : Machine.t) ~src ~dst (plan : Redist.plan) =
  let collective = Comm.collective_chosen mach plan in
  (* Compile every message's runs here on the coordinator, before worker
     domains share the messages (they then only read the memos); the
     schedule memos — step program, collective program — are likewise
     populated by [Comm.rounds] on the coordinator. *)
  Comm.precompile ~src ~dst plan;
  let schedule = Comm.rounds ~collective plan in
  let rounds = Array.of_list schedule in
  let job =
    {
      j_locals = plan.Redist.locals;
      j_rounds = rounds;
      j_src = src;
      j_dst = dst;
      j_wall = Array.make (Array.length rounds) 0.0;
      j_tick = 0.0;
    }
  in
  let t0 = Unix.gettimeofday () in
  run_job_sync pool job;
  let wall = Unix.gettimeofday () -. t0 in
  (* All accounting happens here, on the coordinator, after the fact,
     shared with the sequential executor so real delivery order is
     invisible to every modeled observable: the trace replays the
     schedule exactly as the sequential executor records it, plus each
     round's measured wall clock after its modeled cost. *)
  Comm.record_rounds mach schedule ~on_step:(fun i ->
      Machine.record mach
        (Machine.Wall_step { index = i; wall = job.j_wall.(i) }));
  Comm.charge ~collective mach ~src ~dst plan;
  let c = mach.Machine.counters in
  c.Machine.wall_time <- c.Machine.wall_time +. wall;
  Machine.record mach
    (Machine.Wall_remap { steps = Array.length rounds; wall })

let executor pool : Comm.executor = execute pool
