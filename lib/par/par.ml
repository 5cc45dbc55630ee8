(* Shared-memory SPMD execution backend: runs the communication IR for
   real on OCaml 5 domains.

   A pool spawns a team of worker domains once and reuses it for every
   remap of a run.  Processor ranks are multiplexed onto the team round
   robin (nprocs may exceed the physical core count), so a pool is
   independent of any particular processor grid: each plan brings its own
   rank count and the team adapts.

   A remap executes the plan's existing step program — the same greedy
   edge coloring the stepped cost model charges — the way a lockstep
   message-passing runtime would: per step every rank packs the box of
   each message it sends into a staging buffer (row-major box order,
   exactly the sequential executor's [Comm.pack_staged] walk) drawn from
   its worker's buffer pool, posts it to the receiving rank's mailbox,
   takes and unpacks the messages addressed to it, and crosses a
   sense-reversing barrier before the next step.

   Data movement follows the machine's datapath: compiled-run blits by
   default — with [Redist.Direct]-eligible messages copied payload to
   payload by the sending rank, never posted to a mailbox — the
   per-element scalar oracle or the unconditional staging path when the
   machine says so.  The coordinator copies that choice into the job,
   and precompiles the run memo and datapath decision on each message
   before the job is submitted, so worker domains only ever read them.

   The caller's domain stays the coordinator: it submits the job, waits
   for the team, and then owns all machine accounting — counters and
   the modeled clock via [Comm.charge], and the trace via
   [Comm.record_rounds], both shared with the sequential executor — so
   modeled numbers are byte-identical across executors by
   construction.  Only the measured wall events ([Wall_step] per step,
   [Wall_remap] per remap) are the executor's own.  Worker domains never
   touch the machine, so tracing needs no locks.

   A worker that raises (a faulty endpoint closure, say) aborts the job
   rather than leaving its siblings waiting on a barrier or a mailbox
   forever: the first exception is recorded, every waiter of the job is
   woken and unwinds, and the coordinator re-raises it once the whole
   team has left the job — the pool stays usable. *)

module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Comm = Hpfc_runtime.Comm
module Buf = Hpfc_runtime.Buf
module Exec = Hpfc_runtime.Exec

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

(* --- per-rank mailboxes ---------------------------------------------------- *)

(* A packet carries one staged send: a whole message under the
   point-to-point lowering ([p_off] = 0, [p_len] = [m_count]), one
   budget-bounded slice of it under the collective lowering. *)
type packet = {
  p_msg : Redist.message;
  p_off : int;
  p_len : int;
  p_buf : Buf.t;
}

(* All mailboxes of the ranks hosted by one worker share that worker's
   (mutex, condition) pair, so a worker interleaving several ranks has a
   single place to block on "anything arrived for any of my ranks". *)
type mailbox = {
  mb_mutex : Mutex.t;
  mb_cond : Condition.t;
  mutable mb_items : packet list;
}

let mailbox_make (mb_mutex, mb_cond) = { mb_mutex; mb_cond; mb_items = [] }

let mailbox_post mb item =
  Mutex.lock mb.mb_mutex;
  mb.mb_items <- item :: mb.mb_items;
  Condition.signal mb.mb_cond;
  Mutex.unlock mb.mb_mutex

(* Blocking take (the worker serves its ranks one at a time, so waiting
   on the shared condition is safe — wakeups for a sibling rank re-check
   and wait again).  Raises [Aborted] once [abort] is set. *)
let mailbox_take ~abort mb =
  Mutex.lock mb.mb_mutex;
  while mb.mb_items = [] && not (Atomic.get abort) do
    Condition.wait mb.mb_cond mb.mb_mutex
  done;
  if mb.mb_items = [] then begin
    Mutex.unlock mb.mb_mutex;
    raise Aborted
  end;
  let item = List.hd mb.mb_items in
  mb.mb_items <- List.tl mb.mb_items;
  Mutex.unlock mb.mb_mutex;
  item

(* --- jobs ------------------------------------------------------------------ *)

(* One remap, precomputed per rank and per round by the
   coordinator so workers only move data.  A round is a step of the
   point-to-point step program or a phase of the collective phase
   program — the lockstep send / receive / barrier body is the same;
   only the send items differ (whole messages vs slices). *)
type job = {
  j_nranks : int;
  j_locals : Redist.message list array;  (* rank -> on-processor moves *)
  j_sends : (Redist.message * int * int) list array array;
      (* round -> rank -> staged sends as (message, off, len) *)
  j_directs : Redist.message list array array;
      (* round -> sending rank -> direct-eligible messages: copied payload
         to payload by the sender, never posted to a mailbox.  Plan
         messages write pairwise-disjoint destination regions, so the
         receiver's buffer sees no other writer for those elements, and
         the round barrier publishes the values.  Under the collective
         lowering a direct message moves whole in the round of its
         offset-zero slice. *)
  j_recvs : int array array;  (* round -> rank -> expected staged packets *)
  j_scalar : bool;  (* the machine's datapath is the scalar oracle *)
  j_src : Comm.endpoint;
  j_dst : Comm.endpoint;
  j_mailboxes : mailbox array;  (* indexed by receiving rank *)
  j_wall : float array;  (* round -> measured wall seconds *)
  j_live_peak : int Atomic.t;
      (* max process-wide outstanding staging leases sampled while this
         job's workers held one — mirrored into [pool_lease_peak] *)
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
  p_pools : Comm.Pool.t array;
      (* staging-buffer pool of each worker domain; only its owner touches
         it mid-job, the coordinator reads the totals between jobs *)
}

let ndomains t = t.ndomains

(* Lock-free max into a shared cell (the live-lease sample). *)
let atomic_max cell n =
  let rec go () =
    let cur = Atomic.get cell in
    if n > cur && not (Atomic.compare_and_set cell cur n) then go ()
  in
  go ()

(* Pack positions [off, off + len) of one message's row-major box order
   into a pooled staging buffer — the identical walk as the sequential
   executor's, performed on the sending rank. *)
let pack_buf pool live_peak ~scalar ~src ~dst (m : Redist.message) ~off ~len =
  let _, buf = Comm.Pool.acquire pool len in
  atomic_max live_peak (Comm.Pool.live_leases ());
  Comm.pack_staged ~scalar ~src ~dst m ~off ~len buf;
  buf

(* Unpack on the receiving rank, then release the packet buffer into the
   receiving worker's pool. *)
let unpack_buf pool ~scalar ~src ~dst (m : Redist.message) ~off ~len buf =
  Comm.unpack_staged ~scalar ~src ~dst m ~off ~len buf;
  Comm.Pool.release pool buf

(* --- the job body --------------------------------------------------------- *)

(* The SPMD body one worker runs for its ranks: local moves, then per
   step send / receive / barrier.  The last arriver at each barrier
   stamps the step's wall clock. *)
let run_job pool w (job : job) =
  let nsteps = Array.length job.j_sends in
  let my_pool = pool.p_pools.(w) in
  let each_rank f =
    let r = ref w in
    while !r < job.j_nranks do
      f !r;
      r := !r + pool.ndomains
    done
  in
  let abort = pool.p_abort in
  each_rank (fun r ->
      List.iter
        (Comm.run_local ~scalar:job.j_scalar ~src:job.j_src ~dst:job.j_dst)
        job.j_locals.(r));
  barrier_await pool.p_barrier ~abort ~on_last:(fun () ->
      job.j_tick <- Unix.gettimeofday ());
  for i = 0 to nsteps - 1 do
    each_rank (fun r ->
        List.iter
          (fun m -> Comm.run_direct ~src:job.j_src ~dst:job.j_dst m)
          job.j_directs.(i).(r);
        List.iter
          (fun ((m : Redist.message), off, len) ->
            let buf =
              pack_buf my_pool job.j_live_peak ~scalar:job.j_scalar
                ~src:job.j_src ~dst:job.j_dst m ~off ~len
            in
            mailbox_post
              job.j_mailboxes.(m.Redist.m_to)
              { p_msg = m; p_off = off; p_len = len; p_buf = buf })
          job.j_sends.(i).(r));
    each_rank (fun r ->
        for _ = 1 to job.j_recvs.(i).(r) do
          let p = mailbox_take ~abort job.j_mailboxes.(r) in
          unpack_buf my_pool ~scalar:job.j_scalar ~src:job.j_src
            ~dst:job.j_dst p.p_msg ~off:p.p_off ~len:p.p_len p.p_buf
        done);
    barrier_await pool.p_barrier ~abort ~on_last:(fun () ->
        let now = Unix.gettimeofday () in
        job.j_wall.(i) <- now -. job.j_tick;
        job.j_tick <- now)
  done

(* --- the worker loop --------------------------------------------------------- *)

(* Abort the current job after a worker raised [e]: record the first
   real exception, then wake every waiter of the job — the barrier's and
   every mailbox's — so it re-checks the abort flag and unwinds. *)
let abort_job pool job e =
  Mutex.lock pool.p_mutex;
  (match e with
  | Aborted -> ()
  | e -> if Option.is_none pool.p_error then pool.p_error <- Some e);
  Mutex.unlock pool.p_mutex;
  Atomic.set pool.p_abort true;
  let b = pool.p_barrier in
  Mutex.lock b.b_mutex;
  Condition.broadcast b.b_cond;
  Mutex.unlock b.b_mutex;
  Array.iter
    (fun mb ->
      Mutex.lock mb.mb_mutex;
      Condition.broadcast mb.mb_cond;
      Mutex.unlock mb.mb_mutex)
    job.j_mailboxes

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
      (try run_job pool w job with e -> abort_job pool job e);
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
      p_pools = Array.init n (fun _ -> Comm.Pool.create ());
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

(* Mailboxes for a job on this pool: the mailboxes of all ranks hosted
   by one worker share that worker's (mutex, condition) pair. *)
let make_mailboxes pool nranks =
  let locks =
    Array.init pool.ndomains (fun _ -> (Mutex.create (), Condition.create ()))
  in
  Array.init nranks (fun r -> mailbox_make locks.(r mod pool.ndomains))

let execute pool (mach : Machine.t) ~src ~dst (plan : Redist.plan) =
  let collective = Comm.collective_chosen mach plan in
  let scalar = mach.Machine.datapath = Exec.Scalar in
  let nranks =
    Int.max 1 (Int.max plan.Redist.nprocs_src plan.Redist.nprocs_dst)
  in
  let locals = Array.make nranks [] in
  List.iter
    (fun (m : Redist.message) ->
      locals.(m.Redist.m_from) <- m :: locals.(m.Redist.m_from))
    plan.Redist.locals;
  (* Compile every message's runs and datapath decision here on the
     coordinator, before worker domains share the messages (they then
     only read the memos).  (The schedule memos — step program,
     collective program — are likewise populated below by the
     coordinator's own builder walk.) *)
  Comm.precompile mach ~src ~dst plan;
  let direct_ok = Comm.direct_enabled mach in
  (* The lowered schedule, each round split into staged send items and
     direct-eligible messages.  A direct message is never a send item:
     it moves payload to payload whole, in the round of its offset-zero
     item. *)
  let schedule = Comm.rounds ~collective plan in
  let rounds, direct_rounds =
    List.split
      (List.map
         (fun r ->
           let sends = ref [] and directs = ref [] in
           Comm.iter_items
             (fun m off len ->
               if direct_ok && Comm.message_direct ~src ~dst m then begin
                 if off = 0 then directs := m :: !directs
               end
               else sends := (m, off, len) :: !sends)
             r;
           (List.rev !sends, List.rev !directs))
         schedule)
  in
  let nrounds = List.length rounds in
  let pool_totals () =
    Array.fold_left
      (fun (h, m) p -> (h + Comm.Pool.hits p, m + Comm.Pool.misses p))
      (0, 0) pool.p_pools
  in
  let hits0, misses0 = pool_totals () in
  let c = mach.Machine.counters in
  let sends = Array.init nrounds (fun _ -> Array.make nranks []) in
  let directs = Array.init nrounds (fun _ -> Array.make nranks []) in
  let recvs = Array.init nrounds (fun _ -> Array.make nranks 0) in
  List.iteri
    (fun i round ->
      List.iter
        (fun ((m : Redist.message), off, len) ->
          sends.(i).(m.Redist.m_from) <-
            (m, off, len) :: sends.(i).(m.Redist.m_from);
          recvs.(i).(m.Redist.m_to) <- recvs.(i).(m.Redist.m_to) + 1)
        round)
    rounds;
  List.iteri
    (fun i dround ->
      List.iter
        (fun (m : Redist.message) ->
          directs.(i).(m.Redist.m_from) <- m :: directs.(i).(m.Redist.m_from))
        dround)
    direct_rounds;
  let job =
    {
      j_nranks = nranks;
      j_locals = locals;
      j_sends = sends;
      j_directs = directs;
      j_recvs = recvs;
      j_scalar = scalar;
      j_src = src;
      j_dst = dst;
      j_mailboxes = make_mailboxes pool nranks;
      j_wall = Array.make nrounds 0.0;
      j_live_peak = Atomic.make 0;
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
  let hits1, misses1 = pool_totals () in
  c.Machine.pool_hits <- c.Machine.pool_hits + (hits1 - hits0);
  c.Machine.pool_misses <- c.Machine.pool_misses + (misses1 - misses0);
  c.Machine.pool_lease_peak <-
    Int.max c.Machine.pool_lease_peak (Atomic.get job.j_live_peak);
  c.Machine.wall_time <- c.Machine.wall_time +. wall;
  Machine.record mach (Machine.Wall_remap { steps = nrounds; wall })

let executor pool : Comm.executor = execute pool
