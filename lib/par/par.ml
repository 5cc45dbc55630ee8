(* Shared-memory SPMD execution backend: runs the communication IR for
   real on OCaml 5 domains.

   A pool spawns a team of worker domains once and reuses it for every
   remap of a run.  Processor ranks are multiplexed onto the team round
   robin (nprocs may exceed the physical core count), so a pool is
   independent of any particular processor grid: each plan brings its own
   rank count and the team adapts.

   Two execution disciplines share the pool, the mailboxes and the
   staging pools:

   - the *stepped* mode (default) executes the plan's existing step
     program — the same greedy edge coloring the stepped cost model
     charges — the way a lockstep message-passing runtime would: per
     step every rank packs the box of each message it sends into a
     staging buffer (row-major box order, exactly the sequential
     executor's [Comm.pack_staged] walk) drawn from its worker's buffer pool, posts it to the
     receiving rank's mailbox, takes and unpacks the messages addressed
     to it, and crosses a sense-reversing barrier before the next step;

   - the *async* mode (the [Exec.Async] schedule, latched when the
     executor is built) is dependency-driven: there is no barrier at
     all.  Each rank posts its staged sends eagerly in plan order,
     bounded by a window of [lease_window] = 2 staging leases in flight
     (double buffering: the pack of message k+1 overlaps the receiver's
     unpack of message k), and completes incoming messages as they
     arrive.  Completion is a per-message flag: unpacking a packet
     decrements the sending rank's atomic lease counter and signals its
     worker, releasing one window slot.  A worker hosting several ranks
     interleaves them — it round-robins non-blocking progress attempts
     and only blocks when none of its ranks can move, re-checking its
     mailboxes and windows under the worker lock so a concurrent post
     or lease release cannot be missed.

   Async delivery is race-free without the barriers because a plan's
   messages write pairwise-disjoint regions of the destination payload
   and only read the source payload (replicated sources may send one
   element twice, but both copies carry the same value); the stepped
   barriers only ever *exercised* the schedule, they never ordered
   conflicting writes.

   Data movement follows the machine's datapath in both modes:
   compiled-run blits by default — with [Redist.Direct]-eligible
   messages copied payload to payload by the sending rank, never posted
   to a mailbox — the per-element scalar oracle or the unconditional
   staging path when the machine says so.  The coordinator copies that
   choice into the job, and precompiles the run memo and datapath
   decision on each message before the job is submitted, so worker
   domains only ever read them.

   The caller's domain stays the coordinator: it submits the job, waits
   for the team, and then owns all machine accounting — counters and
   the modeled clock via [Comm.charge], and the trace via
   [Comm.record_rounds], both shared with the sequential executor — so
   modeled numbers are byte-identical across executors and modes by
   construction.  Only the measured wall events
   differ: stepped runs record one [Wall_step] per step, async runs one
   [Wall_msg] (post-to-completion) per staged message and the
   [async_completions] counter.  Worker domains never touch the
   machine, so tracing needs no locks.

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
   budget-bounded slice of it under the collective lowering.  [p_slot]
   indexes the job's per-send wall array and [p_posted] is the
   send-side post time — async bookkeeping, unused (-1 / 0.) in stepped
   mode. *)
type packet = {
  p_msg : Redist.message;
  p_off : int;
  p_len : int;
  p_buf : Buf.t;
  p_slot : int;
  p_posted : float;
}

(* All mailboxes of the ranks hosted by one worker share that worker's
   (mutex, condition) pair, so a worker interleaving several ranks has a
   single place to block on "anything arrived for any of my ranks" (and,
   in async mode, "a staging lease of one of my ranks was released"). *)
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

(* Blocking take (stepped mode: the worker serves its ranks one at a
   time, so waiting on the shared condition is safe — wakeups for a
   sibling rank re-check and wait again).  Raises [Aborted] once
   [abort] is set. *)
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

(* Non-blocking take (async mode's progress loop). *)
let mailbox_try_take mb =
  Mutex.lock mb.mb_mutex;
  let item =
    match mb.mb_items with
    | [] -> None
    | x :: rest ->
      mb.mb_items <- rest;
      Some x
  in
  Mutex.unlock mb.mb_mutex;
  item

(* --- jobs ------------------------------------------------------------------ *)

(* One stepped remap, precomputed per rank and per round by the
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

(* One async remap: no steps, no barrier.  Staged sends are flattened
   per rank in plan (schedule) order; each carries the slot of its
   [a_msg_wall] cell. *)
type ajob = {
  a_nranks : int;
  a_locals : Redist.message list array;  (* rank -> on-processor moves *)
  a_directs : Redist.message list array;
      (* rank -> direct-eligible messages, executed eagerly by the
         sender before its first send: their destination regions are
         disjoint from every other writer's, so no ordering is needed *)
  a_sends : (Redist.message * int * int * int) array array;
      (* rank -> staged sends in schedule order as
         (message, off, len, wall slot) *)
  a_recvs : int array;  (* rank -> expected staged packets *)
  a_scalar : bool;  (* the machine's datapath is the scalar oracle *)
  a_src : Comm.endpoint;
  a_dst : Comm.endpoint;
  a_mailboxes : mailbox array;  (* indexed by receiving rank *)
  a_leases : int Atomic.t array;
      (* rank -> staging leases in flight (messages posted by that rank
         and not yet unpacked): the per-message completion flag.  The
         sending rank increments before posting; the receiving rank
         decrements after unpacking and signals the sender's worker,
         releasing one lease of the double-buffer window *)
  a_staged : Redist.message array;
      (* slot -> message (event emission; a sliced message appears once
         per staged slice) *)
  a_msg_wall : float array;
      (* slot -> measured post-to-completion seconds; written once by
         the receiving worker, read by the coordinator after the job *)
  a_stamp : bool;
      (* stamp per-message wall clocks?  Only when the machine records a
         trace — the stamps feed [Wall_msg] events and nothing else, so
         untraced runs skip two clock reads per message *)
  a_max_leases : int array;
      (* rank -> high-water mark of simultaneously held staging leases;
         the double-buffer bound caps it at [lease_window] *)
  a_live_peak : int Atomic.t;
      (* max process-wide outstanding staging leases sampled while this
         job's workers held one — mirrored into [pool_lease_peak] *)
}

type jobkind = Stepped_job of job | Async_job of ajob

type t = {
  ndomains : int;
  p_mutex : Mutex.t;
  p_cond : Condition.t;
  mutable p_job : jobkind option;
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
  mutable p_last_max_leases : int;
      (* max over ranks of [a_max_leases] for the last async job run on
         this pool (0 before any); the lease-bound tests read it *)
}

let ndomains t = t.ndomains
let last_max_leases t = t.p_last_max_leases

(* The double-buffer bound: at most this many staging leases (posted,
   un-acknowledged sends) per rank at any moment in async mode — one
   buffer in flight while the next one packs. *)
let lease_window = 2

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

(* --- the stepped job body --------------------------------------------------- *)

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
              { p_msg = m; p_off = off; p_len = len; p_buf = buf; p_slot = -1; p_posted = 0.0 })
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

(* --- the async job body ------------------------------------------------------ *)

(* Per-rank progress state of the async discipline, owned by the hosting
   worker. *)
type rstate = {
  rs_rank : int;
  mutable rs_pending : (Redist.message * int * int * int) list;
      (* sends left as (message, off, len, slot), schedule order *)
  mutable rs_recvs_left : int;
}

(* One worker's async body: run every hosted rank's local and direct
   moves, then interleave the ranks through a non-blocking progress
   loop — send when the lease window allows, otherwise drain the
   mailbox — blocking on the worker condition only when no hosted rank
   can move at all.

   Deadlock-freedom: posts and lease releases never block, so consider
   every worker blocked at once.  Blocked means every hosted mailbox is
   empty and every hosted rank with sends left has a full window.  Empty
   mailboxes mean every posted packet was unpacked, so every lease was
   released and every window is free — then no rank has sends left, and
   a rank waiting only on receives waits on a packet whose sender still
   has it pending, contradiction. *)
let run_async_job pool w (job : ajob) =
  let my_pool = pool.p_pools.(w) in
  let states = ref [] in
  let r = ref w in
  while !r < job.a_nranks do
    List.iter
      (Comm.run_local ~scalar:job.a_scalar ~src:job.a_src ~dst:job.a_dst)
      job.a_locals.(!r);
    List.iter
      (fun m -> Comm.run_direct ~src:job.a_src ~dst:job.a_dst m)
      job.a_directs.(!r);
    states :=
      {
        rs_rank = !r;
        rs_pending = Array.to_list job.a_sends.(!r);
        rs_recvs_left = job.a_recvs.(!r);
      }
      :: !states;
    r := !r + pool.ndomains
  done;
  let states = List.rev !states in
  let can_send st =
    st.rs_pending <> []
    && Atomic.get job.a_leases.(st.rs_rank) < lease_window
  in
  let try_progress st =
    match st.rs_pending with
    | (m, off, len, slot) :: rest
      when Atomic.get job.a_leases.(st.rs_rank) < lease_window ->
      (* a lease is free: pack the next send and post it eagerly.
         Only the sending rank increments its own counter, so the window
         check cannot be raced past [lease_window] *)
      let buf =
        pack_buf my_pool job.a_live_peak ~scalar:job.a_scalar ~src:job.a_src
          ~dst:job.a_dst m ~off ~len
      in
      st.rs_pending <- rest;
      let held = 1 + Atomic.fetch_and_add job.a_leases.(st.rs_rank) 1 in
      if held > job.a_max_leases.(st.rs_rank) then
        job.a_max_leases.(st.rs_rank) <- held;
      mailbox_post
        job.a_mailboxes.(m.Redist.m_to)
        {
          p_msg = m;
          p_off = off;
          p_len = len;
          p_buf = buf;
          p_slot = slot;
          p_posted = (if job.a_stamp then Unix.gettimeofday () else 0.0);
        };
      true
    | _ -> (
      match mailbox_try_take job.a_mailboxes.(st.rs_rank) with
      | Some p ->
        (* complete the send as it arrives, stamp its wall clock,
           release the sender's staging lease and wake its worker in
           case it was blocked on a full window *)
        unpack_buf my_pool ~scalar:job.a_scalar ~src:job.a_src ~dst:job.a_dst
          p.p_msg ~off:p.p_off ~len:p.p_len p.p_buf;
        if job.a_stamp then
          job.a_msg_wall.(p.p_slot) <- Unix.gettimeofday () -. p.p_posted;
        st.rs_recvs_left <- st.rs_recvs_left - 1;
        let from = p.p_msg.Redist.m_from in
        let held = Atomic.fetch_and_add job.a_leases.(from) (-1) in
        (* wake the sender's worker only on a full-to-free transition: a
           sender below the window never blocks on sending, and one
           blocked on receiving is woken by the packet post itself *)
        if held = lease_window then begin
          let sender_mb = job.a_mailboxes.(from) in
          Mutex.lock sender_mb.mb_mutex;
          Condition.signal sender_mb.mb_cond;
          Mutex.unlock sender_mb.mb_mutex
        end;
        true
      | None -> false)
  in
  let rank_done st = st.rs_pending = [] && st.rs_recvs_left = 0 in
  let all_done () =
    if Atomic.get pool.p_abort then raise Aborted;
    List.for_all rank_done states
  in
  if states <> [] then begin
    (* all mailboxes of my ranks share my (mutex, cond) pair *)
    let mutex = job.a_mailboxes.((List.hd states).rs_rank).mb_mutex
    and cond = job.a_mailboxes.((List.hd states).rs_rank).mb_cond in
    while not (all_done ()) do
      let progressed =
        List.fold_left (fun acc st -> try_progress st || acc) false states
      in
      if (not progressed) && not (all_done ()) then begin
        (* nothing moved: block until a packet lands in one of my ranks'
           mailboxes or one of their leases is released.  Both re-checks
           happen under the shared lock that posters and releasers
           signal through, so a concurrent wakeup cannot be missed *)
        Mutex.lock mutex;
        while
          (not (Atomic.get pool.p_abort))
          && List.for_all
               (fun st ->
                 job.a_mailboxes.(st.rs_rank).mb_items = []
                 && not (can_send st))
               states
        do
          Condition.wait cond mutex
        done;
        Mutex.unlock mutex
      end
    done
  end

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
    (match job with
    | Stepped_job j -> j.j_mailboxes
    | Async_job j -> j.a_mailboxes)

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
      (try
         match job with
         | Stepped_job j -> run_job pool w j
         | Async_job j -> run_async_job pool w j
       with e -> abort_job pool job e);
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
      p_last_max_leases = 0;
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

let default_async () = (Exec.default ()).Exec.sched = Exec.Async

let execute ?(async = default_async ()) pool (mach : Machine.t) ~src ~dst
    (plan : Redist.plan) =
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
  let job =
    if async then begin
    (* flatten the rounds per sending rank, in schedule order; every
       staged send gets the slot of its wall-clock cell *)
    let directs = Array.make nranks [] in
    let sends = Array.make nranks [] in
    let recvs = Array.make nranks 0 in
    let staged = ref [] in
    let nstaged = ref 0 in
    List.iter2
      (fun round dround ->
        List.iter
          (fun (m : Redist.message) ->
            directs.(m.Redist.m_from) <- m :: directs.(m.Redist.m_from))
          dround;
        List.iter
          (fun ((m : Redist.message), off, len) ->
            let slot = !nstaged in
            incr nstaged;
            staged := m :: !staged;
            sends.(m.Redist.m_from) <-
              (m, off, len, slot) :: sends.(m.Redist.m_from);
            recvs.(m.Redist.m_to) <- recvs.(m.Redist.m_to) + 1)
          round)
      rounds direct_rounds;
    let job =
      {
        a_nranks = nranks;
        a_locals = locals;
        a_directs = Array.map List.rev directs;
        a_sends = Array.map (fun l -> Array.of_list (List.rev l)) sends;
        a_recvs = recvs;
        a_scalar = scalar;
        a_src = src;
        a_dst = dst;
        a_mailboxes = make_mailboxes pool nranks;
        a_leases = Array.init nranks (fun _ -> Atomic.make 0);
        a_staged = Array.of_list (List.rev !staged);
        a_msg_wall = Array.make !nstaged 0.0;
        a_stamp = mach.Machine.record_trace;
        a_max_leases = Array.make nranks 0;
        a_live_peak = Atomic.make 0;
      }
    in
    Async_job job
  end
  else begin
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
    Stepped_job job
  end
  in
  let t0 = Unix.gettimeofday () in
  run_job_sync pool job;
  let wall = Unix.gettimeofday () -. t0 in
  (* All accounting happens here, on the coordinator, after the fact,
     shared with the sequential executor so real delivery order is
     invisible to every modeled observable: the trace replays the
     schedule exactly as the sequential executor records it, plus the
     measured wall clocks — each stepped round's after its modeled
     cost, each async staged message's after the replay. *)
  let live_peak =
    match job with
    | Stepped_job j ->
      Comm.record_rounds mach schedule ~on_step:(fun i ->
          Machine.record mach
            (Machine.Wall_step { index = i; wall = j.j_wall.(i) }));
      j.j_live_peak
    | Async_job j ->
      pool.p_last_max_leases <- Array.fold_left Int.max 0 j.a_max_leases;
      Comm.record_rounds mach schedule;
      Array.iteri
        (fun slot (m : Redist.message) ->
          Machine.record mach
            (Machine.Wall_msg
               {
                 from_rank = m.Redist.m_from;
                 to_rank = m.Redist.m_to;
                 wall = j.a_msg_wall.(slot);
               }))
        j.a_staged;
      c.Machine.async_completions <-
        c.Machine.async_completions + Array.length j.a_staged;
      j.a_live_peak
  in
  Comm.charge ~collective mach ~src ~dst plan;
  let hits1, misses1 = pool_totals () in
  c.Machine.pool_hits <- c.Machine.pool_hits + (hits1 - hits0);
  c.Machine.pool_misses <- c.Machine.pool_misses + (misses1 - misses0);
  c.Machine.pool_lease_peak <-
    Int.max c.Machine.pool_lease_peak (Atomic.get live_peak);
  c.Machine.wall_time <- c.Machine.wall_time +. wall;
  Machine.record mach (Machine.Wall_remap { steps = nrounds; wall })

let executor ?(async = default_async ()) pool : Comm.executor =
 fun mach ~src ~dst plan -> execute ~async pool mach ~src ~dst plan
