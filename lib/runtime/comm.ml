(* Communication executor: runs a redistribution plan's step program
   message by message — the execute layer of the plan / schedule /
   execute pipeline.

   Each message is executed the way a real SPMD runtime would: the
   sender packs its box (the per-dimension interval cross product) into
   a staging buffer in row-major box order, the buffer is delivered, and
   the receiver unpacks it into the target copy at the same index walk.
   Both store backends run the *identical* message stream — the
   canonical backend against the global payload, the distributed one
   against per-rank local buffers — so their end-to-end equivalence
   validates the communication IR itself, not just final values.

   Payloads, staging buffers and packets all carry one buffer type,
   [Buf.t] (C-layout float64 bigarrays), and three data paths implement
   the walk:

   - the *zero-copy* path (default): messages whose memoized datapath is
     [Redist.Direct] — self-messages, and messages between globally
     addressed endpoints — copy their runs payload to payload with
     [Buf.copy_run] kernel calls and touch no staging buffer at all
     (charged to [zero_copy_runs]); everything else stages as below;
   - the *staged* path ([force_staged], --staged / HPFC_FORCE_STAGED):
     every cross-processor message packs its compiled runs into a pooled
     staging buffer through the same kernel and unpacks on the receive
     side — PR 4's behaviour, kept continuously differential-tested;
   - the *scalar* path ([force_scalar], --scalar / HPFC_FORCE_SCALAR):
     the original per-element endpoint closures, the oracle both blit
     paths are tested against; it stages every message.

   Staging buffers come from a size-classed pool, so steady-state remaps
   allocate nothing per message (and nothing at all on the zero-copy
   path); modeled counters (messages, volume, steps, time) are identical
   by construction, only [run_blits]/[zero_copy_runs]/[staged_bytes] and
   the pool totals distinguish the paths.

   The executor also owns the accounting: message/volume/local-move
   counters always, and clock charges according to the machine's
   scheduling mode (burst critical path, or serialized contention-free
   steps with step/peak-volume counters).  With [record_trace], step
   boundaries and individual messages land in the machine's event
   trace; each [Step_end] carries the step's modeled cost, so in
   stepped mode the traced step times sum to the time charged. *)

(* How the executor touches a copy's storage.  [rank] is the linear
   processor rank the access is performed on: backends with per-rank
   buffers address [rank]'s buffer directly; global payloads ignore it.
   [addressing] and [buffer] expose the same storage to the blit path:
   flat offsets computed from [addressing] index directly into
   [buffer ~rank]. *)
type endpoint = {
  read : rank:int -> int array -> float;
  write : rank:int -> int array -> float -> unit;
  addressing : Redist.addressing;
  buffer : rank:int -> Buf.t;
}

(* Oracle switch: route every pack/unpack through the per-element scalar
   closures instead of the compiled runs.  Initialized from
   HPFC_FORCE_SCALAR (CI runs the whole suite once that way), settable
   by the --scalar CLI flag.  Read by worker domains mid-job, but only
   ever written between jobs on the coordinator. *)
let force_scalar =
  ref
    (match Sys.getenv_opt "HPFC_FORCE_SCALAR" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

(* Datapath switch: route every [Redist.Direct]-eligible message through
   the staged pack/unpack path anyway, as PR 4 did unconditionally.
   Initialized from HPFC_FORCE_STAGED (CI runs the whole suite once that
   way), settable by the --staged CLI flag.  Same write discipline as
   [force_scalar]. *)
let force_staged =
  ref
    (match Sys.getenv_opt "HPFC_FORCE_STAGED" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

(* Schedule switch: deliver staged messages out of step order on the
   parallel backend — the async dependency-driven executor (per-message
   completion flags in the mailbox instead of a barrier per step).
   Purely an execution-order choice: modeled counters and the replayed
   schedule trace stay byte-identical to the stepped executor; only the
   wall-clock events differ.  Initialized from HPFC_FORCE_ASYNC (CI runs
   the whole suite once that way), settable by the --sched=async CLI
   flag.  Same write discipline as [force_scalar]. *)
let force_async =
  ref
    (match Sys.getenv_opt "HPFC_FORCE_ASYNC" with
    | None | Some "" | Some "0" -> false
    | Some _ -> true)

(* Zero-copy is a blit-path refinement: the scalar oracle stages every
   message, and forcing staged disables the direct fast path. *)
let direct_enabled () = (not !force_scalar) && not !force_staged

(* Lowering switch: how a plan's cross-processor traffic is scheduled
   and executed.  [Lower_p2p] (default) walks the point-to-point step
   program; [Lower_collective] walks the plan's collective phase program
   (ring shift classes, budget-sliced — [Redist.collective_program]),
   bounding peak staging memory at the price of more, smaller rounds;
   [Lower_auto] picks per plan from the cost model.  Initialized from
   HPFC_FORCE_LOWER ("collective" / "auto"; unset, empty, "0" or "p2p"
   mean point-to-point), set by the --lower CLI flag.  Same write
   discipline as [force_scalar]. *)
type lowering = Lower_p2p | Lower_collective | Lower_auto

let force_lower =
  ref
    (match Sys.getenv_opt "HPFC_FORCE_LOWER" with
    | None -> Lower_p2p
    | Some v -> (
      match String.lowercase_ascii (String.trim v) with
      | "collective" -> Lower_collective
      | "auto" -> Lower_auto
      | _ -> Lower_p2p))

(* The auto rule: lower collectively exactly when its modeled time does
   not exceed the stepped point-to-point time (the collective never
   loses on peak memory by construction, so time is the only axis the
   planner needs to weigh).  Balanced many-phase slicings lose on the
   per-phase alphas and fall back to p2p; matching-like and
   replicated-destination plans win on the cheaper collective alphas. *)
let collective_chosen (mach : Machine.t) (plan : Redist.plan) =
  match !force_lower with
  | Lower_p2p -> false
  | Lower_collective -> true
  | Lower_auto ->
    plan.Redist.moves <> []
    && Redist.modeled_time_collective mach.Machine.cost plan
       <= Redist.modeled_time_stepped mach.Machine.cost plan

(* --- staging-buffer pool ---------------------------------------------------- *)

(* Size-classed free lists of staging buffers (classes are powers of
   two), so steady-state remaps reuse a handful of buffers instead of
   allocating one per message.  Not thread-safe by design: the
   sequential executor owns one, and the parallel backend keeps one per
   worker domain.  Lifetime hit/miss totals stay on the pool; executors
   mirror them into machine counters as they see fit. *)
module Pool = struct
  type t = {
    classes : Buf.t list array;
    mutable hits : int;
    mutable misses : int;
  }

  (* Buffers kept per class: enough for the deepest pack-before-unpack
     window a step produces per owner, small enough to bound retention. *)
  let max_per_class = 8

  let create () = { classes = Array.make 63 []; hits = 0; misses = 0 }

  (* Class c holds buffers of exactly 2^c elements. *)
  let class_of n =
    let rec go c cap = if cap >= n then c else go (c + 1) (cap * 2) in
    go 0 1

  (* Outstanding-lease census: buffers migrate between the parallel
     backend's per-worker pools (acquired on the sender's, released
     into the receiver's), so per-pool balances are meaningless — the
     count of acquired-but-not-yet-released leases lives in one
     process-wide atomic.  Executors sample it while they hold a lease
     to charge [pool_lease_peak]. *)
  let live = Atomic.make 0
  let live_leases () = Atomic.get live

  (* A buffer with at least [n] slots (callers use the first [n]), plus
     whether it came from the pool. *)
  let acquire t n =
    ignore (Atomic.fetch_and_add live 1);
    let c = class_of (Int.max 1 n) in
    match t.classes.(c) with
    | buf :: rest ->
      t.classes.(c) <- rest;
      t.hits <- t.hits + 1;
      (true, buf)
    | [] ->
      t.misses <- t.misses + 1;
      (false, Buf.create (1 lsl c))

  (* Return a buffer obtained from [acquire] (of this or any other pool:
     buffers migrate between the parallel backend's per-worker pools as
     packets cross mailboxes). *)
  let release t buf =
    ignore (Atomic.fetch_and_add live (-1));
    let c = class_of (Buf.length buf) in
    if Buf.length buf = 1 lsl c && List.length t.classes.(c) < max_per_class
    then t.classes.(c) <- buf :: t.classes.(c)

  let hits t = t.hits
  let misses t = t.misses
end

(* Record on [mach] that a staging lease is currently held: the
   process-wide live-lease count at this instant is a lower bound the
   run demonstrably reached.  Called right after every [Pool.acquire]
   performed on behalf of [mach]. *)
let note_lease (mach : Machine.t) =
  let c = mach.Machine.counters in
  c.Machine.pool_lease_peak <-
    Int.max c.Machine.pool_lease_peak (Pool.live_leases ())

(* --- segment copies --------------------------------------------------------- *)

(* Pack a message's runs from the source payload into the first
   [m_count] slots of [staging], in run order (= row-major box order):
   one kernel call per run, each run landing as one dense block. *)
let pack_runs (runs : Redist.run array) (sbuf : Buf.t) staging =
  let k = ref 0 in
  for i = 0 to Array.length runs - 1 do
    let r = runs.(i) in
    let len = r.Redist.r_len and count = r.Redist.r_count in
    Buf.copy_run sbuf r.Redist.r_src r.Redist.r_src_stride staging !k len ~len
      ~count;
    k := !k + (len * count)
  done

let unpack_runs (runs : Redist.run array) staging (dbuf : Buf.t) =
  let k = ref 0 in
  for i = 0 to Array.length runs - 1 do
    let r = runs.(i) in
    let len = r.Redist.r_len and count = r.Redist.r_count in
    Buf.copy_run staging !k len dbuf r.Redist.r_dst r.Redist.r_dst_stride ~len
      ~count;
    k := !k + (len * count)
  done

(* The message's runs for a (src, dst) endpoint pair (memoized on the
   message). *)
let runs_of ~src ~dst (m : Redist.message) =
  Redist.message_runs ~src:src.addressing ~dst:dst.addressing m

(* Compile the whole plan's runs for this endpoint pair before any data
   moves (the scalar oracle never reads them). *)
let precompile ~src ~dst (plan : Redist.plan) =
  if not !force_scalar then
    Redist.precompile_runs ~src:src.addressing ~dst:dst.addressing plan

(* Is this message's memoized datapath [Direct] under these endpoints?
   (Independent of the runtime switches; callers combine it with
   [direct_enabled].) *)
let message_direct ~src ~dst (m : Redist.message) =
  match
    Redist.message_datapath ~src:src.addressing ~dst:dst.addressing m
  with
  | Redist.Direct _ -> true
  | Redist.Staged _ -> false

(* Copy a message's runs payload to payload, no staging buffer, one
   kernel call per run.  The two endpoint buffers may alias (an in-place
   copy exposes one buffer to both endpoints): the kernel walks each
   run's segments away from the overlap, which is memmove semantics for
   the gather and scatter runs such a copy compiles to. *)
let run_direct ~src ~dst (m : Redist.message) =
  let sbuf = src.buffer ~rank:m.Redist.m_from
  and dbuf = dst.buffer ~rank:m.Redist.m_to in
  let runs = runs_of ~src ~dst m in
  for i = 0 to Array.length runs - 1 do
    let r = runs.(i) in
    Buf.copy_run sbuf r.Redist.r_src r.Redist.r_src_stride dbuf
      r.Redist.r_dst r.Redist.r_dst_stride ~len:r.Redist.r_len
      ~count:r.Redist.r_count
  done

(* On-processor move: no staging buffer, no message.  The blit path
   copies payload to payload directly, run by run. *)
let run_local ~src ~dst (m : Redist.message) =
  if !force_scalar then
    Redist.iter_box m.Redist.m_box (fun index ->
        dst.write ~rank:m.Redist.m_to index (src.read ~rank:m.Redist.m_from index))
  else run_direct ~src ~dst m

(* The sequential executor's staging pool (the parallel backend keeps
   its own, one per worker domain). *)
let default_pool = Pool.create ()

(* Pack, deliver, unpack one cross-processor message.  The staging
   buffer comes from [pool]; its first [m_count] slots carry the
   payload in row-major box order under either data path. *)
let run_message ?(pool = default_pool) mach ~src ~dst (m : Redist.message) =
  let c = (mach : Machine.t).Machine.counters in
  let hit, staging = Pool.acquire pool m.Redist.m_count in
  note_lease mach;
  if hit then c.Machine.pool_hits <- c.Machine.pool_hits + 1
  else c.Machine.pool_misses <- c.Machine.pool_misses + 1;
  (if !force_scalar then begin
     let k = ref 0 in
     Redist.iter_box m.Redist.m_box (fun index ->
         Buf.set staging !k (src.read ~rank:m.Redist.m_from index);
         incr k);
     let k = ref 0 in
     Redist.iter_box m.Redist.m_box (fun index ->
         dst.write ~rank:m.Redist.m_to index (Buf.get staging !k);
         incr k)
   end
   else begin
     let runs = runs_of ~src ~dst m in
     pack_runs runs (src.buffer ~rank:m.Redist.m_from) staging;
     unpack_runs runs staging (dst.buffer ~rank:m.Redist.m_to)
   end);
  Pool.release pool staging;
  Machine.record mach
    (Machine.Message { from_rank = m.Redist.m_from; to_rank = m.Redist.m_to; count = m.Redist.m_count })

(* Pack positions [sl_off, sl_off + sl_len) of a message's row-major box
   order into the first [sl_len] slots of [staging] — the collective
   lowering's unit of transfer.  A full-range slice degenerates to
   {!pack_runs}. *)
let pack_slice (runs : Redist.run array) (sbuf : Buf.t) staging ~off ~len =
  let k = ref 0 in
  Redist.iter_run_slice runs ~off ~len (fun s _ n ->
      Buf.copy_run sbuf s 0 staging !k 0 ~len:n ~count:1;
      k := !k + n)

let unpack_slice (runs : Redist.run array) staging (dbuf : Buf.t) ~off ~len =
  let k = ref 0 in
  Redist.iter_run_slice runs ~off ~len (fun _ d n ->
      Buf.copy_run staging !k 0 dbuf d 0 ~len:n ~count:1;
      k := !k + n)

(* Pack, deliver, unpack one slice of a cross-processor message — the
   collective analogue of {!run_message}.  The staging buffer only ever
   holds [sl_len] elements, which is how the phase budget bounds peak
   staging memory. *)
let run_slice ?(pool = default_pool) mach ~src ~dst (sl : Redist.slice) =
  let m = sl.Redist.sl_msg in
  let c = (mach : Machine.t).Machine.counters in
  let hit, staging = Pool.acquire pool sl.Redist.sl_len in
  note_lease mach;
  if hit then c.Machine.pool_hits <- c.Machine.pool_hits + 1
  else c.Machine.pool_misses <- c.Machine.pool_misses + 1;
  (if !force_scalar then begin
     let k = ref 0 in
     Redist.iter_box_slice m.Redist.m_box ~off:sl.Redist.sl_off
       ~len:sl.Redist.sl_len (fun index ->
         Buf.set staging !k (src.read ~rank:m.Redist.m_from index);
         incr k);
     let k = ref 0 in
     Redist.iter_box_slice m.Redist.m_box ~off:sl.Redist.sl_off
       ~len:sl.Redist.sl_len (fun index ->
         dst.write ~rank:m.Redist.m_to index (Buf.get staging !k);
         incr k)
   end
   else begin
     let runs = runs_of ~src ~dst m in
     pack_slice runs
       (src.buffer ~rank:m.Redist.m_from)
       staging ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len;
     unpack_slice runs staging
       (dst.buffer ~rank:m.Redist.m_to)
       ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len
   end);
  Pool.release pool staging;
  Machine.record mach
    (Machine.Message
       {
         from_rank = m.Redist.m_from;
         to_rank = m.Redist.m_to;
         count = sl.Redist.sl_len;
       })

(* How an executor runs a plan end to end; [execute] below is the
   sequential reference, the domain-parallel backend provides another. *)
type executor = Machine.t -> src:endpoint -> dst:endpoint -> Redist.plan -> unit

(* Message/volume counters and the modeled clock charge for one executed
   plan, per the machine's scheduling mode — shared by every executor so
   the accounting cannot drift between backends. *)
let charge (mach : Machine.t) (plan : Redist.plan) (prog : Redist.step list) =
  let c = mach.Machine.counters in
  c.Machine.local_moves <- c.Machine.local_moves + Redist.local_total plan;
  c.Machine.messages <- c.Machine.messages + Redist.nb_messages plan;
  c.Machine.volume <- c.Machine.volume + Redist.total_moved plan;
  match mach.Machine.sched with
  | Machine.Burst ->
    c.Machine.time <- c.Machine.time +. Redist.modeled_time mach.Machine.cost plan
  | Machine.Stepped ->
    c.Machine.steps <- c.Machine.steps + List.length prog;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume (Redist.peak_step_volume prog);
    c.Machine.time <-
      c.Machine.time +. Redist.modeled_time_of_steps mach.Machine.cost prog

(* Replay the modeled schedule into the machine trace after the fact —
   the executor hook for out-of-step delivery.  An executor that moves
   real data in a different wall-clock order (the parallel backend,
   stepped or async) records the identical [Step_begin] / [Message] /
   [Step_end] stream the sequential executor produces, so trace-level
   oracles cannot tell executors apart; only measured wall events
   differ.  [on_step i] runs right after step [i]'s [Step_end] (the
   stepped backend appends its measured [Wall_step] there). *)
let record_schedule_trace ?(on_step = fun _ -> ()) (mach : Machine.t)
    (prog : Redist.step list) =
  List.iteri
    (fun i s ->
      Machine.record mach
        (Machine.Step_begin
           {
             index = i;
             nb_messages = List.length s;
             volume = Redist.step_volume s;
           });
      List.iter
        (fun (m : Redist.message) ->
          Machine.record mach
            (Machine.Message
               {
                 from_rank = m.Redist.m_from;
                 to_rank = m.Redist.m_to;
                 count = m.Redist.m_count;
               }))
        s;
      Machine.record mach
        (Machine.Step_end { index = i; time = Redist.step_time mach.Machine.cost s });
      on_step i)
    prog

(* [charge] for the collective lowering: the message/volume/local-move
   counters are lowering-independent (both lowerings move the same
   payloads), and burst mode charges the same unordered exchange; only
   stepped mode sees the phase structure — [steps] counts phases,
   [peak_step_volume] is the phase-budgeted peak, time sums
   {!Redist.phase_time} over serialized phases. *)
let charge_collective (mach : Machine.t) (plan : Redist.plan)
    (cp : Redist.collective) =
  let c = mach.Machine.counters in
  c.Machine.local_moves <- c.Machine.local_moves + Redist.local_total plan;
  c.Machine.messages <- c.Machine.messages + Redist.nb_messages plan;
  c.Machine.volume <- c.Machine.volume + Redist.total_moved plan;
  match mach.Machine.sched with
  | Machine.Burst ->
    c.Machine.time <- c.Machine.time +. Redist.modeled_time mach.Machine.cost plan
  | Machine.Stepped ->
    c.Machine.steps <- c.Machine.steps + Redist.nb_phases cp;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume
        (Redist.peak_phase_volume cp.Redist.c_phases);
    c.Machine.time <-
      c.Machine.time +. Redist.modeled_time_of_phases mach.Machine.cost cp

(* {!record_schedule_trace} for the collective lowering: one
   [Step_begin] / [Step_end] bracket per phase, one [Message] event per
   slice (its [count] is the slice length, so per-(from, to) counts
   still sum to the message volumes).  Used by the parallel backend to
   replay the modeled phase program after out-of-order delivery. *)
let record_collective_trace ?(on_step = fun _ -> ()) (mach : Machine.t)
    (cp : Redist.collective) =
  List.iteri
    (fun i ph ->
      Machine.record mach
        (Machine.Step_begin
           {
             index = i;
             nb_messages = List.length ph;
             volume = Redist.phase_volume ph;
           });
      List.iter
        (fun (sl : Redist.slice) ->
          Machine.record mach
            (Machine.Message
               {
                 from_rank = sl.Redist.sl_msg.Redist.m_from;
                 to_rank = sl.Redist.sl_msg.Redist.m_to;
                 count = sl.Redist.sl_len;
               }))
        ph;
      Machine.record mach
        (Machine.Step_end
           {
             index = i;
             time = Redist.phase_time mach.Machine.cost cp.Redist.c_kind ph;
           });
      on_step i)
    cp.Redist.c_phases

(* Datapath accounting for one executed plan — [run_blits],
   [zero_copy_runs] and [staged_bytes].  Derived from the memoized runs
   and datapath decisions rather than bumped inside the data movement,
   so every executor — including the parallel backend, whose workers
   never touch the machine — charges byte-identically:

   - scalar oracle: no blits, no zero-copy; every moved element stages
     ([staged_bytes = 8 * volume]);
   - forced staged: PR 4's accounting — locals copy once, messages pack
     and unpack ([run_blits = L + 2 * M] segments), every moved element
     stages;
   - zero-copy (default): locals and [Direct] messages charge their
     segments to [zero_copy_runs], only [Staged] messages blit twice and
     stage their bytes.

   [run_blits]/[staged_bytes] count what the datapath copies in total
   and are charged from the same formulas under both lowerings (slicing
   a message splits segments at execution time but moves the same
   elements through staging exactly once).  [peak_bytes] is the one
   datapath counter the lowering changes: the high-water of staged bytes
   in flight within one step/phase of the schedule that actually ran —
   [~collective] selects which schedule's peak to charge.  Staged-ness
   is all-or-nothing across a plan's messages (a cross-processor message
   is [Direct] iff both endpoints address row-major, a per-plan
   property), so probing one move decides the whole plan. *)
let staged_peak_volume ~src ~dst ~collective (plan : Redist.plan) =
  match plan.Redist.moves with
  | [] -> 0
  | m :: _ ->
    let staged =
      !force_scalar || !force_staged || not (message_direct ~src ~dst m)
    in
    if not staged then 0
    else if collective then Redist.peak_collective_volume plan
    else Redist.peak_step_volume (Redist.step_program plan)

let charge_datapath ?(collective = false) (mach : Machine.t) ~src ~dst
    (plan : Redist.plan) =
  let c = mach.Machine.counters in
  c.Machine.peak_bytes <-
    Int.max c.Machine.peak_bytes
      (8 * staged_peak_volume ~src ~dst ~collective plan);
  let stage_all () =
    c.Machine.staged_bytes <-
      c.Machine.staged_bytes + (8 * Redist.total_moved plan)
  in
  if !force_scalar then stage_all ()
  else begin
    let segments m = Redist.nb_run_segments (runs_of ~src ~dst m) in
    if !force_staged then begin
      let total =
        List.fold_left (fun acc m -> acc + segments m) 0 plan.Redist.locals
        + List.fold_left
            (fun acc m -> acc + (2 * segments m))
            0 plan.Redist.moves
      in
      c.Machine.run_blits <- c.Machine.run_blits + total;
      stage_all ()
    end
    else begin
      List.iter
        (fun m ->
          c.Machine.zero_copy_runs <- c.Machine.zero_copy_runs + segments m)
        plan.Redist.locals;
      List.iter
        (fun (m : Redist.message) ->
          if message_direct ~src ~dst m then
            c.Machine.zero_copy_runs <- c.Machine.zero_copy_runs + segments m
          else begin
            c.Machine.run_blits <- c.Machine.run_blits + (2 * segments m);
            c.Machine.staged_bytes <-
              c.Machine.staged_bytes + (8 * m.Redist.m_count)
          end)
        plan.Redist.moves
    end
  end

(* Execute a plan's collective phase program: local moves first, then
   each phase's slices in order.  A direct-eligible message moves whole
   — [run_direct] fires once, at its offset-zero slice (plan messages
   write disjoint destination regions, so completing it "early" is
   unobservable) — but every slice still records its [Message] event:
   the modeled exchange is sliced either way, so the trace is
   datapath-independent. *)
let execute_collective ?(pool = default_pool) (mach : Machine.t) ~src ~dst
    (plan : Redist.plan) =
  precompile ~src ~dst plan;
  List.iter (run_local ~src ~dst) plan.Redist.locals;
  let cp = Redist.collective_program plan in
  let direct_ok = direct_enabled () in
  List.iteri
    (fun i ph ->
      Machine.record mach
        (Machine.Step_begin
           {
             index = i;
             nb_messages = List.length ph;
             volume = Redist.phase_volume ph;
           });
      List.iter
        (fun (sl : Redist.slice) ->
          let m = sl.Redist.sl_msg in
          if direct_ok && message_direct ~src ~dst m then begin
            if sl.Redist.sl_off = 0 then run_direct ~src ~dst m;
            Machine.record mach
              (Machine.Message
                 {
                   from_rank = m.Redist.m_from;
                   to_rank = m.Redist.m_to;
                   count = sl.Redist.sl_len;
                 })
          end
          else run_slice ~pool mach ~src ~dst sl)
        ph;
      Machine.record mach
        (Machine.Step_end
           {
             index = i;
             time = Redist.phase_time mach.Machine.cost cp.Redist.c_kind ph;
           }))
    cp.Redist.c_phases;
  charge_collective mach plan cp;
  charge_datapath ~collective:true mach ~src ~dst plan

(* Execute a plan: local moves first (they need no schedule), then the
   step program in schedule order.  Direct-eligible messages skip the
   staging pool entirely (their datapath was decided when the message
   was memoized); they still record a [Message] event, since the modeled
   exchange is the same.  When the lowering switch (or the auto cost
   rule) picks the collective lowering, the phase program runs
   instead. *)
let execute (mach : Machine.t) ~src ~dst (plan : Redist.plan) =
  if collective_chosen mach plan then execute_collective mach ~src ~dst plan
  else begin
    precompile ~src ~dst plan;
    List.iter (run_local ~src ~dst) plan.Redist.locals;
    let prog = Redist.step_program plan in
    let direct_ok = direct_enabled () in
    List.iteri
      (fun i s ->
        Machine.record mach
          (Machine.Step_begin
             {
               index = i;
               nb_messages = List.length s;
               volume = Redist.step_volume s;
             });
        List.iter
          (fun (m : Redist.message) ->
            if direct_ok && message_direct ~src ~dst m then begin
              run_direct ~src ~dst m;
              Machine.record mach
                (Machine.Message
                   {
                     from_rank = m.Redist.m_from;
                     to_rank = m.Redist.m_to;
                     count = m.Redist.m_count;
                   })
            end
            else run_message mach ~src ~dst m)
          s;
        Machine.record mach
          (Machine.Step_end
             { index = i; time = Redist.step_time mach.Machine.cost s }))
      prog;
    charge mach plan prog;
    charge_datapath mach ~src ~dst plan
  end

(* --- fused batch execution -------------------------------------------------- *)

(* Execute several plan instances as one fused batch — the serve layer's
   remap fusion.  The batch is a list of groups; each group is one plan
   object shared by its members (same canonical layout pair, so the same
   messages against different payloads), and distinct groups carry plans
   whose rank footprints the caller has checked are disjoint, so
   overlaying their programs index by index keeps every fused step
   contention-free in the modeled machine.  Each group runs under the
   lowering [execute] would pick for it solo — step program or
   budget-sliced phase program — so fused accounting follows the
   lowering switch exactly like solo accounting does.

   Per member, the observable accounting is exactly the sequential
   [execute]'s: the same [Step_begin] / [Message] / [Step_end] stream on
   its machine (members only ever see their own steps), then [charge] (or
   [charge_collective]) and [charge_datapath] from the same memoized
   runs.  What fusion actually shares is the work: one program walk per
   group, and one pooled staging lease per message (or per slice) reused
   across every staged member (pack member k's source, deliver, unpack
   member k's target, fully overwriting the lease before member k+1) — so
   only the pool totals, which executors may distribute differently by
   design, distinguish a fused run from solo runs.  The caller charges
   [fused_remaps]; this function is policy-free. *)
let execute_fused ?(pool = default_pool)
    (groups : (Redist.plan * (Machine.t * endpoint * endpoint) list) list) =
  (* local moves first, per member, exactly like [execute] *)
  List.iter
    (fun ((plan : Redist.plan), members) ->
      List.iter
        (fun (_, src, dst) ->
          precompile ~src ~dst plan;
          List.iter (run_local ~src ~dst) plan.Redist.locals)
        members)
    groups;
  (* Each group runs under the lowering [execute] would pick for it
     solo.  Members share the plan object and (by the fusion layer's
     construction) equivalent cost models, so the first member's machine
     decides for the whole group. *)
  let progs =
    List.map
      (fun ((plan : Redist.plan), members) ->
        match members with
        | (mach, _, _) :: _ when collective_chosen mach plan ->
          let cp = Redist.collective_program plan in
          (plan, `Coll (cp, Array.of_list cp.Redist.c_phases), members)
        | _ -> (plan, `P2p (Array.of_list (Redist.step_program plan)), members))
      groups
  in
  let nsteps =
    List.fold_left
      (fun acc (_, prog, _) ->
        Int.max acc
          (match prog with
          | `P2p steps -> Array.length steps
          | `Coll (_, phases) -> Array.length phases))
      0 progs
  in
  let direct_ok = direct_enabled () in
  (* one staging lease per message (or per slice of it), shared by
     every staged member of the group; acquired lazily so an all-direct
     transfer touches no buffer, charged to the first staged member's
     machine *)
  let shared_lease count (mach : Machine.t) staging =
    match !staging with
    | Some b -> b
    | None ->
      let c = mach.Machine.counters in
      let hit, b = Pool.acquire pool count in
      note_lease mach;
      if hit then c.Machine.pool_hits <- c.Machine.pool_hits + 1
      else c.Machine.pool_misses <- c.Machine.pool_misses + 1;
      staging := Some b;
      b
  in
  for i = 0 to nsteps - 1 do
    List.iter
      (fun (_, prog, members) ->
        match prog with
        | `P2p steps when i < Array.length steps ->
          let s = steps.(i) in
          List.iter
            (fun ((mach : Machine.t), _, _) ->
              Machine.record mach
                (Machine.Step_begin
                   {
                     index = i;
                     nb_messages = List.length s;
                     volume = Redist.step_volume s;
                   }))
            members;
          List.iter
            (fun (m : Redist.message) ->
              let staging = ref None in
              List.iter
                (fun ((mach : Machine.t), src, dst) ->
                  (if direct_ok && message_direct ~src ~dst m then
                     run_direct ~src ~dst m
                   else begin
                     let buf = shared_lease m.Redist.m_count mach staging in
                     if !force_scalar then begin
                       let k = ref 0 in
                       Redist.iter_box m.Redist.m_box (fun index ->
                           Buf.set buf !k (src.read ~rank:m.Redist.m_from index);
                           incr k);
                       let k = ref 0 in
                       Redist.iter_box m.Redist.m_box (fun index ->
                           dst.write ~rank:m.Redist.m_to index (Buf.get buf !k);
                           incr k)
                     end
                     else begin
                       let runs = runs_of ~src ~dst m in
                       pack_runs runs (src.buffer ~rank:m.Redist.m_from) buf;
                       unpack_runs runs buf (dst.buffer ~rank:m.Redist.m_to)
                     end
                   end);
                  Machine.record mach
                    (Machine.Message
                       {
                         from_rank = m.Redist.m_from;
                         to_rank = m.Redist.m_to;
                         count = m.Redist.m_count;
                       }))
                members;
              Option.iter (Pool.release pool) !staging)
            s;
          List.iter
            (fun ((mach : Machine.t), _, _) ->
              Machine.record mach
                (Machine.Step_end
                   { index = i; time = Redist.step_time mach.Machine.cost s }))
            members
        | `Coll (cp, phases) when i < Array.length phases ->
          let ph = phases.(i) in
          List.iter
            (fun ((mach : Machine.t), _, _) ->
              Machine.record mach
                (Machine.Step_begin
                   {
                     index = i;
                     nb_messages = List.length ph;
                     volume = Redist.phase_volume ph;
                   }))
            members;
          List.iter
            (fun (sl : Redist.slice) ->
              let m = sl.Redist.sl_msg in
              let staging = ref None in
              List.iter
                (fun ((mach : Machine.t), src, dst) ->
                  (if direct_ok && message_direct ~src ~dst m then begin
                     if sl.Redist.sl_off = 0 then run_direct ~src ~dst m
                   end
                   else begin
                     let buf = shared_lease sl.Redist.sl_len mach staging in
                     if !force_scalar then begin
                       let k = ref 0 in
                       Redist.iter_box_slice m.Redist.m_box
                         ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len
                         (fun index ->
                           Buf.set buf !k (src.read ~rank:m.Redist.m_from index);
                           incr k);
                       let k = ref 0 in
                       Redist.iter_box_slice m.Redist.m_box
                         ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len
                         (fun index ->
                           dst.write ~rank:m.Redist.m_to index (Buf.get buf !k);
                           incr k)
                     end
                     else begin
                       let runs = runs_of ~src ~dst m in
                       pack_slice runs
                         (src.buffer ~rank:m.Redist.m_from)
                         buf ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len;
                       unpack_slice runs buf
                         (dst.buffer ~rank:m.Redist.m_to)
                         ~off:sl.Redist.sl_off ~len:sl.Redist.sl_len
                     end
                   end);
                  Machine.record mach
                    (Machine.Message
                       {
                         from_rank = m.Redist.m_from;
                         to_rank = m.Redist.m_to;
                         count = sl.Redist.sl_len;
                       }))
                members;
              Option.iter (Pool.release pool) !staging)
            ph;
          List.iter
            (fun ((mach : Machine.t), _, _) ->
              Machine.record mach
                (Machine.Step_end
                   {
                     index = i;
                     time =
                       Redist.phase_time mach.Machine.cost cp.Redist.c_kind ph;
                   }))
            members
        | _ -> ())
      progs
  done;
  List.iter
    (fun (plan, prog, members) ->
      List.iter
        (fun (mach, src, dst) ->
          match prog with
          | `P2p steps ->
            charge mach plan (Array.to_list steps);
            charge_datapath mach ~src ~dst plan
          | `Coll (cp, _) ->
            charge_collective mach plan cp;
            charge_datapath ~collective:true mach ~src ~dst plan)
        members)
    progs
