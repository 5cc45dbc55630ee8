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
   - the *staged* path ([Exec.Staged]): every cross-processor message
     packs its compiled runs into a pooled staging buffer through the
     same kernel and unpacks on the receive side — PR 4's behaviour,
     kept continuously differential-tested;
   - the *scalar* path ([Exec.Scalar]): the original per-element
     endpoint closures, the oracle both blit paths are tested against;
     it stages every message.

   The path, like the lowering, is a field of the machine the executor
   is handed ([Machine.datapath], [Machine.lower]), so runs on different
   machines may differ on both at once.

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

(* Zero-copy is a blit-path refinement: the scalar oracle stages every
   message, and the staged datapath disables the direct fast path. *)
let direct_enabled (mach : Machine.t) = mach.Machine.datapath = Exec.Zero_copy

let scalar (mach : Machine.t) = mach.Machine.datapath = Exec.Scalar

(* The auto rule: lower collectively exactly when its modeled time does
   not exceed the stepped point-to-point time (the collective never
   loses on peak memory by construction, so time is the only axis the
   planner needs to weigh).  Balanced many-phase slicings lose on the
   per-phase alphas and fall back to p2p; matching-like and
   replicated-destination plans win on the cheaper collective alphas. *)
let collective_chosen (mach : Machine.t) (plan : Redist.plan) =
  match mach.Machine.lower with
  | Exec.P2p -> false
  | Exec.Collective -> true
  | Exec.Auto ->
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

(* The message's runs for a (src, dst) endpoint pair (memoized on the
   message). *)
let runs_of ~src ~dst (m : Redist.message) =
  Redist.message_runs ~src:src.addressing ~dst:dst.addressing m

(* Compile the whole plan's runs for this endpoint pair before any data
   moves (the scalar oracle never reads them). *)
let precompile mach ~src ~dst (plan : Redist.plan) =
  if not (scalar mach) then
    Redist.precompile_runs ~src:src.addressing ~dst:dst.addressing plan

(* Is this message's memoized datapath [Direct] under these endpoints?
   (Independent of the machine's datapath; callers combine it with
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
let run_local ~scalar ~src ~dst (m : Redist.message) =
  if scalar then
    Redist.iter_box m.Redist.m_box (fun index ->
        dst.write ~rank:m.Redist.m_to index (src.read ~rank:m.Redist.m_from index))
  else run_direct ~src ~dst m

(* The sequential executor's staging pool (the parallel backend keeps
   its own, one per worker domain). *)
let default_pool = Pool.create ()

(* Copy positions [off, off + len) of a message's row-major box order
   from the source payload into the first [len] slots of [staging],
   through its compiled runs: a whole message is one kernel call per run
   (each run lands as one dense block), a slice one per run piece
   ([Redist.iter_run_slice]'s walk). *)
let pack_runs (runs : Redist.run array) sbuf (m : Redist.message) ~off ~len
    staging =
  if off = 0 && len = m.Redist.m_count then begin
    let k = ref 0 in
    for i = 0 to Array.length runs - 1 do
      let r = runs.(i) in
      let len = r.Redist.r_len and count = r.Redist.r_count in
      Buf.copy_run sbuf r.Redist.r_src r.Redist.r_src_stride staging !k len
        ~len ~count;
      k := !k + (len * count)
    done
  end
  else begin
    let k = ref 0 in
    Redist.iter_run_slice runs ~off ~len (fun s _ n ->
        Buf.copy_run sbuf s 0 staging !k 0 ~len:n ~count:1;
        k := !k + n)
  end

(* The inverse walk on the receive side. *)
let unpack_runs (runs : Redist.run array) staging dbuf (m : Redist.message)
    ~off ~len =
  if off = 0 && len = m.Redist.m_count then begin
    let k = ref 0 in
    for i = 0 to Array.length runs - 1 do
      let r = runs.(i) in
      let len = r.Redist.r_len and count = r.Redist.r_count in
      Buf.copy_run staging !k len dbuf r.Redist.r_dst r.Redist.r_dst_stride
        ~len ~count;
      k := !k + (len * count)
    done
  end
  else begin
    let k = ref 0 in
    Redist.iter_run_slice runs ~off ~len (fun _ d n ->
        Buf.copy_run staging !k 0 dbuf d 0 ~len:n ~count:1;
        k := !k + n)
  end

(* The send side of one staged transfer, positions [off, off + len) of
   the message: through the per-element closures under the scalar
   oracle, else through the compiled runs. *)
let pack_staged ~scalar ~src ~dst (m : Redist.message) ~off ~len staging =
  if scalar then begin
    let k = ref 0 in
    Redist.iter_box_slice m.Redist.m_box ~off ~len (fun index ->
        Buf.set staging !k (src.read ~rank:m.Redist.m_from index);
        incr k)
  end
  else
    pack_runs (runs_of ~src ~dst m)
      (src.buffer ~rank:m.Redist.m_from)
      m ~off ~len staging

(* The receive side: the inverse walk. *)
let unpack_staged ~scalar ~src ~dst (m : Redist.message) ~off ~len staging =
  if scalar then begin
    let k = ref 0 in
    Redist.iter_box_slice m.Redist.m_box ~off ~len (fun index ->
        dst.write ~rank:m.Redist.m_to index (Buf.get staging !k);
        incr k)
  end
  else
    unpack_runs (runs_of ~src ~dst m) staging
      (dst.buffer ~rank:m.Redist.m_to)
      m ~off ~len

(* Both sides on one thread of control, looking the runs up once. *)
let transfer_staged ~scalar ~src ~dst (m : Redist.message) ~off ~len staging =
  if scalar then begin
    pack_staged ~scalar ~src ~dst m ~off ~len staging;
    unpack_staged ~scalar ~src ~dst m ~off ~len staging
  end
  else begin
    let runs = runs_of ~src ~dst m in
    pack_runs runs (src.buffer ~rank:m.Redist.m_from) m ~off ~len staging;
    unpack_runs runs staging (dst.buffer ~rank:m.Redist.m_to) m ~off ~len
  end

(* Take a staging lease from [pool] on behalf of [mach], mirroring the
   hit or miss into its counters. *)
let lease pool (mach : Machine.t) n =
  let c = mach.Machine.counters in
  let hit, staging = Pool.acquire pool n in
  note_lease mach;
  if hit then c.Machine.pool_hits <- c.Machine.pool_hits + 1
  else c.Machine.pool_misses <- c.Machine.pool_misses + 1;
  staging

let record_message mach (m : Redist.message) count =
  Machine.record mach
    (Machine.Message
       { from_rank = m.Redist.m_from; to_rank = m.Redist.m_to; count })

(* Pack, deliver, unpack positions [off, off + len) of one
   cross-processor message through a staging buffer of the sequential
   executor's pool — a whole message under the point-to-point lowering,
   one budget-bounded slice under the collective one (the staging buffer
   only ever holds [len] elements, which is how the phase budget bounds
   peak staging memory). *)
let run_staged mach ~src ~dst (m : Redist.message) ~off ~len =
  let staging = lease default_pool mach len in
  transfer_staged ~scalar:(scalar mach) ~src ~dst m ~off ~len staging;
  Pool.release default_pool staging;
  record_message mach m len

(* How an executor runs a plan end to end; [execute] below is the
   sequential reference, the domain-parallel backend provides another. *)
type executor = Machine.t -> src:endpoint -> dst:endpoint -> Redist.plan -> unit

(* --- lowered schedules ------------------------------------------------- *)

(* One round of the schedule a plan is lowered to: a step of the
   point-to-point step program (whole messages) or a phase of the
   collective phase program (ring shift classes, budget-bounded slices).
   Every executor walks rounds without knowing which lowering produced
   them; a round wraps the memoized program, so walking one allocates
   no per-message items. *)
type round = Step of Redist.step | Phase of Redist.phase_kind * Redist.phase

let rounds ~collective (plan : Redist.plan) =
  if collective then
    let cp = Redist.collective_program plan in
    List.map (fun ph -> Phase (cp.Redist.c_kind, ph)) cp.Redist.c_phases
  else List.map (fun s -> Step s) (Redist.step_program plan)

(* [f m off len] for each send of the round, in schedule order: positions
   [off, off + len) of message [m]'s row-major box order. *)
let iter_items f = function
  | Step s -> List.iter (fun (m : Redist.message) -> f m 0 m.Redist.m_count) s
  | Phase (_, ph) ->
    List.iter
      (fun (sl : Redist.slice) ->
        f sl.Redist.sl_msg sl.Redist.sl_off sl.Redist.sl_len)
      ph

let step_begin mach i r =
  Machine.record mach
    (match r with
    | Step s ->
      Machine.Step_begin
        { index = i; nb_messages = List.length s; volume = Redist.step_volume s }
    | Phase (_, ph) ->
      Machine.Step_begin
        {
          index = i;
          nb_messages = List.length ph;
          volume = Redist.phase_volume ph;
        })

let step_end (mach : Machine.t) i r =
  let time =
    match r with
    | Step s -> Redist.step_time mach.Machine.cost s
    | Phase (kind, ph) -> Redist.phase_time mach.Machine.cost kind ph
  in
  Machine.record mach (Machine.Step_end { index = i; time })

(* Replay a schedule into the machine trace after the fact — the
   executor hook for out-of-step delivery.  An executor that moves real
   data in a different wall-clock order (the parallel backend) records
   the identical [Step_begin] / [Message] /
   [Step_end] stream the sequential executor produces, so trace-level
   oracles cannot tell executors apart; only measured wall events
   differ.  [on_step i] runs right after round [i]'s [Step_end] (the
   parallel backend appends its measured [Wall_step] there). *)
let record_rounds ?(on_step = fun _ -> ()) mach rounds =
  List.iteri
    (fun i r ->
      step_begin mach i r;
      iter_items (fun m _ len -> record_message mach m len) r;
      step_end mach i r;
      on_step i)
    rounds

(* Message/volume counters and the modeled clock charge for one executed
   plan, per the machine's scheduling mode.  The message/volume/local-move
   counters and the burst charge are lowering-independent (both
   lowerings move the same payloads); only stepped mode sees the
   schedule — [steps] counts its steps or phases, [peak_step_volume] is
   the step (or budgeted phase) peak, and time sums the serialized
   rounds. *)
let charge_modeled ~collective (mach : Machine.t) (plan : Redist.plan) =
  let c = mach.Machine.counters and cost = mach.Machine.cost in
  c.Machine.local_moves <- c.Machine.local_moves + Redist.local_total plan;
  c.Machine.messages <- c.Machine.messages + Redist.nb_messages plan;
  c.Machine.volume <- c.Machine.volume + Redist.total_moved plan;
  match mach.Machine.sched with
  | Machine.Burst ->
    c.Machine.time <- c.Machine.time +. Redist.modeled_time cost plan
  | Machine.Stepped when collective ->
    let cp = Redist.collective_program plan in
    c.Machine.steps <- c.Machine.steps + Redist.nb_phases cp;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume
        (Redist.peak_phase_volume cp.Redist.c_phases);
    c.Machine.time <- c.Machine.time +. Redist.modeled_time_of_phases cost cp
  | Machine.Stepped ->
    let prog = Redist.step_program plan in
    c.Machine.steps <- c.Machine.steps + List.length prog;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume (Redist.peak_step_volume prog);
    c.Machine.time <- c.Machine.time +. Redist.modeled_time_of_steps cost prog

(* Datapath accounting for one executed plan — [run_blits],
   [zero_copy_runs] and [staged_bytes].  Derived from the memoized runs
   and datapath decisions rather than bumped inside the data movement,
   so every executor — including the parallel backend, whose workers
   never touch the machine — charges byte-identically:

   - scalar oracle: no blits, no zero-copy; every moved element stages
     ([staged_bytes = 8 * volume]);
   - staged: PR 4's accounting — locals copy once, messages pack
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
let staged_peak_volume mach ~src ~dst ~collective (plan : Redist.plan) =
  match plan.Redist.moves with
  | [] -> 0
  | m :: _ ->
    let staged =
      (not (direct_enabled mach)) || not (message_direct ~src ~dst m)
    in
    if not staged then 0
    else if collective then Redist.peak_collective_volume plan
    else Redist.peak_step_volume (Redist.step_program plan)

let charge_datapath ~collective (mach : Machine.t) ~src ~dst
    (plan : Redist.plan) =
  let c = mach.Machine.counters in
  c.Machine.peak_bytes <-
    Int.max c.Machine.peak_bytes
      (8 * staged_peak_volume mach ~src ~dst ~collective plan);
  let stage_all () =
    c.Machine.staged_bytes <-
      c.Machine.staged_bytes + (8 * Redist.total_moved plan)
  in
  let segments m = Redist.nb_run_segments (runs_of ~src ~dst m) in
  let sum f msgs = List.fold_left (fun acc m -> acc + f m) 0 msgs in
  match mach.Machine.datapath with
  | Exec.Scalar -> stage_all ()
  | Exec.Staged ->
    c.Machine.run_blits <-
      c.Machine.run_blits + sum segments plan.Redist.locals
      + (2 * sum segments plan.Redist.moves);
    stage_all ()
  | Exec.Zero_copy ->
    c.Machine.zero_copy_runs <-
      c.Machine.zero_copy_runs + sum segments plan.Redist.locals;
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

(* All accounting for one executed plan, shared by every executor so it
   cannot drift between backends: the modeled charge and the datapath
   charge of the lowering that ran. *)
let charge ~collective mach ~src ~dst plan =
  charge_modeled ~collective mach plan;
  charge_datapath ~collective mach ~src ~dst plan

(* Execute a plan: local moves first (they need no schedule), then the
   lowered schedule round by round — the step program, or the phase
   program when the machine's lowering (or the auto cost rule) picks
   the collective one.  A direct-eligible message skips the staging
   pool and moves payload to payload whole, at its offset-zero item
   (plan messages write disjoint destination regions, so completing a
   sliced message "early" is unobservable); every item still records
   its [Message] event, so the trace is datapath-independent. *)
let execute (mach : Machine.t) ~src ~dst (plan : Redist.plan) =
  let collective = collective_chosen mach plan in
  precompile mach ~src ~dst plan;
  List.iter (run_local ~scalar:(scalar mach) ~src ~dst) plan.Redist.locals;
  let direct_ok = direct_enabled mach in
  List.iteri
    (fun i r ->
      step_begin mach i r;
      iter_items
        (fun m off len ->
          if direct_ok && message_direct ~src ~dst m then begin
            if off = 0 then run_direct ~src ~dst m;
            record_message mach m len
          end
          else run_staged mach ~src ~dst m ~off ~len)
        r;
      step_end mach i r)
    (rounds ~collective plan);
  charge ~collective mach ~src ~dst plan

(* --- fused batch execution -------------------------------------------------- *)

(* Execute several plan instances as one fused batch — the serve layer's
   remap fusion.  The batch is a list of groups; each group is one plan
   object shared by its members (same canonical layout pair, so the same
   messages against different payloads), and distinct groups carry plans
   whose rank footprints the caller has checked are disjoint, so
   overlaying their rounds index by index keeps every fused step
   contention-free in the modeled machine.  Every member's machine must
   agree on the datapath and the lowering — a member never runs under
   another member's configuration — and each group runs the schedule
   [execute] would lower it to solo.

   Per member, the observable accounting is exactly the sequential
   [execute]'s: the same [Step_begin] / [Message] / [Step_end] stream on
   its machine (members only ever see their own steps), then [charge]
   from the same memoized runs.  What fusion actually shares is the
   work: one schedule walk per group, and one pooled staging lease per
   message (or per slice) reused across every staged member (pack member
   k's source, deliver, unpack member k's target, fully overwriting the
   lease before member k+1) — so only the pool totals, which executors
   may distribute differently by design, distinguish a fused run from
   solo runs.  The caller charges [fused_remaps]; this function is
   policy-free. *)
let execute_fused ?(pool = default_pool)
    (groups : (Redist.plan * (Machine.t * endpoint * endpoint) list) list) =
  match groups with
  | [] -> ()
  | (_, []) :: _ -> invalid_arg "Comm.execute_fused: empty group"
  | (_, ((lead : Machine.t), _, _) :: _) :: _ ->
    if
      List.exists
        (fun (_, members) ->
          List.exists
            (fun ((m : Machine.t), _, _) ->
              m.Machine.datapath <> lead.Machine.datapath
              || m.Machine.lower <> lead.Machine.lower)
            members)
        groups
    then
      invalid_arg
        "Comm.execute_fused: members disagree on datapath or lowering";
    let scalar = scalar lead and direct_ok = direct_enabled lead in
    (* local moves first, per member, exactly like [execute] *)
    List.iter
      (fun ((plan : Redist.plan), members) ->
        List.iter
          (fun (mach, src, dst) ->
            precompile mach ~src ~dst plan;
            List.iter (run_local ~scalar ~src ~dst) plan.Redist.locals)
          members)
      groups;
    (* the group's first machine applies the auto rule's cost model *)
    let progs =
      List.map
        (fun (plan, members) ->
          let mach, _, _ = List.hd members in
          let collective = collective_chosen mach plan in
          (plan, collective, Array.of_list (rounds ~collective plan), members))
        groups
    in
    let nsteps =
      List.fold_left
        (fun acc (_, _, rs, _) -> Int.max acc (Array.length rs))
        0 progs
    in
    for i = 0 to nsteps - 1 do
      List.iter
        (fun (_, _, rs, members) ->
          if i < Array.length rs then begin
            let r = rs.(i) in
            List.iter (fun (mach, _, _) -> step_begin mach i r) members;
            iter_items
              (fun m off len ->
                (* one lease per item, shared by every staged member;
                   taken lazily so an all-direct item touches no buffer,
                   charged to the first staged member's machine *)
                let staging = ref None in
                List.iter
                  (fun (mach, src, dst) ->
                    (if direct_ok && message_direct ~src ~dst m then begin
                       if off = 0 then run_direct ~src ~dst m
                     end
                     else begin
                       let buf =
                         match !staging with
                         | Some b -> b
                         | None ->
                           let b = lease pool mach len in
                           staging := Some b;
                           b
                       in
                       transfer_staged ~scalar ~src ~dst m ~off ~len buf
                     end);
                    record_message mach m len)
                  members;
                Option.iter (Pool.release pool) !staging)
              r;
            List.iter (fun (mach, _, _) -> step_end mach i r) members
          end)
        progs
    done;
    List.iter
      (fun (plan, collective, _, members) ->
        List.iter
          (fun (mach, src, dst) -> charge ~collective mach ~src ~dst plan)
          members)
      progs
