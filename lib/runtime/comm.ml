(* Communication executor: runs a redistribution plan's step program
   message by message — the execute layer of the plan / schedule /
   execute pipeline.

   Every copy of this process lives in one address space, so every
   message — on-processor or cross-rank, whole or sliced — moves the
   same way: its compiled runs are copied payload to payload, one
   [Buf.copy_run] kernel call per run, with no staging buffer.  Both
   store backends run the *identical* message stream — the canonical
   backend against the global payload, the distributed one against
   per-rank local buffers — so their end-to-end equivalence validates
   the communication IR itself, not just final values.  The lowering is
   a field of the machine the executor is handed ([Machine.lower]), so
   runs on different machines may differ on it.

   The executor also owns the accounting: message/volume/local-move
   counters, the clock charge of the rounds it walked (serialized
   contention-free steps or collective phases, with step/peak-volume
   counters), and the modeled staging bill — what an SPMD runtime with
   one memory per rank would pack, stage and unpack
   ([Redist.message_stages]).  With [record_trace], step boundaries and
   individual messages land in the machine's event trace; each
   [Step_end] carries the round's modeled cost, so the traced step times
   sum to the time charged, and the [Step_begin] events count the steps
   charged. *)

(* How the executor touches a copy's storage.  [rank] is the linear
   processor rank the access is performed on: backends with per-rank
   buffers address [rank]'s buffer directly; global payloads ignore it.
   Flat offsets computed from [addressing] index directly into
   [buffer ~rank]. *)
type endpoint = {
  addressing : Redist.addressing;
  buffer : rank:int -> Buf.t;
}

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

(* --- segment copies --------------------------------------------------------- *)

(* The message's runs for a (src, dst) endpoint pair (memoized on the
   message). *)
let runs_of ~src ~dst (m : Redist.message) =
  Redist.message_runs ~src:src.addressing ~dst:dst.addressing m

(* Compile the whole plan's runs for this endpoint pair before any data
   moves. *)
let precompile ~src ~dst (plan : Redist.plan) =
  Redist.precompile_runs ~src:src.addressing ~dst:dst.addressing plan

(* Copy a message's runs payload to payload, no staging buffer, one
   kernel call per run — every on-processor move and every cross-rank
   message.  The two endpoint buffers may alias (an in-place copy
   exposes one buffer to both endpoints; generated copy code never
   makes one): the kernel walks each run's segments away from the
   overlap, which is memmove semantics for the gather and scatter runs
   such a copy compiles to. *)
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

let record_message mach (m : Redist.message) count =
  Machine.record mach
    (Machine.Message
       { from_rank = m.Redist.m_from; to_rank = m.Redist.m_to; count })

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
   plan: the rounds the executors walk ([rounds]), so the bill is the
   run.  The message/volume/local-move counters are
   lowering-independent (both lowerings move the same payloads); [steps]
   counts the step program's steps or the collective program's phases,
   [peak_step_volume] is the step (or budgeted phase) peak, and time sums
   the serialized rounds — exactly the [Step_end] costs the trace
   records. *)
let charge_modeled ~collective (mach : Machine.t) (plan : Redist.plan) =
  let c = mach.Machine.counters and cost = mach.Machine.cost in
  c.Machine.local_moves <- c.Machine.local_moves + Redist.local_total plan;
  c.Machine.messages <- c.Machine.messages + Redist.nb_messages plan;
  c.Machine.volume <- c.Machine.volume + Redist.total_moved plan;
  if collective then begin
    let cp = Redist.collective_program plan in
    c.Machine.steps <- c.Machine.steps + Redist.nb_phases cp;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume
        (Redist.peak_phase_volume cp.Redist.c_phases);
    c.Machine.time <- c.Machine.time +. Redist.modeled_time_of_phases cost cp
  end
  else begin
    let prog = Redist.step_program plan in
    c.Machine.steps <- c.Machine.steps + List.length prog;
    c.Machine.peak_step_volume <-
      Int.max c.Machine.peak_step_volume (Redist.peak_step_volume prog);
    c.Machine.time <- c.Machine.time +. Redist.modeled_time_of_steps cost prog
  end

(* The modeled staging bill for one executed plan — [run_blits],
   [zero_copy_runs], [staged_bytes] and [peak_bytes]: what an SPMD
   runtime with one memory per rank would copy, derived from the
   memoized runs and the staging rule ([Redist.message_stages]), never
   from the data movement (which copies every message payload to payload
   here), so every executor charges byte-identically.  Locals and
   messages that would not stage charge their segments to
   [zero_copy_runs]; messages that would stage blit twice (pack and
   unpack) and stage 8 bytes per element.

   [run_blits]/[staged_bytes] are charged from the same formulas under
   both lowerings (slicing a message splits its segments but stages the
   same elements exactly once).  [peak_bytes] is the one counter the
   lowering changes: the high-water of staged bytes in flight within one
   step/phase of the schedule that ran — [~collective] selects which
   schedule's peak to charge.  The rule is all-or-nothing across a
   plan's moves (they cross ranks, so only the endpoints' addressing
   decides), so probing one move decides the whole plan. *)
let stages ~src ~dst m =
  Redist.message_stages ~src:src.addressing ~dst:dst.addressing m

let staged_peak_volume ~src ~dst ~collective (plan : Redist.plan) =
  match plan.Redist.moves with
  | [] -> 0
  | m :: _ ->
    if not (stages ~src ~dst m) then 0
    else if collective then Redist.peak_collective_volume plan
    else Redist.peak_step_volume (Redist.step_program plan)

let charge_datapath ~collective (mach : Machine.t) ~src ~dst
    (plan : Redist.plan) =
  let c = mach.Machine.counters in
  c.Machine.peak_bytes <-
    Int.max c.Machine.peak_bytes
      (8 * staged_peak_volume ~src ~dst ~collective plan);
  let segments m = Redist.nb_run_segments (runs_of ~src ~dst m) in
  List.iter
    (fun m ->
      c.Machine.zero_copy_runs <- c.Machine.zero_copy_runs + segments m)
    plan.Redist.locals;
  List.iter
    (fun (m : Redist.message) ->
      if stages ~src ~dst m then begin
        c.Machine.run_blits <- c.Machine.run_blits + (2 * segments m);
        c.Machine.staged_bytes <-
          c.Machine.staged_bytes + (8 * m.Redist.m_count)
      end
      else c.Machine.zero_copy_runs <- c.Machine.zero_copy_runs + segments m)
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
   the collective one.  A message moves payload to payload whole, at
   its offset-zero item (plan messages write disjoint destination
   regions, so completing a sliced message "early" is unobservable);
   every item still records its [Message] event, so the trace follows
   the schedule. *)
let execute (mach : Machine.t) ~src ~dst (plan : Redist.plan) =
  let collective = collective_chosen mach plan in
  precompile ~src ~dst plan;
  List.iter (run_direct ~src ~dst) plan.Redist.locals;
  List.iteri
    (fun i r ->
      step_begin mach i r;
      iter_items
        (fun m off len ->
          if off = 0 then run_direct ~src ~dst m;
          record_message mach m len)
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
   agree on the lowering — a member never runs under another member's
   configuration — and each group runs the schedule [execute] would
   lower it to solo.

   Per member, the observable accounting is exactly the sequential
   [execute]'s: the same [Step_begin] / [Message] / [Step_end] stream on
   its machine (members only ever see their own steps), then [charge]
   from the same memoized runs.  What fusion shares is the schedule
   walk, one per group, so nothing but [fused_remaps] distinguishes a
   fused run from solo runs.  The caller charges [fused_remaps]; this
   function is policy-free. *)
let execute_fused
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
              m.Machine.lower <> lead.Machine.lower)
            members)
        groups
    then invalid_arg "Comm.execute_fused: members disagree on lowering";
    (* local moves first, per member, exactly like [execute] *)
    List.iter
      (fun ((plan : Redist.plan), members) ->
        List.iter
          (fun (_, src, dst) ->
            precompile ~src ~dst plan;
            List.iter (run_direct ~src ~dst) plan.Redist.locals)
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
                List.iter
                  (fun (mach, src, dst) ->
                    if off = 0 then run_direct ~src ~dst m;
                    record_message mach m len)
                  members)
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
