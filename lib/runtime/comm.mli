(** Communication executor: the execute layer of the plan / schedule /
    execute pipeline.

    Runs a plan's step program message by message — pack the source box
    into a staging buffer in row-major box order, deliver, unpack into
    the target copy — and owns the accounting: message/volume/local-move
    counters always, clock charges per the machine's scheduling mode.
    With [record_trace], step boundaries ([Step_begin]/[Step_end]) and
    individual [Message] events land in the machine trace; each
    [Step_end] carries the step's modeled cost, so in stepped mode the
    traced step times sum to the time charged.

    Every payload, staging buffer and packet carries one buffer type,
    {!Buf.t}, and data movement runs on one of three paths: the default
    *zero-copy* path copies [Redist.Direct]-eligible messages
    (self-messages, globally addressed endpoints) payload to payload with
    overlap-safe {!Buf.copy_run} calls and no staging buffer; the *staged*
    path ({!force_staged}) packs every message's compiled runs into a pooled
    staging buffer and unpacks on the receive side; the *scalar* path
    ({!force_scalar}) keeps the original per-element closures as a
    differential oracle.  Modeled counters (messages, volume, steps,
    time) are identical between the paths by construction; only
    [run_blits]/[zero_copy_runs]/[staged_bytes] and the pool totals
    differ. *)

(** How the executor touches a copy's storage.  [rank] is the linear
    processor rank the access is performed on: per-rank backends address
    that rank's buffer directly; global payloads ignore it.
    [addressing] and [buffer] expose the same storage to the blit path:
    flat offsets computed from [addressing] index directly into
    [buffer ~rank]. *)
type endpoint = {
  read : rank:int -> int array -> float;
  write : rank:int -> int array -> float -> unit;
  addressing : Redist.addressing;
  buffer : rank:int -> Buf.t;
}

(** Route every pack/unpack through the per-element scalar closures
    instead of the compiled runs — the differential oracle.  Initialized
    from HPFC_FORCE_SCALAR (unset, empty or "0" means blit), set by the
    [--scalar] CLI flag.  Only write it between executed plans. *)
val force_scalar : bool ref

(** Route every [Redist.Direct]-eligible message through the staged
    pack/unpack path anyway (PR 4's unconditional behaviour), keeping
    the staged path continuously differential-tested.  Initialized from
    HPFC_FORCE_STAGED, set by the [--staged] CLI flag.  Only write it
    between executed plans. *)
val force_staged : bool ref

(** Deliver staged messages out of step order on the parallel backend —
    the async dependency-driven executor (per-message completion flags
    in the mailbox instead of a barrier per step).  Purely an
    execution-order choice: modeled counters and the replayed schedule
    trace stay byte-identical to the stepped executor ([Machine.Wall_msg]
    events and [async_completions] aside).  Initialized from
    HPFC_FORCE_ASYNC, set by the [--sched=async] CLI flag.  Only write
    it between executed plans. *)
val force_async : bool ref

(** Is the zero-copy direct datapath enabled under the current switches
    (neither scalar nor staged forced)? *)
val direct_enabled : unit -> bool

(** How a plan's cross-processor traffic is lowered: the point-to-point
    step program (default), the budget-sliced collective phase program
    ({!Redist.collective_program}), or a per-plan cost-model choice. *)
type lowering = Lower_p2p | Lower_collective | Lower_auto

(** Lowering switch.  Initialized from HPFC_FORCE_LOWER ("collective" /
    "auto"; unset, empty, "0" or "p2p" mean point-to-point), set by the
    [--lower] CLI flag.  Only write it between executed plans. *)
val force_lower : lowering ref

(** Does the current lowering switch pick the collective phase program
    for this plan?  Under [Lower_auto]: yes iff the plan has
    cross-processor moves and its modeled collective time does not
    exceed the stepped point-to-point time (the collective never loses
    on peak staging memory by construction, so time is the only axis
    weighed). *)
val collective_chosen : Machine.t -> Redist.plan -> bool

(** Size-classed free lists of staging buffers (power-of-two classes,
    bounded retention per class), so steady-state remaps reuse a handful
    of buffers instead of allocating one per message.  Not thread-safe:
    one pool per owning thread of control (the sequential executor keeps
    {!default_pool}; the parallel backend one pool per worker domain). *)
module Pool : sig
  type t

  val create : unit -> t

  (** [acquire t n] is [(hit, buf)] with [Buf.length buf >= max 1 n];
      callers use the first [n] slots.  [hit] says the buffer came from
      the pool rather than a fresh allocation. *)
  val acquire : t -> int -> bool * Buf.t

  (** Return a buffer obtained from [acquire] (of this or any other
      pool); dropped silently once the buffer's class is full. *)
  val release : t -> Buf.t -> unit

  (** Lifetime totals of this pool (executors mirror them into machine
      counters as they see fit). *)
  val hits : t -> int

  val misses : t -> int

  (** Process-wide count of currently outstanding leases (acquired, not
      yet released buffers) across all pools — buffers migrate between
      the parallel backend's per-worker pools, so the census is global.
      Executors sample it while holding a lease to charge the machine's
      [pool_lease_peak]. *)
  val live_leases : unit -> int
end

(** The sequential executor's staging pool. *)
val default_pool : Pool.t

(** [pack_runs runs payload staging] copies a message's runs from the
    source payload into the first [m_count] slots of [staging], in run
    order (= row-major box order, {!Redist.iter_box}'s packing walk). *)
val pack_runs : Redist.run array -> Buf.t -> Buf.t -> unit

(** [unpack_runs runs staging payload] is the inverse walk on the
    receive side. *)
val unpack_runs : Redist.run array -> Buf.t -> Buf.t -> unit

(** The message's compiled runs for this endpoint pair
    ({!Redist.message_runs} on the endpoints' addressings). *)
val runs_of : src:endpoint -> dst:endpoint -> Redist.message -> Redist.run array

(** Compile every message's runs of a plan for this endpoint pair
    ({!Redist.precompile_runs}); a no-op under {!force_scalar}.  The
    executors call it before moving data. *)
val precompile : src:endpoint -> dst:endpoint -> Redist.plan -> unit

(** Is the message's memoized datapath ({!Redist.message_datapath})
    [Direct] under these endpoints?  Independent of the runtime
    switches; callers combine it with {!direct_enabled}. *)
val message_direct : src:endpoint -> dst:endpoint -> Redist.message -> bool

(** Copy a message's runs payload to payload with no staging buffer,
    one {!Buf.copy_run} per run.  The endpoint buffers may alias (an
    in-place copy exposes one buffer to both endpoints): the kernel
    walks each run away from the overlap, which gives memmove semantics
    for the gather and scatter runs such a copy compiles to.  Records
    nothing; callers record the [Message] event for cross-processor
    messages. *)
val run_direct : src:endpoint -> dst:endpoint -> Redist.message -> unit

(** On-processor move: no staging buffer, no [Message] event.  The blit
    path copies payload to payload directly, run by run. *)
val run_local : src:endpoint -> dst:endpoint -> Redist.message -> unit

(** Pack, deliver, unpack one cross-processor message; bumps the
    machine's [pool_hits]/[pool_misses] and records a [Message] event.
    [pool] defaults to {!default_pool}. *)
val run_message :
  ?pool:Pool.t ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.message ->
  unit

(** [pack_slice runs payload staging ~off ~len] copies positions
    [off, off + len) of a message's row-major box order into the first
    [len] slots of [staging] — the collective lowering's unit of
    transfer ({!Redist.iter_run_slice}'s walk). *)
val pack_slice : Redist.run array -> Buf.t -> Buf.t -> off:int -> len:int -> unit

(** [unpack_slice runs staging payload ~off ~len] is the inverse walk on
    the receive side. *)
val unpack_slice :
  Redist.run array -> Buf.t -> Buf.t -> off:int -> len:int -> unit

(** Pack, deliver, unpack one slice of a cross-processor message — the
    collective analogue of {!run_message}: the staging buffer only ever
    holds [sl_len] elements.  Bumps [pool_hits]/[pool_misses] and
    records a [Message] event whose [count] is the slice length. *)
val run_slice :
  ?pool:Pool.t ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.slice ->
  unit

(** How an executor runs a plan end to end; {!execute} is the sequential
    reference implementation, [Hpfc_par.Par.executor] the domain-parallel
    one. *)
type executor = Machine.t -> src:endpoint -> dst:endpoint -> Redist.plan -> unit

(** Message/volume counters and the modeled clock charge for one executed
    plan, per the machine's scheduling mode — shared by every executor so
    the accounting cannot drift between backends. *)
val charge : Machine.t -> Redist.plan -> Redist.step list -> unit

(** {!charge} for the collective lowering: message/volume/local-move
    counters and the burst charge are lowering-independent; stepped mode
    counts phases in [steps], charges the phase-budgeted peak to
    [peak_step_volume], and sums {!Redist.phase_time} over serialized
    phases. *)
val charge_collective : Machine.t -> Redist.plan -> Redist.collective -> unit

(** Replay the modeled schedule into the machine trace after the fact —
    the executor hook for out-of-step delivery: an executor that moves
    real data in a different wall-clock order (the parallel backend,
    stepped or async) records the identical [Step_begin] / [Message] /
    [Step_end] stream the sequential executor produces.  [on_step i]
    runs right after step [i]'s [Step_end] (the stepped backend appends
    its measured [Wall_step] there). *)
val record_schedule_trace :
  ?on_step:(int -> unit) -> Machine.t -> Redist.step list -> unit

(** {!record_schedule_trace} for the collective lowering: one
    [Step_begin] / [Step_end] bracket per phase, one [Message] event per
    slice (its [count] is the slice length, so per-(from, to) counts
    still sum to the message volumes). *)
val record_collective_trace :
  ?on_step:(int -> unit) -> Machine.t -> Redist.collective -> unit

(** Datapath accounting for one executed plan —
    [run_blits]/[zero_copy_runs]/[staged_bytes]/[peak_bytes] — derived
    from the memoized runs and datapath decisions rather than bumped
    inside the data movement, so every executor charges byte-identically.
    Scalar runs stage every moved element ([staged_bytes = 8 * volume]);
    forced staged charges PR 4's [run_blits = locals + 2 * moves]
    segments and stages everything; the zero-copy default charges locals
    and [Direct] messages to [zero_copy_runs] and only [Staged] messages
    to [run_blits]/[staged_bytes].  [run_blits]/[staged_bytes] count
    total datapath traffic and are lowering-independent; [peak_bytes] is
    the high-water of staged bytes in flight within one step/phase of
    the schedule that actually ran — [collective] (default false)
    selects which schedule's peak to charge (0 when every message is
    direct). *)
val charge_datapath :
  ?collective:bool ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.plan ->
  unit

(** The peak charged by {!charge_datapath} in elements: 0 when the
    plan's messages take the zero-copy direct path under the current
    switches, else the executed schedule's peak step/phase volume. *)
val staged_peak_volume :
  src:endpoint -> dst:endpoint -> collective:bool -> Redist.plan -> int

(** Execute a plan end to end: local moves first, then the step program
    in schedule order — or the collective phase program when
    {!collective_chosen} says so. *)
val execute : executor

(** Execute a plan's collective phase program unconditionally (bypassing
    {!collective_chosen}): local moves first, then each phase's slices
    through [pool]-staged {!run_slice} (direct-eligible messages move
    whole at their offset-zero slice but still record per-slice
    [Message] events).  [pool] defaults to {!default_pool}; pass a
    private pool from concurrent workers. *)
val execute_collective :
  ?pool:Pool.t ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.plan ->
  unit

(** Execute several plan instances as one fused batch — the serve
    layer's remap fusion.  Each group is one plan object shared by its
    members (same canonical layout pair: the same messages against
    different payloads); distinct groups must carry plans with disjoint
    rank footprints, so overlaying their step programs index by index
    keeps every fused step contention-free.  Per member, the observable
    accounting (trace stream, {!charge}, {!charge_datapath}) is exactly
    the sequential {!execute}'s; what fusion shares is the work — one
    step walk per group and one pooled staging lease per message reused
    across the group's staged members — so only the pool totals
    distinguish a fused run from solo runs.  The caller charges
    [fused_remaps].  [pool] defaults to {!default_pool}; pass a private
    pool from concurrent workers. *)
val execute_fused :
  ?pool:Pool.t ->
  (Redist.plan * (Machine.t * endpoint * endpoint) list) list ->
  unit
