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
    path packs every message's compiled runs into a pooled staging buffer
    and unpacks on the receive side; the *scalar* path keeps the original
    per-element closures as a differential oracle.  The path and the
    lowering are fields of the machine handed to the executor
    ({!Machine.t}'s [datapath] and [lower]), so runs on different
    machines may differ on both.  Modeled counters (messages, volume,
    steps, time) are identical between the paths by construction; only
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

(** Does the machine's datapath take the zero-copy direct path for
    [Redist.Direct]-eligible messages (neither scalar nor staged)? *)
val direct_enabled : Machine.t -> bool

(** Does the machine's lowering pick the collective phase program for
    this plan?  Under [Exec.Auto]: yes iff the plan has cross-processor
    moves and its modeled collective time does not exceed the stepped
    point-to-point time (the collective never loses on peak staging
    memory by construction, so time is the only axis weighed). *)
val collective_chosen : Machine.t -> Redist.plan -> bool

(** Size-classed free lists of staging buffers (power-of-two classes,
    bounded retention per class), so steady-state remaps reuse a handful
    of buffers instead of allocating one per message.  Not thread-safe:
    one pool per owning thread of control (the sequential executor keeps
    one of its own, the parallel backend one per worker domain). *)
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

(** The message's compiled runs for this endpoint pair
    ({!Redist.message_runs} on the endpoints' addressings). *)
val runs_of : src:endpoint -> dst:endpoint -> Redist.message -> Redist.run array

(** Compile every message's runs of a plan for this endpoint pair
    ({!Redist.precompile_runs}); a no-op under the scalar datapath.  The
    executors call it before moving data. *)
val precompile :
  Machine.t -> src:endpoint -> dst:endpoint -> Redist.plan -> unit

(** Is the message's memoized datapath ({!Redist.message_datapath})
    [Direct] under these endpoints?  Independent of the machine's
    datapath; callers combine it with {!direct_enabled}. *)
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
    path copies payload to payload directly, run by run; [scalar] walks
    the per-element closures instead. *)
val run_local :
  scalar:bool -> src:endpoint -> dst:endpoint -> Redist.message -> unit

(** [pack_staged ~scalar ~src ~dst m ~off ~len staging] copies positions
    [off, off + len) of the message's row-major box order into the first
    [len] slots of [staging] — through the per-element closures when
    [scalar], else through the compiled runs ({!Redist.iter_run_slice}'s
    walk; the whole-message range is one kernel call per run). *)
val pack_staged :
  scalar:bool ->
  src:endpoint ->
  dst:endpoint ->
  Redist.message ->
  off:int ->
  len:int ->
  Buf.t ->
  unit

(** The inverse walk on the receive side. *)
val unpack_staged :
  scalar:bool ->
  src:endpoint ->
  dst:endpoint ->
  Redist.message ->
  off:int ->
  len:int ->
  Buf.t ->
  unit

(** How an executor runs a plan end to end; {!execute} is the sequential
    reference implementation, [Hpfc_par.Par.executor] the domain-parallel
    one. *)
type executor = Machine.t -> src:endpoint -> dst:endpoint -> Redist.plan -> unit

(** One round of the schedule a plan is lowered to: a step of the
    point-to-point step program (whole messages) or a phase of the
    collective phase program (budget-bounded slices). *)
type round = Step of Redist.step | Phase of Redist.phase_kind * Redist.phase

(** The plan's lowered schedule: the collective phase program when
    [collective], else the step program. *)
val rounds : collective:bool -> Redist.plan -> round list

(** [iter_items f round] calls [f m off len] for each send of the round
    in schedule order: positions [off, off + len) of message [m]'s
    row-major box order (a whole message is [(m, 0, m_count)]). *)
val iter_items : (Redist.message -> int -> int -> unit) -> round -> unit

(** Replay a schedule into the machine trace after the fact — the
    executor hook for out-of-step delivery: an executor that moves real
    data in a different wall-clock order (the parallel backend) records
    the identical [Step_begin] / [Message] /
    [Step_end] stream the sequential executor produces (one [Message]
    per item, its [count] the item length).  [on_step i] runs right
    after round [i]'s [Step_end] (the parallel backend appends its
    measured [Wall_step] there). *)
val record_rounds : ?on_step:(int -> unit) -> Machine.t -> round list -> unit

(** All accounting for one executed plan under the lowering that ran,
    shared by every executor so it cannot drift between backends:
    message/volume/local-move counters and the modeled clock per the
    machine's scheduling mode (stepped mode counts steps or phases), and
    the datapath counters — [run_blits]/[zero_copy_runs]/
    [staged_bytes]/[peak_bytes] — derived from the memoized runs and
    datapath decisions, never from inside the data movement.  Scalar and
    staged runs stage every moved element ([staged_bytes = 8 * volume];
    staged charges [run_blits = locals + 2 * moves] segments);
    zero-copy charges locals and [Direct] messages to [zero_copy_runs].
    [peak_bytes] is the staged high-water of one round of the schedule
    that ran (0 when every message is direct). *)
val charge :
  collective:bool ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.plan ->
  unit

(** Execute a plan end to end: local moves first, then the lowered
    schedule round by round ({!collective_chosen} picks the lowering)
    through the sequential executor's staging pool. *)
val execute : executor

(** Execute several plan instances as one fused batch — the serve
    layer's remap fusion.  Each group is one plan object shared by its
    members (same canonical layout pair: the same messages against
    different payloads); distinct groups must carry plans with disjoint
    rank footprints, so overlaying their step programs index by index
    keeps every fused step contention-free.  Every member's machine must
    agree on the datapath and the lowering.  Per member, the observable
    accounting (trace stream, {!charge}) is exactly the sequential
    {!execute}'s; what fusion shares is the work — one
    step walk per group and one pooled staging lease per message reused
    across the group's staged members — so only the pool totals
    distinguish a fused run from solo runs.  The caller charges
    [fused_remaps].  [pool] defaults to the sequential executor's; pass
    a private pool from concurrent workers.
    @raise Invalid_argument if two members' machines differ in datapath
    or lowering. *)
val execute_fused :
  ?pool:Pool.t ->
  (Redist.plan * (Machine.t * endpoint * endpoint) list) list ->
  unit
