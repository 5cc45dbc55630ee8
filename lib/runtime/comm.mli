(** Communication executor: the execute layer of the plan / schedule /
    execute pipeline.

    Runs a plan's step program message by message and owns the
    accounting: message/volume/local-move counters, the clock charge of
    the rounds it walked, and the modeled staging bill.
    With [record_trace], step boundaries ([Step_begin]/[Step_end]) and
    individual [Message] events land in the machine trace; each
    [Step_end] carries the round's modeled cost, so the traced step times
    sum to the time charged and the [Step_begin] events count [steps].

    Every copy of this process lives in one address space, so one rule
    moves the data: every message, on-processor or cross-rank, copies
    its compiled runs payload to payload with overlap-safe
    {!Buf.copy_run} calls ({!run_direct}) and no staging buffer.  What
    an SPMD runtime with one memory per rank would stage
    ({!Redist.message_stages}) is billed, not performed: [run_blits],
    [staged_bytes] and [peak_bytes] ({!charge}).  The lowering is a
    field of the machine handed to the executor ({!Machine.t}'s
    [lower]), so runs on different machines may differ on it. *)

(** How the executor touches a copy's storage: flat offsets computed
    from [addressing] index directly into [buffer ~rank], where [rank]
    is the linear processor rank the access is performed on (per-rank
    backends return that rank's buffer; global payloads ignore it). *)
type endpoint = {
  addressing : Redist.addressing;
  buffer : rank:int -> Buf.t;
}

(** Does the machine's lowering pick the collective phase program for
    this plan?  Under [Exec.Auto]: yes iff the plan has cross-processor
    moves and its modeled collective time does not exceed the stepped
    point-to-point time (the collective never loses on peak staging
    memory by construction, so time is the only axis weighed). *)
val collective_chosen : Machine.t -> Redist.plan -> bool

(** The message's compiled runs for this endpoint pair
    ({!Redist.message_runs} on the endpoints' addressings). *)
val runs_of : src:endpoint -> dst:endpoint -> Redist.message -> Redist.run array

(** Compile every message's runs of a plan for this endpoint pair
    ({!Redist.precompile_runs}).  The executors call it before moving
    data. *)
val precompile : src:endpoint -> dst:endpoint -> Redist.plan -> unit

(** Copy a message's runs payload to payload with no staging buffer,
    one {!Buf.copy_run} per run: every on-processor move and every
    cross-rank message.  The endpoint buffers may alias (an in-place
    copy exposes one buffer to both endpoints; generated copy code
    never makes one): the kernel walks each run away from the overlap,
    which gives memmove semantics for the gather and scatter runs such
    a copy compiles to.  Records nothing; callers record the [Message]
    event for cross-processor messages. *)
val run_direct : src:endpoint -> dst:endpoint -> Redist.message -> unit

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
    message/volume/local-move counters and the modeled clock of the
    rounds that ran ([steps] counts the steps or phases, [time] sums
    their costs, [peak_step_volume] is the largest round), and the
    modeled staging bill — [run_blits]/[zero_copy_runs]/
    [staged_bytes]/[peak_bytes], what an SPMD runtime with one memory
    per rank would copy — derived from the memoized runs and
    {!Redist.message_stages}, never from the data movement: locals and
    messages that would not stage charge their segments to
    [zero_copy_runs]; messages that would stage charge [run_blits] twice
    their segments and [staged_bytes] 8 bytes per element.
    [peak_bytes] is the staged high-water of one round of the schedule
    that ran (0 when no message would stage). *)
val charge :
  collective:bool ->
  Machine.t ->
  src:endpoint ->
  dst:endpoint ->
  Redist.plan ->
  unit

(** Execute a plan end to end: local moves first, then the lowered
    schedule round by round ({!collective_chosen} picks the lowering).
    Each message moves whole, payload to payload, at its offset-zero
    item: plan messages write pairwise-disjoint destination regions, so
    moving a sliced message at its first slice is unobservable. *)
val execute : executor

(** Execute several plan instances as one fused batch — the serve
    layer's remap fusion.  Each group is one plan object shared by its
    members (same canonical layout pair: the same messages against
    different payloads); distinct groups must carry plans with disjoint
    rank footprints, so overlaying their step programs index by index
    keeps every fused step contention-free.  Every member's machine must
    agree on the lowering.  Per member, the observable
    accounting (trace stream, {!charge}) is exactly the sequential
    {!execute}'s; what fusion shares is the work, one step walk per
    group.  The caller charges [fused_remaps].
    @raise Invalid_argument if two members' machines differ in
    lowering. *)
val execute_fused :
  (Redist.plan * (Machine.t * endpoint * endpoint) list) list ->
  unit
