(** Shared-memory SPMD execution backend: runs the communication IR for
    real on OCaml 5 domains.

    A {!t} is a persistent team of worker domains; processor ranks are
    multiplexed onto the team round robin, so one pool serves plans over
    any processor grid and nprocs may exceed the core count.  Two
    execution disciplines share the pool:

    - {e stepped} (default): a remap executes the plan's existing step
      program the way a lockstep message-passing runtime would — per
      step, every rank packs its outgoing boxes into staging buffers,
      posts them to the receiving ranks' mailboxes, unpacks what it
      received, and crosses a barrier — so the schedule's
      contention-freedom is exercised by construction;

    - {e async} (the [Exec.Async] schedule): dependency-driven, no
      barriers.  Each rank
      posts its staged sends eagerly in plan order under a window of at
      most 2 un-acknowledged staging leases (double buffering: packing
      message k+1 overlaps the receiver's unpack of message k) and
      completes incoming messages as they arrive; completion is a
      per-message flag — the receiver posts an [Ack] back to the
      sender's mailbox, releasing one lease.  Safe without barriers
      because a plan's messages write pairwise-disjoint destination
      regions.

    Data movement follows the machine's datapath in both modes:
    compiled-run blits by default (run memos are precompiled on the
    coordinator before workers share the messages), the per-element
    scalar oracle or the unconditional staging path when selected;
    staging buffers come from one [Comm.Pool] per worker domain and
    migrate between pools as packets cross mailboxes.  The caller's
    domain owns all machine accounting: the usual counters and modeled
    clock (shared with the sequential executor through [Comm.charge] and
    the replayed [Comm.record_rounds] stream, so modeled numbers are
    byte-identical across executors and modes) plus the pool hit/miss
    deltas, the [wall_time] counter and the measured wall events —
    [Wall_step] / [Wall_remap] per stepped run, [Wall_msg] per staged
    message plus the [async_completions] counter per async run. *)

type t

(** Spawn a team of [ndomains] worker domains (defaults to
    [Domain.recommended_domain_count ()]; values < 1 also fall back to
    it).  The pool persists until {!destroy}. *)
val create : ?ndomains:int -> unit -> t

val ndomains : t -> int

(** Join the team.  The pool cannot be used afterwards: {!execute}
    raises.  Idempotent. *)
val destroy : t -> unit

(** High-water mark, over the ranks of the last async job run on this
    pool, of simultaneously held staging leases (posted, not yet
    acknowledged sends).  0 before any async job; never exceeds the
    double-buffer window of 2. *)
val last_max_leases : t -> int

(** Execute a plan on the pool: local moves, then the staged messages
    under the stepped or the async discipline — [async] defaults to
    whether {!Hpfc_runtime.Exec.default}'s schedule is [Async].  Payload
    endpoints must address per-rank storage; the plan's disjoint-write
    structure makes both disciplines race-free on the store's payloads.
    A worker that raises aborts the job: its siblings are released from
    their barrier and mailbox waits, the exception is re-raised here
    once the whole team has left the job, and the pool stays usable
    (the destination copy is then partially written).
    @raise Hpfc_base.Error.Hpf_error if the pool was destroyed. *)
val execute :
  ?async:bool ->
  t ->
  Hpfc_runtime.Machine.t ->
  src:Hpfc_runtime.Comm.endpoint ->
  dst:Hpfc_runtime.Comm.endpoint ->
  Hpfc_runtime.Redist.plan ->
  unit

(** {!execute} as a store-pluggable executor, its discipline latched
    when the executor is built ([async] defaults as in {!execute}). *)
val executor : ?async:bool -> t -> Hpfc_runtime.Comm.executor
