(** Shared-memory SPMD execution backend: runs the communication IR for
    real on OCaml 5 domains.

    A {!t} is a persistent team of worker domains; processor ranks are
    multiplexed onto the team round robin, so one pool serves plans over
    any processor grid and nprocs may exceed the core count.  A remap
    executes the plan's existing step program the way a lockstep
    message-passing runtime would — per step, every rank packs its
    outgoing boxes into staging buffers, posts them to the receiving
    ranks' mailboxes, unpacks what it received, and crosses a barrier —
    so the schedule's contention-freedom is exercised by construction.

    Data moves through compiled-run blits (run memos are precompiled on
    the coordinator before workers share the messages): direct messages
    payload to payload on the sending rank, the rest through staging
    buffers that come from one [Comm.Pool] per worker domain and migrate
    between pools as packets cross mailboxes.  The caller's domain owns
    all machine accounting: the usual counters and modeled clock (shared
    with the sequential executor through [Comm.charge] and the replayed
    [Comm.record_rounds] stream, so modeled numbers are byte-identical
    across executors) plus the pool hit/miss deltas, the [wall_time]
    counter and the measured wall events, [Wall_step] per step and
    [Wall_remap] per remap. *)

type t

(** Spawn a team of [ndomains] worker domains (defaults to
    [Domain.recommended_domain_count ()]; values < 1 also fall back to
    it).  The pool persists until {!destroy}. *)
val create : ?ndomains:int -> unit -> t

val ndomains : t -> int

(** Join the team.  The pool cannot be used afterwards: {!execute}
    raises.  Idempotent. *)
val destroy : t -> unit

(** Execute a plan on the pool: local moves, then the staged messages
    step by step.  Payload endpoints must address per-rank storage; the
    plan's disjoint-write structure makes the run race-free on the
    store's payloads.
    A worker that raises aborts the job: its siblings are released from
    their barrier and mailbox waits, the exception is re-raised here
    once the whole team has left the job, and the pool stays usable
    (the destination copy is then partially written).
    @raise Hpfc_base.Error.Hpf_error if the pool was destroyed. *)
val execute :
  t ->
  Hpfc_runtime.Machine.t ->
  src:Hpfc_runtime.Comm.endpoint ->
  dst:Hpfc_runtime.Comm.endpoint ->
  Hpfc_runtime.Redist.plan ->
  unit

(** {!execute} as a store-pluggable executor. *)
val executor : t -> Hpfc_runtime.Comm.executor
