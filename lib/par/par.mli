(** Shared-memory SPMD execution backend: runs the communication IR for
    real on OCaml 5 domains.

    A {!t} is a persistent team of worker domains; processor ranks are
    multiplexed onto the team round robin, so one pool serves plans over
    any processor grid and nprocs may exceed the core count.  A remap
    executes the plan's lowered schedule in lockstep — per round, every
    worker copies the messages its sending ranks send, payload to
    payload through their compiled runs ({!Hpfc_runtime.Comm.run_direct}),
    and crosses a barrier — so the schedule's contention-freedom is
    exercised by construction.  All copies share one address space: a
    message is one copy, with no staging buffer and no mailbox.

    The caller's domain owns all machine accounting: the usual counters,
    the modeled clock and the modeled staging bill (shared with the
    sequential executor through [Comm.charge] and the replayed
    [Comm.record_rounds] stream, so modeled numbers are byte-identical
    across executors) plus the [wall_time] counter and the measured wall
    events, [Wall_step] per step and [Wall_remap] per remap. *)

type t

(** Spawn a team of [ndomains] worker domains (defaults to
    [Domain.recommended_domain_count ()]; values < 1 also fall back to
    it).  The pool persists until {!destroy}. *)
val create : ?ndomains:int -> unit -> t

val ndomains : t -> int

(** Join the team.  The pool cannot be used afterwards: {!execute}
    raises.  Idempotent. *)
val destroy : t -> unit

(** Execute a plan on the pool: local moves, then the messages round by
    round.  Payload endpoints must address per-rank storage; the plan's
    disjoint-write structure makes the run race-free on the store's
    payloads.
    A worker that raises aborts the job: its siblings are released from
    their barrier waits, the exception is re-raised here
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
