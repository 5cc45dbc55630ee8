(** Simulated message-passing machine.

    The substitute for the paper's distributed-memory target: the
    redistribution engine computes exactly which elements move between
    which processors, and this module accounts for them under an
    alpha-beta cost model.  Modeled time for one remapping step is the
    critical path: max over processors of
    [alpha * messages + beta * volume], on the send or receive side.
    Absolute numbers are synthetic; counts and volumes are exact. *)

type cost_model = {
  alpha : float;  (** per-message startup cost *)
  beta : float;  (** per-element transfer cost *)
  coll_alpha_a2a : float;
      (** per-phase startup of a collective all-to-all phase *)
  coll_alpha_ag : float;
      (** per-phase startup of a collective all-gather phase *)
  coll_alpha_scatter : float;
      (** per-phase startup of a collective scatter phase *)
  coll_beta : float;  (** per-element transfer cost inside a phase *)
}

(** alpha = 50, beta = 1; collective phase alphas 40/35/30 (one startup
    covers a whole contention-free phase of up to P slices), collective
    beta = 1. *)
val default_cost : cost_model

(** How a remapping's messages are charged to the clock: [Burst] charges
    the whole plan as one unordered exchange (alpha-beta critical path);
    [Stepped] decomposes it into contention-free steps — no processor
    sends or receives twice within a step — each costing its slowest
    message, serialized (cf. Rink et al., arXiv:2112.01075).  The
    configuration's schedule ({!Exec.sched}) is this type. *)
type sched_mode = Exec.sched = Burst | Stepped

type counters = {
  mutable messages : int;
  mutable volume : int;  (** elements sent between distinct processors *)
  mutable local_moves : int;  (** elements staying on their processor *)
  mutable remaps_performed : int;  (** copies that actually ran *)
  mutable remaps_skipped : int;  (** status test: already mapped as required *)
  mutable live_reuses : int;  (** live copy reused: no communication *)
  mutable dead_copies : int;  (** D/N copies: allocation without data *)
  mutable allocs : int;
  mutable frees : int;
  mutable evictions : int;  (** live copies freed under memory pressure *)
  mutable plan_hits : int;  (** redistribution plans served from cache *)
  mutable plan_misses : int;  (** plans computed from scratch *)
  mutable plan_evictions : int;
      (** plans dropped by the LRU bound of the plan cache *)
  mutable steps : int;
      (** contention-free steps executed (stepped mode only) *)
  mutable peak_step_volume : int;
      (** max elements in flight within one step — a peak-memory proxy
          for communication staging buffers *)
  mutable run_blits : int;
      (** contiguous segments copied by the compiled-run pack/unpack path
          (a strided run of [count] segments counts [count]); 0 under the
          scalar oracle path *)
  mutable zero_copy_runs : int;
      (** contiguous segments copied payload-to-payload with no staging
          buffer: on-processor moves and direct-eligible messages under
          the zero-copy datapath; 0 under the scalar and staged
          datapaths *)
  mutable staged_bytes : int;
      (** bytes routed through staging buffers (8 per staged element;
          scalar and staged-datapath runs stage every moved element, so
          there it equals [8 * volume]) *)
  mutable pool_hits : int;
      (** staging buffers served from a size-classed buffer pool *)
  mutable pool_misses : int;  (** staging buffers freshly allocated *)
  mutable peak_bytes : int;
      (** high-water of modeled staging bytes in flight within one
          step/phase of the executed lowering's schedule (8 per staged
          element); 0 when every message takes the zero-copy direct
          path.  Derived from the memoized schedule like [steps]/[time]
          so every executor charges it identically; the collective
          lowering's phase budget keeps it at or below the
          point-to-point value on every plan *)
  mutable pool_lease_peak : int;
      (** measured high-water of simultaneously outstanding staging-pool
          leases (acquired, not yet released buffers) across the run's
          pools — executor history like the pool totals, scrubbed by
          cross-executor comparisons *)
  layout_pad : int;
      (** always 0, never read: keeps the record in the major-heap size
          class it had before a field was deleted (see machine.ml) *)
  mutable fused_remaps : int;
      (** remaps executed as members of a multi-tenant fused batch (same
          layout pair, or plans with disjoint rank footprints, sharing
          one step walk and pooled staging leases in the serve layer);
          0 outside the service *)
  mutable time : float;  (** modeled communication time *)
  mutable wall_time : float;
      (** measured wall-clock seconds spent moving data in a real
          parallel backend; 0 under purely simulated execution *)
}

val fresh_counters : unit -> counters

(** Copy every field of the second record into [into] (used by {!reset}
    and the counter-isolation tests). *)
val copy_counters : into:counters -> counters -> unit

(** Structured execution-trace events (gated by [record_trace]), one
    constructor per observable transition of the plan / schedule / execute
    pipeline.  A remapping that runs brackets its message stream between
    [Remap_begin] and [Remap_end]; within it, each contention-free step
    brackets its messages between [Step_begin] and [Step_end]. *)
type event =
  | Remap_begin of { array : string; src : int option; dst : int }
  | Remap_end of {
      array : string;
      src : int option;
      dst : int;
      volume : int;  (** elements moved between distinct processors *)
      time : float;  (** modeled clock charged to this remap *)
    }
  | Plan_lookup of { hit : bool }  (** plan-cache probe for a remap *)
  | Step_begin of { index : int; nb_messages : int; volume : int }
  | Step_end of { index : int; time : float }
      (** [time]: the step's modeled cost, [alpha + beta * slowest] *)
  | Message of { from_rank : int; to_rank : int; count : int }
  | Wall_step of { index : int; wall : float }
      (** measured wall-clock seconds of one step on a real parallel
          backend; recorded right after the step's [Step_end] *)
  | Wall_remap of { steps : int; wall : float }
      (** measured wall-clock seconds of a whole remap on a real parallel
          backend; recorded right before [Remap_end] *)
  | Dead_copy of { array : string; src : int option; dst : int }
  | Live_reuse of { array : string; dst : int }
  | Skip of { array : string; dst : int }
  | Evict of { array : string; version : int }

(** Bounded event trace: a ring buffer — once full, the oldest events are
    overwritten and counted as dropped. *)
type trace = {
  buf : event option array;
  mutable head : int;  (** next write position *)
  mutable len : int;
  mutable dropped : int;
}

val default_trace_capacity : int

type t = {
  nprocs : int;
  cost : cost_model;
  sched : sched_mode;  (** how remapping messages are charged to [time] *)
  datapath : Exec.datapath;
      (** how every executor moves this run's data (zero-copy, staged or
          the scalar oracle) *)
  lower : Exec.lower;  (** how this run's plans are lowered *)
  counters : counters;
  memory_limit : int option;  (** max live elements across all copies *)
  mutable memory_used : int;
  trace : trace;
  record_trace : bool;
}

(** A fresh machine.  [sched] defaults to [Burst]; [datapath] and
    [lower] default to {!Exec.default}'s, so a forced environment
    reaches every machine that does not pin them. *)
val create :
  ?cost:cost_model ->
  ?sched:sched_mode ->
  ?datapath:Exec.datapath ->
  ?lower:Exec.lower ->
  ?memory_limit:int ->
  ?record_trace:bool ->
  ?trace_capacity:int ->
  nprocs:int ->
  unit ->
  t

(** Append an event (no-op unless [record_trace]). *)
val record : t -> event -> unit

(** Retained events in execution order (oldest first). *)
val events : t -> event list

(** Events overwritten because the ring buffer was full. *)
val dropped_events : t -> int

(** Size of the trace ring buffer. *)
val trace_capacity : t -> int

(** One-line JSON summary of the trace ([events], [dropped], [capacity],
    [complete]) plus the machine's staging-pool totals
    ([pool_hits]/[pool_misses]); dumped after the retained events so a
    truncated trace is never mistaken for a complete one. *)
val trace_summary_json : t -> string

val pp_event : Format.formatter -> event -> unit
val pp_trace : Format.formatter -> t -> unit

(** One event as a single-line JSON object (the [--trace] dump format);
    hand-rolled, since the toolchain carries no JSON library. *)
val event_to_json : event -> string

(** Zero all counters. *)
val reset : t -> unit

(** A detached copy of the machine's live counters — safe to report from
    another domain than the one executing (the serve layer's per-tenant
    snapshots). *)
val snapshot_counters : t -> counters

val pp_counters : Format.formatter -> counters -> unit
