(* Simulated message-passing machine.

   This substitutes for the paper's distributed-memory target (we have no
   MPI here): the redistribution engine computes exactly which elements move
   between which processors, and the machine accounts for them under a
   standard alpha-beta cost model (alpha per message, beta per element).
   Modeled time for one remapping step is the bandwidth-limited critical
   path: max over processors of (alpha * messages + beta * volume) sent or
   received.  Absolute numbers are synthetic; shapes (who communicates how
   much, what the optimizations save) are exact. *)

type cost_model = {
  alpha : float;  (* per-message startup cost *)
  beta : float;  (* per-element transfer cost *)
  coll_alpha_a2a : float;  (* per-phase startup of an all-to-all phase *)
  coll_alpha_ag : float;  (* per-phase startup of an all-gather phase *)
  coll_alpha_scatter : float;  (* per-phase startup of a scatter phase *)
  coll_beta : float;  (* per-element transfer cost inside a phase *)
}

(* The collective alphas sit below the point-to-point alpha: one phase
   posts up to P slices under a single startup, which is exactly the
   amortization a portable collective buys (Rink et al.,
   arXiv:2112.01075).  The betas match — the wires are the same. *)
let default_cost =
  {
    alpha = 50.0;
    beta = 1.0;
    coll_alpha_a2a = 40.0;
    coll_alpha_ag = 35.0;
    coll_alpha_scatter = 30.0;
    coll_beta = 1.0;
  }

(* How a remapping's messages are charged against the clock:

   - [Burst]: all messages at once; time is the alpha-beta critical path
     (max over processors of send- or receive-side cost).
   - [Stepped]: the plan is decomposed into contention-free steps (no
     processor sends or receives twice within a step, cf. Rink et al.,
     arXiv:2112.01075); each step costs its slowest message and the steps
     are serialized.  The per-step volume doubles as a peak-memory proxy
     for staging buffers. *)
type sched_mode = Exec.sched = Burst | Stepped

type counters = {
  mutable messages : int;
  mutable volume : int;  (* elements sent between distinct processors *)
  mutable local_moves : int;  (* elements kept on their processor *)
  mutable remaps_performed : int;  (* copies that actually ran *)
  mutable remaps_skipped : int;  (* status test: already mapped as required *)
  mutable live_reuses : int;  (* live copy reused: no communication at all *)
  mutable dead_copies : int;  (* D/N copies: allocation without data *)
  mutable allocs : int;
  mutable frees : int;
  mutable evictions : int;  (* live copies freed under memory pressure *)
  mutable plan_hits : int;  (* redistribution plans served from cache *)
  mutable plan_misses : int;  (* plans computed from scratch *)
  mutable plan_evictions : int;  (* plans dropped by the LRU-bounded cache *)
  mutable steps : int;  (* contention-free steps executed (Stepped only) *)
  mutable peak_step_volume : int;  (* max elements in flight in one step *)
  mutable run_blits : int;
      (* contiguous segments copied by the compiled-run pack/unpack path;
         0 under the scalar oracle path *)
  mutable zero_copy_runs : int;
      (* contiguous segments copied payload-to-payload with no staging
         buffer (on-processor moves and direct-eligible messages); 0
         under the scalar and staged datapaths *)
  mutable staged_bytes : int;
      (* bytes routed through staging buffers (8 per element, both
         under the scalar oracle and the staged blit path); elided
         traffic shows up as zero_copy_runs instead *)
  mutable pool_hits : int;  (* staging buffers served from a buffer pool *)
  mutable pool_misses : int;  (* staging buffers freshly allocated *)
  mutable peak_bytes : int;
      (* high-water of modeled staging bytes in flight within one
         step/phase of the executed lowering's schedule (8 per staged
         element); 0 when every message takes the zero-copy direct path.
         Derived from the memoized schedule like [steps]/[time], so both
         executors charge it identically; the collective lowering's
         budget keeps it at or below the point-to-point value *)
  mutable pool_lease_peak : int;
      (* measured high-water of simultaneously outstanding staging-pool
         leases (acquired, not yet released buffers) across the run's
         pools — executor history like the pool totals, scrubbed by
         cross-executor comparisons *)
  layout_pad : int;
      (* always 0, never read: it keeps the record at 26 fields.  With 25
         the record falls into a smaller major-heap size class, and the
         perfbench serve workload's p50 latency rose from 0.062 to 0.081
         ms on a 2-core machine (EXPERIMENTS.md, PERF_ASYNC) *)
  mutable fused_remaps : int;
      (* remaps executed as members of a multi-tenant fused batch (same
         layout pair, or plans with disjoint rank footprints, sharing one
         step walk and pooled staging leases in the serve layer); 0
         outside the service *)
  mutable time : float;  (* modeled communication time *)
  mutable wall_time : float;
      (* measured wall-clock seconds spent moving data in a real parallel
         backend; 0 under purely simulated execution *)
}

let fresh_counters () =
  {
    messages = 0;
    volume = 0;
    local_moves = 0;
    remaps_performed = 0;
    remaps_skipped = 0;
    live_reuses = 0;
    dead_copies = 0;
    allocs = 0;
    frees = 0;
    evictions = 0;
    plan_hits = 0;
    plan_misses = 0;
    plan_evictions = 0;
    steps = 0;
    peak_step_volume = 0;
    run_blits = 0;
    zero_copy_runs = 0;
    staged_bytes = 0;
    pool_hits = 0;
    pool_misses = 0;
    peak_bytes = 0;
    pool_lease_peak = 0;
    layout_pad = 0;
    fused_remaps = 0;
    time = 0.0;
    wall_time = 0.0;
  }

(* Structured execution-trace events, one constructor per observable
   runtime transition across the plan / schedule / execute layers.  A
   remapping that runs brackets its message stream between [Remap_begin]
   and [Remap_end]; within it, each scheduled step brackets its messages
   between [Step_begin] and [Step_end]. *)
type event =
  | Remap_begin of { array : string; src : int option; dst : int }
  | Remap_end of {
      array : string;
      src : int option;
      dst : int;
      volume : int;  (* elements moved between distinct processors *)
      time : float;  (* modeled clock charged to this remap *)
    }
  | Plan_lookup of { hit : bool }  (* plan-cache probe for a remap *)
  | Step_begin of { index : int; nb_messages : int; volume : int }
  | Step_end of { index : int; time : float }
      (* [time] is the step's modeled cost: alpha + beta * slowest message *)
  | Message of { from_rank : int; to_rank : int; count : int }
  | Wall_step of { index : int; wall : float }
      (* measured wall-clock seconds of one step on a real parallel
         backend; follows the step's [Step_end] *)
  | Wall_remap of { steps : int; wall : float }
      (* measured wall-clock seconds of a whole remap (local moves plus
         every step) on a real parallel backend; precedes [Remap_end] *)
  | Dead_copy of { array : string; src : int option; dst : int }
  | Live_reuse of { array : string; dst : int }
  | Skip of { array : string; dst : int }
  | Evict of { array : string; version : int }

(* Bounded trace: a ring buffer so long runs cannot grow memory without
   bound; once full, the oldest events are overwritten and counted in
   [dropped]. *)
type trace = {
  buf : event option array;
  mutable head : int;  (* next write position *)
  mutable len : int;
  mutable dropped : int;
}

let default_trace_capacity = 65536

type t = {
  nprocs : int;
  cost : cost_model;
  sched : sched_mode;  (* how remapping messages are charged to [time] *)
  datapath : Exec.datapath;  (* how every executor moves this run's data *)
  lower : Exec.lower;  (* how this run's plans are lowered *)
  counters : counters;
  memory_limit : int option;  (* max live elements across all copies *)
  mutable memory_used : int;
  trace : trace;
  record_trace : bool;
}

let create ?(cost = default_cost) ?(sched = Burst) ?datapath ?lower
    ?memory_limit ?(record_trace = false)
    ?(trace_capacity = default_trace_capacity) ~nprocs () =
  let d = Exec.default () in
  {
    nprocs;
    cost;
    sched;
    datapath = Option.value datapath ~default:d.Exec.datapath;
    lower = Option.value lower ~default:d.Exec.lower;
    counters = fresh_counters ();
    memory_limit;
    memory_used = 0;
    trace =
      {
        buf = Array.make (max 1 trace_capacity) None;
        head = 0;
        len = 0;
        dropped = 0;
      };
    record_trace;
  }

let record t ev =
  if t.record_trace then begin
    let tr = t.trace in
    let cap = Array.length tr.buf in
    tr.buf.(tr.head) <- Some ev;
    tr.head <- (tr.head + 1) mod cap;
    if tr.len < cap then tr.len <- tr.len + 1 else tr.dropped <- tr.dropped + 1
  end

let events t =
  let tr = t.trace in
  let cap = Array.length tr.buf in
  let start = ((tr.head - tr.len) mod cap + cap) mod cap in
  List.init tr.len (fun i ->
      match tr.buf.((start + i) mod cap) with
      | Some ev -> ev
      | None -> assert false)

let dropped_events t = t.trace.dropped
let trace_capacity t = Array.length t.trace.buf

let pp_event ppf = function
  | Remap_begin { array; src; dst } ->
    Fmt.pf ppf "remap %s_%s -> %s_%d begin" array
      (match src with Some v -> string_of_int v | None -> "?")
      array dst
  | Remap_end { array; src; dst; volume; time } ->
    Fmt.pf ppf "remap %s_%s -> %s_%d end (%d moved, t=%.1f)" array
      (match src with Some v -> string_of_int v | None -> "?")
      array dst volume time
  | Plan_lookup { hit } -> Fmt.pf ppf "plan  %s" (if hit then "hit" else "miss")
  | Step_begin { index; nb_messages; volume } ->
    Fmt.pf ppf "step  #%d begin (%d msgs, %d elements)" index nb_messages
      volume
  | Step_end { index; time } -> Fmt.pf ppf "step  #%d end (t=%.1f)" index time
  | Message { from_rank; to_rank; count } ->
    Fmt.pf ppf "msg   P%d -> P%d (%d)" from_rank to_rank count
  | Wall_step { index; wall } ->
    Fmt.pf ppf "step  #%d wall %.3f ms" index (wall *. 1e3)
  | Wall_remap { steps; wall } ->
    Fmt.pf ppf "remap wall %.3f ms over %d steps" (wall *. 1e3) steps
  | Dead_copy { array; src; dst } ->
    Fmt.pf ppf "dead  %s_%s -> %s_%d" array
      (match src with Some v -> string_of_int v | None -> "?")
      array dst
  | Live_reuse { array; dst } -> Fmt.pf ppf "reuse %s_%d" array dst
  | Skip { array; dst } -> Fmt.pf ppf "skip  %s_%d" array dst
  | Evict { array; version } -> Fmt.pf ppf "evict %s_%d" array version

let pp_trace ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_event e) (events t)

(* --- JSON-lines encoding (no JSON library in the toolchain) ------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* %.12g never prints a bare trailing point, so the output stays valid
   JSON ("350" rather than OCaml's "350."). *)
let json_float f = Printf.sprintf "%.12g" f

let json_src = function
  | Some v -> string_of_int v
  | None -> "null"

let event_to_json = function
  | Remap_begin { array; src; dst } ->
    Printf.sprintf {|{"ev":"remap_begin","array":"%s","src":%s,"dst":%d}|}
      (json_escape array) (json_src src) dst
  | Remap_end { array; src; dst; volume; time } ->
    Printf.sprintf
      {|{"ev":"remap_end","array":"%s","src":%s,"dst":%d,"volume":%d,"time":%s}|}
      (json_escape array) (json_src src) dst volume (json_float time)
  | Plan_lookup { hit } ->
    Printf.sprintf {|{"ev":"plan_lookup","hit":%b}|} hit
  | Step_begin { index; nb_messages; volume } ->
    Printf.sprintf
      {|{"ev":"step_begin","index":%d,"messages":%d,"volume":%d}|} index
      nb_messages volume
  | Step_end { index; time } ->
    Printf.sprintf {|{"ev":"step_end","index":%d,"time":%s}|} index
      (json_float time)
  | Message { from_rank; to_rank; count } ->
    Printf.sprintf {|{"ev":"message","from":%d,"to":%d,"count":%d}|} from_rank
      to_rank count
  | Wall_step { index; wall } ->
    Printf.sprintf {|{"ev":"wall_step","index":%d,"wall":%s}|} index
      (json_float wall)
  | Wall_remap { steps; wall } ->
    Printf.sprintf {|{"ev":"wall_remap","steps":%d,"wall":%s}|} steps
      (json_float wall)
  | Dead_copy { array; src; dst } ->
    Printf.sprintf {|{"ev":"dead_copy","array":"%s","src":%s,"dst":%d}|}
      (json_escape array) (json_src src) dst
  | Live_reuse { array; dst } ->
    Printf.sprintf {|{"ev":"live_reuse","array":"%s","dst":%d}|}
      (json_escape array) dst
  | Skip { array; dst } ->
    Printf.sprintf {|{"ev":"skip","array":"%s","dst":%d}|} (json_escape array)
      dst
  | Evict { array; version } ->
    Printf.sprintf {|{"ev":"evict","array":"%s","version":%d}|}
      (json_escape array) version

(* One-line JSON summary of the trace dump, emitted after the retained
   events so a truncated trace is never mistaken for a complete one. *)
let trace_summary_json t =
  Printf.sprintf
    {|{"ev":"trace_summary","events":%d,"dropped":%d,"capacity":%d,"complete":%b,"pool_hits":%d,"pool_misses":%d,"zero_copy_runs":%d,"staged_bytes":%d,"peak_bytes":%d,"pool_lease_peak":%d}|}
    t.trace.len t.trace.dropped (trace_capacity t) (t.trace.dropped = 0)
    t.counters.pool_hits t.counters.pool_misses t.counters.zero_copy_runs
    t.counters.staged_bytes t.counters.peak_bytes t.counters.pool_lease_peak

(* Copy every field of [src] into [dst].  [reset] and the cross-run
   isolation tests rely on this covering the whole record: when a counter
   is added, the compiler does not force an update here, so the coverage
   test in test_runtime.ml compares a reset record against a fresh one
   structurally. *)
let copy_counters ~into:(dst : counters) (src : counters) =
  dst.messages <- src.messages;
  dst.volume <- src.volume;
  dst.local_moves <- src.local_moves;
  dst.remaps_performed <- src.remaps_performed;
  dst.remaps_skipped <- src.remaps_skipped;
  dst.live_reuses <- src.live_reuses;
  dst.dead_copies <- src.dead_copies;
  dst.allocs <- src.allocs;
  dst.frees <- src.frees;
  dst.evictions <- src.evictions;
  dst.plan_hits <- src.plan_hits;
  dst.plan_misses <- src.plan_misses;
  dst.plan_evictions <- src.plan_evictions;
  dst.steps <- src.steps;
  dst.peak_step_volume <- src.peak_step_volume;
  dst.run_blits <- src.run_blits;
  dst.zero_copy_runs <- src.zero_copy_runs;
  dst.staged_bytes <- src.staged_bytes;
  dst.pool_hits <- src.pool_hits;
  dst.pool_misses <- src.pool_misses;
  dst.peak_bytes <- src.peak_bytes;
  dst.pool_lease_peak <- src.pool_lease_peak;
  dst.fused_remaps <- src.fused_remaps;
  dst.time <- src.time;
  dst.wall_time <- src.wall_time

let reset t = copy_counters ~into:t.counters (fresh_counters ())

(* A detached copy of the live counters — the serve layer's per-tenant
   snapshots: the record is mutable and another domain may be executing
   against it, so handing out the live record would let a report skew
   mid-read. *)
let snapshot_counters t =
  let c = fresh_counters () in
  copy_counters ~into:c t.counters;
  c

let pp_counters ppf (c : counters) =
  Fmt.pf ppf
    "remaps performed=%d skipped=%d live-reuses=%d dead=%d | messages=%d \
     volume=%d local=%d | allocs=%d frees=%d evictions=%d | plans hit=%d \
     miss=%d evict=%d | steps=%d peak-step-vol=%d peak-bytes=%d | blits=%d \
     zero-copy=%d staged-bytes=%d pool hit=%d miss=%d | time=%.1f"
    c.remaps_performed c.remaps_skipped c.live_reuses c.dead_copies c.messages
    c.volume c.local_moves c.allocs c.frees c.evictions c.plan_hits
    c.plan_misses c.plan_evictions c.steps c.peak_step_volume c.peak_bytes
    c.run_blits c.zero_copy_runs c.staged_bytes c.pool_hits c.pool_misses
    c.time;
  if c.pool_lease_peak > 0 then
    Fmt.pf ppf " | pool-lease-peak=%d" c.pool_lease_peak;
  if c.fused_remaps > 0 then Fmt.pf ppf " | fused=%d" c.fused_remaps;
  if c.wall_time > 0.0 then Fmt.pf ppf " | wall=%.3fms" (c.wall_time *. 1e3)
