(* The counters the benchmark reads at phase boundaries: machine
   counters summed over the workload's machines, and plan-cache
   hit/miss/eviction totals summed over its caches.  Read only when no
   op is in flight, so a counter written by a worker domain is seen
   after the synchronization that completed its op. *)

open Hpfc_runtime

type t = {
  messages : int;
  volume : int;
  local_moves : int;
  run_blits : int;
  zero_copy_runs : int;
  staged_bytes : int;
  steps : int;
  pool_hits : int;
  pool_misses : int;
  remaps_performed : int;
  cache_hits : int;
  cache_misses : int;
  cache_evictions : int;
}

let zero =
  {
    messages = 0;
    volume = 0;
    local_moves = 0;
    run_blits = 0;
    zero_copy_runs = 0;
    staged_bytes = 0;
    steps = 0;
    pool_hits = 0;
    pool_misses = 0;
    remaps_performed = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_evictions = 0;
  }

let map2 f a b =
  {
    messages = f a.messages b.messages;
    volume = f a.volume b.volume;
    local_moves = f a.local_moves b.local_moves;
    run_blits = f a.run_blits b.run_blits;
    zero_copy_runs = f a.zero_copy_runs b.zero_copy_runs;
    staged_bytes = f a.staged_bytes b.staged_bytes;
    steps = f a.steps b.steps;
    pool_hits = f a.pool_hits b.pool_hits;
    pool_misses = f a.pool_misses b.pool_misses;
    remaps_performed = f a.remaps_performed b.remaps_performed;
    cache_hits = f a.cache_hits b.cache_hits;
    cache_misses = f a.cache_misses b.cache_misses;
    cache_evictions = f a.cache_evictions b.cache_evictions;
  }

let add = map2 ( + )
let sub = map2 ( - )

let read ~machines ~caches =
  let of_machine (m : Machine.t) =
    let c = Machine.snapshot_counters m in
    {
      zero with
      messages = c.Machine.messages;
      volume = c.Machine.volume;
      local_moves = c.Machine.local_moves;
      run_blits = c.Machine.run_blits;
      zero_copy_runs = c.Machine.zero_copy_runs;
      staged_bytes = c.Machine.staged_bytes;
      steps = c.Machine.steps;
      pool_hits = c.Machine.pool_hits;
      pool_misses = c.Machine.pool_misses;
      remaps_performed = c.Machine.remaps_performed;
    }
  in
  let of_cache c =
    {
      zero with
      cache_hits = Redist.Plan_cache.hits c;
      cache_misses = Redist.Plan_cache.misses c;
      cache_evictions = Redist.Plan_cache.evictions c;
    }
  in
  List.fold_left add zero
    (List.map of_machine machines @ List.map of_cache caches)

(* [measure ~machines ~caches f] runs [f ()] and also returns the
   counters it moved. *)
let measure ~machines ~caches f =
  let c0 = read ~machines ~caches in
  let r = f () in
  (r, sub (read ~machines ~caches) c0)

(* Highest staging high-water over the machines. *)
let peak_bytes machines =
  List.fold_left
    (fun acc (m : Machine.t) -> max acc m.Machine.counters.Machine.peak_bytes)
    0 machines

(* Per-op datapath and plan-cache metrics of a traced phase; [exec_s] is
   the time the moved bytes are divided by. *)
let metrics ~ops ~exec_s d =
  let per n = Bstat.ratio (float_of_int n) (float_of_int ops) in
  let ratio a b = Bstat.ratio (float_of_int a) (float_of_int (a + b)) in
  let open Outcome in
  [
    m "comm.messages" "count/op" (per d.messages);
    m "comm.remote_elems" "count/op" (per d.volume);
    m "comm.local_elems" "count/op" (per d.local_moves);
    m "comm.run_blits" "count/op" (per d.run_blits);
    m "comm.zero_copy_runs" "count/op" (per d.zero_copy_runs);
    m "comm.staged_bytes" "B/op" (per d.staged_bytes);
    m "comm.steps" "count/op" (per d.steps);
    m "comm.pool_hit_ratio" "ratio" (ratio d.pool_hits d.pool_misses);
    m "comm.bytes_per_s" "B/s"
      (Bstat.ratio (8.0 *. float_of_int (d.volume + d.local_moves)) exec_s);
    m "redist.plan_cache.hit_ratio" "ratio" (ratio d.cache_hits d.cache_misses);
    m "redist.plan_cache.evictions" "count/op" (per d.cache_evictions);
  ]
