(* What one workload run reports: op counts, the correctness verdict,
   the metrics by name and unit, and run facts for the info line. *)

type metric = { name : string; value : float; unit : string }

type t = {
  attempted : int;
  failed : int;  (* ops that raised or whose output check failed *)
  correct : bool;
      (* no failed op, every final copy checked, and (traced run) the
         coverage law held *)
  metrics : metric list;
  info : (string * string) list;  (* key, JSON-encoded value *)
}

let m name unit value = { name; value; unit }

(* The run mode: an untraced run reports the end-to-end metrics with a
   set-up time taken as the median of [setup_reps] set-ups; a traced run
   splits its time between an untraced phase and a traced phase and
   reports the per-layer metrics. *)
type mode = Untraced of { setup_reps : int } | Traced

(* How far the traced layer self times may stray from the untraced mean
   op time, as a share of the latter (the coverage law). *)
let coverage_tolerance = 0.25

let coverage_holds ratio = Float.abs (ratio -. 1.0) <= coverage_tolerance

(* GC counters of the calling domain's view of the runtime. *)
type gc = { minor_words : float; major_collections : int }

let gc_zero = { minor_words = 0.0; major_collections = 0 }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* [gc_since a] is the GC work done since mark [a], added to [acc]. *)
let gc_since ?(acc = gc_zero) a =
  let b = gc_mark () in
  {
    minor_words = acc.minor_words +. (b.minor_words -. a.minor_words);
    major_collections =
      acc.major_collections + (b.major_collections - a.major_collections);
  }

let gc_metrics ~ops g =
  [
    m "gc.minor_words_per_op" "words/op"
      (Bstat.ratio g.minor_words (float_of_int ops));
    m "gc.major_collections" "count" (float_of_int g.major_collections);
  ]

(* Per-layer names every workload prints (0 where a layer is not on the
   workload's path), so one traced run of any workload lists them all. *)
let layer_names =
  [
    ("parser.self_s", "s");
    ("opt.hoist.self_s", "s");
    ("remap.gr_build.self_s", "s");
    ("opt.remove_useless.self_s", "s");
    ("codegen.self_s", "s");
    ("remap.gr_vertices", "count/op");
    ("remap.gr_edges", "count/op");
    ("opt.hoist.hoisted", "count/op");
    ("opt.remove_useless.removed", "count/op");
    ("codegen.remaps_emitted", "count/op");
    ("store.plan_self_s_miss", "s");
    ("store.plan_self_s_hit", "s");
    ("redist.plan_cache.hit_ratio", "ratio");
    ("redist.plan_cache.evictions", "count/op");
    ("par.execute_self_s", "s");
    ("comm.messages", "count/op");
    ("comm.remote_elems", "count/op");
    ("comm.local_elems", "count/op");
    ("comm.run_blits", "count/op");
    ("comm.zero_copy_runs", "count/op");
    ("comm.staged_bytes", "B/op");
    ("comm.steps", "count/op");
    ("comm.pool_hit_ratio", "ratio");
    ("comm.bytes_per_s", "B/s");
    ("serve.submit_block_s", "s");
    ("serve.service_latency_p50_ms", "ms");
    ("serve.batch_size_mean", "count");
    ("serve.fused_ratio", "ratio");
    ("redist.plan_cache.shared_hit_ratio", "ratio");
    ("gc.minor_words_per_op", "words/op");
    ("gc.major_collections", "count");
    ("trace.overhead_ratio", "ratio");
    ("trace.coverage_ratio", "ratio");
    ("failed_ops_ratio", "ratio");
  ]

(* Complete a workload's per-layer metrics with zeros for the layers it
   does not exercise, in [layer_names] order. *)
let layer_metrics given =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun x -> x.name = name) given with
      | Some x -> x
      | None -> m name unit 0.0)
    layer_names

(* The closed-loop timing metrics: ops are cut into windows of [window]
   consecutive ops (so a window's 99th percentile has ten samples beyond
   it), and throughput, p50 and p99 are interquartile means of the
   windows' values, so a stretch slowed by something else on the
   machine moves the result less.  [lat.(i)] is op i's latency;
   [cost.(i)] is its share of the phase's time: its latency for a single
   client, the time since the previous completion for concurrent
   clients.  [calib.(k)] is the calibration kernel's time just before
   window k (and [calib.(k + 1)] just after it); each window's times are
   scaled by {!Calib.scale} of the two.  Returns the scaled metrics and,
   for the info line, the same summary unscaled. *)
let window = 1000

let latency_metrics ~lat ~cost ~calib =
  let n = Array.length lat in
  let nw = max 1 (n / window) in
  let w = if n < window then n else window in
  let nc = Array.length calib in
  let scale k =
    if nc = 0 then 1.0
    else Calib.scale calib.(min k (nc - 1)) calib.(min (k + 1) (nc - 1))
  in
  let summary scale =
    let per_window f = Array.init nw (fun k -> f k (k * w) w) in
    let rate k i len =
      let s = ref 0.0 in
      for j = i to i + len - 1 do
        s := !s +. cost.(j)
      done;
      Bstat.ratio (float_of_int len) (!s *. scale k)
    in
    let q p =
      1e3
      *. Bstat.iq_mean
           (per_window (fun k i len -> scale k *. p (Array.sub lat i len)))
    in
    ( Bstat.iq_mean (per_window rate),
      q Bstat.median,
      q (fun xs -> Bstat.quantile xs 0.99) )
  in
  let tput, p50, p99 = summary scale in
  let raw_tput, raw_p50, raw_p99 = summary (fun _ -> 1.0) in
  ( [
      m "throughput_ops_per_s" "1/s" tput;
      m "latency_p50_ms" "ms" p50;
      m "latency_p99_ms" "ms" p99;
    ],
    [
      ("raw_throughput_ops_per_s", Bstat.json_num raw_tput);
      ("raw_latency_p50_ms", Bstat.json_num raw_p50);
      ("raw_latency_p99_ms", Bstat.json_num raw_p99);
      ("calib_median_s", Bstat.json_num (Bstat.median calib));
    ] )
