(* The run skeleton every workload shares: repeated set-up timing, the
   split of a traced run into an untraced and a traced phase, and the
   assembly of the outcome (coverage law, overhead, correctness). *)

(* Set-up times of one run: on the CPU clock scaled by the calibration
   kernel timed on the same clock just before and just after the build
   ([setup_s] is their median), and, for the info line, unscaled on the
   CPU and the wall clock. *)
type setup = { scaled : float array; cpu : float array; wall : float array }

(* One timed build of the workload's state, from a compacted heap so
   each starts from the same settled heap. *)
let timed_build build =
  Gc.compact ();
  let k0 = Calib.time Bstat.cpu in
  let c0 = Bstat.cpu () and t0 = Bstat.now () in
  let st = build () in
  let c = Bstat.cpu () -. c0 and t = Bstat.now () -. t0 in
  let k1 = Calib.time Bstat.cpu in
  ((c *. Calib.scale k0 k1, c, t), st)

(* An untraced run builds its state [setup_reps] times: the first half
   before the measured phase, keeping the last state built, and the
   second half after it, once that state is torn down.  The machine's
   speed drifts over tens of seconds, and the median then covers both
   ends of the run instead of a few seconds at its start.  A traced run
   builds once. *)
let reps_before (mode : Outcome.mode) =
  match mode with
  | Untraced { setup_reps } -> max 1 ((setup_reps + 1) / 2)
  | Traced -> 1

let reps_after (mode : Outcome.mode) =
  match mode with
  | Untraced { setup_reps } -> max 0 (setup_reps - reps_before mode)
  | Traced -> 0

let setup_of ts =
  {
    scaled = Array.map (fun (s, _, _) -> s) ts;
    cpu = Array.map (fun (_, c, _) -> c) ts;
    wall = Array.map (fun (_, _, w) -> w) ts;
  }

(* The builds before the measured phase: their times and the state. *)
let repeat mode ~build ~teardown =
  let rec go i acc =
    let t, st = timed_build build in
    if i >= reps_before mode then
      (setup_of (Array.of_list (List.rev (t :: acc))), st)
    else begin
      teardown st;
      go (i + 1) (t :: acc)
    end
  in
  go 1 []

(* The builds after the measured phase, added to [s]. *)
let repeat_after mode (s : setup) ~build ~teardown =
  let ts =
    Array.init (reps_after mode) (fun _ ->
        let t, st = timed_build build in
        teardown st;
        t)
  in
  let before =
    Array.init (Array.length s.cpu) (fun i ->
        (s.scaled.(i), s.cpu.(i), s.wall.(i)))
  in
  setup_of (Array.append before ts)

let setup_s (s : setup) = Bstat.median s.scaled

(* Counts that must repeat exactly for a seed (counter deltas, emitted
   remappings) are per-op means over the first [count_ops] ops of a
   phase, whose op sequence the seed fixes; time-bounded phases run a
   varying number of ops after that. *)
let count_ops = 1000

(* A traced run spends half its time untraced (the reference for the
   coverage law and the overhead ratio) and half traced, alternating
   [chunks] chunks of each in ABBA order: the shared machine drifts
   between faster and slower regimes over seconds, and both halves must
   see the same ones.  The first chunk is traced and runs at least
   [count_ops] ops ([min_ops]), so the ops the deterministic counts are
   taken over start from the state set-up and warm-up leave, which the
   seed alone determines.
   Returns the untraced and the traced chunks' results, and the GC work
   of the untraced chunks. *)
let chunks = 10

let alternate ~seconds ~untraced ~traced =
  let s = seconds /. float_of_int (2 * chunks) in
  let us = ref [] and ts = ref [] and gc = ref Outcome.gc_zero in
  for i = 0 to chunks - 1 do
    let u () =
      let g = Outcome.gc_mark () in
      us := untraced ~chunk:i s :: !us;
      gc := Outcome.gc_since ~acc:!gc g
    and t () =
      ts := traced ~chunk:i ~min_ops:(if i = 0 then count_ops else 0) s :: !ts
    in
    if i mod 2 = 0 then begin
      t ();
      u ()
    end
    else begin
      u ();
      t ()
    end
  done;
  (List.rev !us, List.rev !ts, !gc)

(* One measured phase: [busy] is the time the throughput is computed
   over, [mean_op] the mean op time the coverage law compares with. *)
type phase = { ops : int; failed : int; busy : float; mean_op : float }

let phase ~ops ~failed ~busy ~mean_op = { ops; failed; busy; mean_op }

(* [traced] is the traced phase with the summed self time of its layer
   spans (every span but the op root).  The set-up times come last, so
   a workload can finish its measurement, tear its state down and then
   take the remaining set-up samples.  An untraced run's metrics get
   [setup_s] in front. *)
let finish ~(untraced : phase) ~traced ~final_ok ~info metrics
    (setup_times : setup) =
  let open Outcome in
  let samples xs =
    "[" ^ String.concat "," (Array.to_list (Array.map Bstat.json_num xs)) ^ "]"
  in
  let setup_info =
    [
      ("setup_samples_s", samples setup_times.scaled);
      ("setup_cpu_samples_s", samples setup_times.cpu);
      ("setup_wall_samples_s", samples setup_times.wall);
      ("ops_untraced", string_of_int untraced.ops);
      ("final_check", string_of_bool final_ok);
    ]
  in
  match traced with
  | None ->
    {
      attempted = untraced.ops;
      failed = untraced.failed;
      correct = untraced.failed = 0 && final_ok;
      metrics = m "setup_s" "s" (setup_s setup_times) :: metrics;
      info = setup_info @ info;
    }
  | Some ((tr : phase), layer_s) ->
    let coverage =
      Bstat.ratio (Bstat.ratio layer_s (float_of_int tr.ops)) untraced.mean_op
    in
    let attempted = untraced.ops + tr.ops
    and failed = untraced.failed + tr.failed in
    let law = coverage_holds coverage in
    {
      attempted;
      failed;
      correct = failed = 0 && final_ok && law;
      metrics =
        layer_metrics
          (metrics
          @ [
              m "trace.overhead_ratio" "ratio"
                (Bstat.ratio
                   (Bstat.ratio (float_of_int untraced.ops) untraced.busy)
                   (Bstat.ratio (float_of_int tr.ops) tr.busy));
              m "trace.coverage_ratio" "ratio" coverage;
              m "failed_ops_ratio" "ratio"
                (Bstat.ratio (float_of_int failed) (float_of_int attempted));
            ]);
      info =
        setup_info
        @ [
            ("ops_traced", string_of_int tr.ops);
            ("coverage_tolerance", Bstat.json_num coverage_tolerance);
            ("coverage_law", string_of_bool law);
          ]
        @ info;
    }
