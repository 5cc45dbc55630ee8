(* The [remap] workload: one tenant issues [Store.copy_version] calls
   through the domain-parallel executor ([Par.executor], a pool of
   nproc - 1 worker domains; the main domain coordinates and waits).

   Most ops bounce among the hot layout pairs of the paper's kernels
   (ADI and FFT corner turns, the solver's cyclic <-> block phase
   change, the tensor's axis rotation), whose plans stay cached; a
   seeded cold tail remaps 1-D arrays between cyclic(k1) and cyclic(k2)
   drawn from a pool of pairs far larger than the plan cache, so those
   ops build a plan and evict one at a steady rate.  Execution (pack,
   deliver, unpack) sets the median, plan construction the tail. *)

open Hpfc_runtime
open Hpfc_mapping
module Par = Hpfc_par.Par

type array_spec = {
  name : string;
  extents : int array;
  p : int;
  dists : Dist.format array list;  (* versions, visited cyclically *)
}

type scale = {
  hot : array_spec list;
  cold_extent : int;
  cold_ks : int;  (* cold versions: cyclic(1) .. cyclic(cold_ks) *)
  cold_ps : int list;  (* one cold array per processor count *)
  cold_share : float;  (* fraction of ops drawn from the cold tail *)
  samples : int;  (* poisoned destination positions per op *)
}

let b = Dist.block
let s = Dist.star
let c = Dist.cyclic

let full =
  {
    hot =
      [
        { name = "adi"; extents = [| 512; 512 |]; p = 4;
          dists = [ [| b; s |]; [| s; b |] ] };
        { name = "fft"; extents = [| 512; 256 |]; p = 8;
          dists = [ [| b; s |]; [| s; b |] ] };
        { name = "solver"; extents = [| 512; 256 |]; p = 4;
          dists = [ [| c; s |]; [| b; s |] ] };
        { name = "tensor"; extents = [| 64; 64; 64 |]; p = 8;
          dists = [ [| b; s; s |]; [| s; b; s |]; [| s; s; b |] ] };
      ];
    cold_extent = 4096;
    cold_ks = 48;
    cold_ps = [ 8; 16 ];
    cold_share = 0.1;
    samples = 8;
  }

(* A few-millisecond version for the self-test. *)
let small =
  {
    full with
    hot =
      List.map
        (fun a -> { a with extents = Array.map (fun e -> min e 16) a.extents })
        full.hot;
    cold_extent = 128;
    cold_ks = 6;
  }

type arr = Probe.arr = { d : Store.descriptor; written : bool array }

let nv a = Array.length a.written

type state = {
  store : Store.t;
  hot_arrays : arr array;
  cold_arrays : arr array;
  exec : Comm.executor ref;  (* what the store's executor forwards to *)
  pool : Par.t;
}

let layout extents p dist =
  Layout.of_mapping ~extents
    (Mapping.direct ~array_name:"a" ~extents ~dist ~procs:(Procs.linear "P" p))

(* The system state: stores allocated and filled first, on the main
   domain alone (allocation-heavy work never runs with idle worker
   domains alive), then the worker pool, then the hot plans cached. *)
let build sc ~workers =
  let nprocs =
    List.fold_left max 1 (sc.cold_ps @ List.map (fun a -> a.p) sc.hot)
  in
  let machine = Machine.create ~nprocs ~sched:Machine.Stepped () in
  let exec = ref Comm.execute in
  let store =
    Store.create ~backend:Store.Distributed
      ~executor:(fun m ~src ~dst plan -> !exec m ~src ~dst plan)
      machine
  in
  let hot_arrays =
    Array.of_list
      (List.map
         (fun a ->
           Probe.add_array store ~name:a.name ~extents:a.extents
             (List.map (layout a.extents a.p) a.dists))
         sc.hot)
  in
  let cold_arrays =
    Array.of_list
      (List.map
         (fun p ->
           let extents = [| sc.cold_extent |] in
           Probe.add_array store ~name:(Printf.sprintf "cold_p%d" p) ~extents
             (List.init sc.cold_ks (fun k ->
                  layout extents p [| Dist.cyclic_sized (k + 1) |])))
         sc.cold_ps)
  in
  let pool = Par.create ~ndomains:workers () in
  exec := Par.executor pool;
  Array.iter
    (fun a ->
      for v = 0 to nv a - 1 do
        ignore
          (Store.plan_for store a.d ~src:v ~dst:((v + 1) mod nv a)
            : Redist.plan)
      done)
    hot_arrays;
  { store; hot_arrays; cold_arrays; exec; pool }

let teardown st = Par.destroy st.pool
let cur a = Option.get a.d.Store.status

(* The next op of the seeded stream: (array, destination version). *)
let next_op sc st rng =
  let nc = Array.length st.cold_arrays in
  if nc > 0 && Random.State.float rng 1.0 < sc.cold_share then begin
    let a = st.cold_arrays.(Random.State.int rng nc) in
    let x = Random.State.int rng (nv a - 1) in
    (a, if x >= cur a then x + 1 else x)
  end
  else
    let a = st.hot_arrays.(Random.State.int rng (Array.length st.hot_arrays)) in
    (a, (cur a + 1) mod nv a)

(* Per-layer accumulators of the traced phase. *)
type layers = {
  spans : Spans.t;
  mutable parent : int;
  mutable op : int;
  mutable exec_s : float;  (* execute span of the current op *)
  mutable self_miss : float;
  mutable n_miss : int;
  mutable self_hit : float;
  mutable n_hit : int;
  mutable counted : int;  (* traced ops whose counters were taken *)
  mutable counts : Ctr.t;
  mutable counted_exec : float;
}

let new_layers () =
  {
    spans = Spans.create ();
    parent = -1;
    op = 0;
    exec_s = 0.0;
    self_miss = 0.0;
    n_miss = 0;
    self_hit = 0.0;
    n_hit = 0;
    counted = 0;
    counts = Ctr.zero;
    counted_exec = 0.0;
  }

type phase = {
  lat : float array;
  ops : int;
  failed : int;
  busy : float;
  calib : float array;  (* calibration before each window, and at the end *)
  rss : float;  (* peak resident set after [Bstat.rss_ops] ops *)
}

(* One closed-loop phase of [seconds]: poison, time the op, check.
   [fault op] skips that op's copy on purpose (the self-test). *)
let run_phase ?(min_ops = 0) sc st ~seed ~phase ~seconds ~fault
    ~(layers : layers option) =
  let rng = Random.State.make [| seed; 1; phase |] in
  let prng = Random.State.make [| seed; 2; phase |] in
  let counters = st.store.Store.machine.Machine.counters in
  let read () =
    Ctr.read
      ~machines:[ st.store.Store.machine ]
      ~caches:[ st.store.Store.plans ]
  in
  let inner = !(st.exec) in
  (match layers with
  | None -> ()
  | Some ly ->
    st.exec :=
      fun m ~src ~dst plan ->
        let id =
          Spans.start ly.spans ~name:"par.execute" ~parent:ly.parent ~op:ly.op
        in
        Fun.protect
          ~finally:(fun () ->
            Spans.stop ly.spans id;
            ly.exec_s <- ly.exec_s +. Spans.duration ly.spans id)
          (fun () -> inner m ~src ~dst plan));
  let lat = Bstat.Vec.create () and calib = Bstat.Vec.create () in
  let rss = ref 0.0 in
  let failed = ref 0 in
  let t_end = Bstat.now () +. seconds in
  while Bstat.now () < t_end || Bstat.Vec.length lat < min_ops do
    let op = Bstat.Vec.length lat in
    if op mod Outcome.window = 0 then
      Bstat.Vec.push calib (Calib.time Bstat.now);
    let a, dst = next_op sc st rng in
    let src = cur a in
    let positions =
      Probe.poison prng (Store.get_copy a.d dst) ~samples:sc.samples
    in
    let copy () =
      if not (fault op) then
        Store.copy_version st.store a.d ~src ~dst ~with_data:true
    in
    let misses0 = counters.Machine.plan_misses in
    let count =
      match layers with Some ly -> ly.counted < Runner.count_ops | None -> false
    in
    let c0 = if count then read () else Ctr.zero in
    let t0 = Bstat.now () in
    let raised =
      match layers with
      | None -> ( try copy (); false with _ -> true)
      | Some ly -> (
        ly.op <- op;
        ly.exec_s <- 0.0;
        let root = Spans.start ly.spans ~name:"op" ~parent:(-1) ~op in
        let cv =
          Spans.start ly.spans ~name:"store.copy_version" ~parent:root ~op
        in
        ly.parent <- cv;
        let r = try copy (); false with _ -> true in
        Spans.stop ly.spans cv;
        Spans.stop ly.spans root;
        let self = Spans.duration ly.spans cv -. ly.exec_s in
        if counters.Machine.plan_misses > misses0 then begin
          ly.self_miss <- ly.self_miss +. self;
          ly.n_miss <- ly.n_miss + 1
        end
        else begin
          ly.self_hit <- ly.self_hit +. self;
          ly.n_hit <- ly.n_hit + 1
        end;
        r)
    in
    let t1 = Bstat.now () in
    Option.iter
      (fun ly ->
        if count then begin
          ly.counts <- Ctr.add ly.counts (Ctr.sub (read ()) c0);
          ly.counted_exec <- ly.counted_exec +. ly.exec_s;
          ly.counted <- ly.counted + 1
        end)
      layers;
    Probe.remapped a dst;
    if raised || not (Probe.verify (Store.get_copy a.d dst) positions) then
      incr failed;
    Bstat.Vec.push lat (t1 -. t0);
    Bstat.rss_at rss (Bstat.Vec.length lat)
  done;
  st.exec := inner;
  Bstat.Vec.push calib (Calib.time Bstat.now);
  {
    lat = Bstat.Vec.to_array lat;
    ops = Bstat.Vec.length lat;
    failed = !failed;
    busy = Bstat.Vec.sum lat;
    calib = Bstat.Vec.to_array calib;
    rss = Bstat.rss_final rss;
  }

let final_check st =
  Array.for_all Probe.verify_all (Array.append st.hot_arrays st.cold_arrays)

(* Untimed warm-up to the steady state: one full cycle of every hot
   array (run memos and staging pools warm), then cold-tail ops until the
   plan cache stops growing (no growth over 64 cold ops), so measured
   cold ops miss and evict at a steady rate and resident memory no
   longer grows with run length.  The cache's shards fill unevenly, so
   "full" is observed rather than assumed to be the capacity. *)
let warm_up sc st ~seed =
  let step a dst =
    Store.copy_version st.store a.d ~src:(cur a) ~dst ~with_data:true;
    Probe.remapped a dst
  in
  Array.iter
    (fun a ->
      for _ = 1 to nv a do
        step a ((cur a + 1) mod nv a)
      done)
    st.hot_arrays;
  let plans = st.store.Store.plans in
  let rng = Random.State.make [| seed; 3 |] in
  let cold = { sc with cold_share = 1.0 } in
  let budget = ref (4 * Redist.Plan_cache.capacity plans) in
  let size = ref (-1) and flat = ref 0 in
  while Array.length st.cold_arrays > 0 && !flat < 64 && !budget > 0 do
    let a, dst = next_op cold st rng in
    step a dst;
    decr budget;
    let n = Redist.Plan_cache.size plans in
    if n > !size then begin
      size := n;
      flat := 0
    end
    else incr flat
  done

let merge (ps : phase list) =
  {
    lat = Array.concat (List.map (fun (p : phase) -> p.lat) ps);
    ops = List.fold_left (fun acc (p : phase) -> acc + p.ops) 0 ps;
    failed = List.fold_left (fun acc (p : phase) -> acc + p.failed) 0 ps;
    busy = List.fold_left (fun acc (p : phase) -> acc +. p.busy) 0.0 ps;
    calib = [||];
    rss = 0.0;
  }

let run ?(sc = full) ?(fault = fun _ -> false) ?trace_out ~workers ~seed
    ~seconds mode =
  let build () = build sc ~workers in
  let setup_times, st = Runner.repeat mode ~build ~teardown in
  let finish =
    Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
    warm_up sc st ~seed;
    Gc.compact ();
    let machines = [ st.store.Store.machine ]
    and caches = [ st.store.Store.plans ] in
    let phase ?min_ops ~phase ~seconds layers =
      run_phase ?min_ops sc st ~seed ~phase ~seconds ~fault ~layers
    in
    let open Outcome in
    let ph, traced, metrics, timing_info =
      match mode with
      | Untraced _ ->
        let ph, d =
          Ctr.measure ~machines ~caches (fun () -> phase ~phase:0 ~seconds None)
        in
        let timing, timing_info =
          latency_metrics ~lat:ph.lat ~cost:ph.lat ~calib:ph.calib
        in
        ( ph,
          None,
          timing
          @ [
              m "peak_rss_mb" "MB" ph.rss;
              m "peak_staging_bytes" "B"
                (float_of_int (Ctr.peak_bytes machines));
              m "remaps_emitted_per_op" "count/op"
                (Bstat.ratio
                   (float_of_int d.Ctr.remaps_performed)
                   (float_of_int ph.ops));
            ],
          timing_info )
      | Traced ->
        let ly = new_layers () in
        let us, ts, gc =
          Runner.alternate ~seconds
            ~untraced:(fun ~chunk s -> phase ~phase:(2 * chunk) ~seconds:s None)
            ~traced:(fun ~chunk ~min_ops s ->
              phase ~min_ops ~phase:((2 * chunk) + 1) ~seconds:s (Some ly))
        in
        let ph = merge us and tr = merge ts in
        Option.iter (Spans.write ly.spans) trace_out;
        let selfs = Spans.self_by_name ly.spans in
        let per_op x = Bstat.ratio x (float_of_int tr.ops) in
        (* The layers below the store: execution, and plan construction
           (the extra store self time of the ops that missed the plan
           cache).  The store's own bookkeeping on every op is left out,
           so the law fails if it grows past the tolerance. *)
        let miss = Bstat.ratio ly.self_miss (float_of_int ly.n_miss)
        and hit = Bstat.ratio ly.self_hit (float_of_int ly.n_hit) in
        let planning = float_of_int ly.n_miss *. Float.max 0.0 (miss -. hit) in
        ( ph,
          Some (tr, Spans.self_of selfs "par.execute" +. planning),
          [
            m "store.plan_self_s_miss" "s" miss;
            m "store.plan_self_s_hit" "s" hit;
            m "par.execute_self_s" "s"
              (per_op (Spans.self_of selfs "par.execute"));
          ]
          @ Ctr.metrics ~ops:ly.counted ~exec_s:ly.counted_exec ly.counts
          @ gc_metrics ~ops:ph.ops gc,
          [] )
    in
    let summary (p : phase) =
      Runner.phase ~ops:p.ops ~failed:p.failed ~busy:p.busy
        ~mean_op:(Bstat.ratio p.busy (float_of_int p.ops))
    in
    Runner.finish ~untraced:(summary ph)
      ~traced:(Option.map (fun (tr, layer_s) -> (summary tr, layer_s)) traced)
      ~final_ok:(final_check st) ~info:timing_info metrics
  in
  finish (Runner.repeat_after mode setup_times ~build ~teardown)
