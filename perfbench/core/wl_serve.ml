(* The [serve] workload: 4 tenants, each a store of one 1-D array with
   four preallocated layouts (block, cyclic, cyclic(8), cyclic(32)),
   walking the heavy-tail mix of the service bench (80% of requests
   bounce on the hot block <-> cyclic pair).  One client domain keeps one
   outstanding [Serve.submit_remap] / [Serve.await] per tenant, the way a
   program waits on its remap, against the service in its default
   configuration (one worker per spare core, fusion on, default window
   and cache capacity).  Every plan is cached during set-up, so the
   tenant caches and their shared parent only hit: what is measured is
   admission, queueing, fusion and the shared communication datapath
   run from a worker domain. *)

open Hpfc_runtime
open Hpfc_mapping
module Serve = Hpfc_serve.Serve
module Request = Hpfc_serve.Request

type scale = { tenants : int; n : int; p : int; samples : int }

(* 8192 elements, not the 5 * 10^4 of the service bench: the 16 copies
   then fit in a core's L2 cache, and the op's cost is the service's own
   work (admission, queueing, fusion, the datapath on a worker domain)
   rather than memory traffic.  At 5 * 10^4 the runs' throughput swung
   by 1.6 times with the load of the shared host, 2.5 times more than at
   8192 in runs interleaved with them. *)
let full = { tenants = 4; n = 8192; p = 4; samples = 8 }

let dists =
  [| Dist.block; Dist.cyclic; Dist.cyclic_sized 8; Dist.cyclic_sized 32 |]

type tenant = {
  store : Store.t;
  a : Probe.arr;
  rng : Random.State.t;  (* the tenant's walk *)
}

type state = { svc : Serve.t; tenants : tenant array }

let layouts sc =
  Array.map
    (fun dist ->
      Layout.of_mapping ~extents:[| sc.n |]
        (Mapping.direct ~array_name:"a" ~extents:[| sc.n |] ~dist:[| dist |]
           ~procs:(Procs.linear "P" sc.p)))
    dists

(* Stores first (allocation-heavy, main domain alone), then the service
   and its worker domain, then every layout pair's plan through each
   tenant cache (the shared parent builds each plan once). *)
let build sc ~seed =
  let ls = layouts sc in
  let tenants =
    Array.init sc.tenants (fun i ->
        let m = Machine.create ~nprocs:sc.p ~sched:Machine.Stepped () in
        let store = Store.create ~backend:Store.Distributed m in
        let a =
          Probe.add_array store ~name:"a" ~extents:[| sc.n |] (Array.to_list ls)
        in
        { store; a; rng = Random.State.make [| seed; 3; i |] })
  in
  let svc = Serve.create ~tenants:sc.tenants () in
  Array.iteri
    (fun i _ ->
      let cache = Serve.tenant_cache svc i in
      Array.iteri
        (fun a src ->
          Array.iteri
            (fun b dst ->
              if a <> b then
                ignore
                  (Redist.Plan_cache.find cache ~src ~dst (fun () ->
                       Redist.plan_intervals ~src ~dst)
                    : Redist.plan))
            ls)
        ls)
    tenants;
  { svc; tenants }

let teardown st = ignore (Serve.shutdown st.svc : Serve.stats)
let cur t = Option.get t.a.Probe.d.Store.status

(* The heavy-tail walk: 8 in 10 requests toggle block <-> cyclic, the
   rest sweep the block-cyclic variants. *)
let next_dst t =
  let c = cur t in
  if Random.State.int t.rng 10 < 8 then if c = 0 then 1 else 0
  else match c with 0 | 1 -> 2 | 2 -> 3 | _ -> 0

type inflight = {
  req : Request.t;
  dst : int;
  positions : int array;
  t_submit : float;  (* client: before submit *)
  t_admitted : float;  (* client: submit returned *)
}

type phase = {
  lat : float array;  (* client-observed submit-to-await latency *)
  gaps : float array;  (* time since the previous completion *)
  ops : int;
  failed : int;
  wall : float;
  submit_s : float;  (* summed submit (admission-window) time *)
  calib : float array;  (* calibration before each window, and at the end *)
  rss : float;  (* peak resident set after [Bstat.rss_ops] ops *)
}

(* What a traced phase records: the spans, and the counter deltas of
   its first [Runner.count_ops] ops, each read from its own tenant's
   machine and cache between its completion and the tenant's next
   submission (no other request touches them). *)
type tracer = {
  spans : Spans.t;
  mutable counted : int;
  mutable counts : Ctr.t;
  mutable counted_service : float;
}

(* One closed-loop phase: one outstanding request per tenant, awaited
   round robin; each completion is checked, then the tenant's next
   request is poisoned and submitted until [seconds] have passed.  Every
   [Outcome.window] completions the client stops submitting, lets the
   requests in flight finish, times the calibration kernel with the
   service idle, and starts every tenant again. *)
let run_phase ?(min_ops = 0) sc st ~seed ~phase ~seconds
    ~(tracer : tracer option) =
  let prng = Random.State.make [| seed; 4; phase |] in
  let read i =
    let t = st.tenants.(i) in
    Ctr.read ~machines:[ t.store.Store.machine ]
      ~caches:[ Serve.tenant_cache st.svc i ]
  in
  let base = Array.init (Array.length st.tenants) read in
  let lat = Bstat.Vec.create () and gaps = Bstat.Vec.create () in
  let failed = ref 0 and submit_s = ref 0.0 in
  let submit i =
    let t = st.tenants.(i) in
    let dst = next_dst t in
    let positions =
      Probe.poison prng (Store.get_copy t.a.Probe.d dst) ~samples:sc.samples
    in
    let t_submit = Bstat.now () in
    let req =
      Serve.submit_remap st.svc ~tenant:i ~store:t.store ~array:"a"
        ~src:(cur t) ~dst
    in
    { req; dst; positions; t_submit; t_admitted = Bstat.now () }
  in
  let t0 = Bstat.now () in
  let t_end = t0 +. seconds in
  let last_done = ref t0 in
  let n = Array.length st.tenants in
  let inflight = Array.make n None and pending = ref 0 in
  let calib = Bstat.Vec.create () and rss = ref 0.0 in
  let start () =
    Bstat.Vec.push calib (Calib.time Bstat.now);
    for j = 0 to n - 1 do
      inflight.(j) <- Some (submit j)
    done;
    pending := n;
    last_done := Bstat.now ()
  in
  start ();
  let draining = ref false in
  let i = ref 0 in
  while !pending > 0 do
    (match inflight.(!i) with
    | None -> ()
    | Some f ->
      Serve.await st.svc f.req;
      let t_done = Bstat.now () in
      let t = st.tenants.(!i) in
      let op = Bstat.Vec.length lat in
      Bstat.Vec.push lat (t_done -. f.t_submit);
      Bstat.rss_at rss (Bstat.Vec.length lat);
      Bstat.Vec.push gaps (t_done -. !last_done);
      last_done := t_done;
      let completed = f.req.Request.completed in
      submit_s := !submit_s +. (f.t_admitted -. f.t_submit);
      Option.iter
        (fun tr ->
          let sp = tr.spans in
          if tr.counted < Runner.count_ops then begin
            let now = read !i in
            tr.counts <- Ctr.add tr.counts (Ctr.sub now base.(!i));
            base.(!i) <- now;
            tr.counted_service <-
              tr.counted_service +. (completed -. f.t_admitted);
            tr.counted <- tr.counted + 1
          end;
          let root =
            Spans.add sp ~name:"op" ~parent:(-1) ~op ~t0:f.t_submit ~t1:t_done
          in
          let add name t0 t1 =
            ignore (Spans.add sp ~name ~parent:root ~op ~t0 ~t1 : int)
          in
          add "serve.submit" f.t_submit f.t_admitted;
          add "serve.service" f.t_admitted completed;
          add "serve.wakeup" completed t_done)
        tracer;
      Probe.remapped t.a f.dst;
      if not (Probe.verify (Store.get_copy t.a.Probe.d f.dst) f.positions) then
        incr failed;
      let more = Bstat.now () < t_end || Bstat.Vec.length lat < min_ops in
      if Bstat.Vec.length lat mod Outcome.window = 0 then draining := true;
      if more && not !draining then inflight.(!i) <- Some (submit !i)
      else begin
        inflight.(!i) <- None;
        decr pending;
        if !pending = 0 && more then begin
          draining := false;
          start ()
        end
      end);
    i := (!i + 1) mod n
  done;
  Bstat.Vec.push calib (Calib.time Bstat.now);
  {
    lat = Bstat.Vec.to_array lat;
    gaps = Bstat.Vec.to_array gaps;
    ops = Bstat.Vec.length lat;
    failed = !failed;
    wall = Bstat.now () -. t0;
    submit_s = !submit_s;
    calib = Bstat.Vec.to_array calib;
    rss = Bstat.rss_final rss;
  }

let final_check st = Array.for_all (fun t -> Probe.verify_all t.a) st.tenants

let merge (ps : phase list) =
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0.0 ps in
  {
    lat = Array.concat (List.map (fun p -> p.lat) ps);
    gaps = Array.concat (List.map (fun p -> p.gaps) ps);
    ops = List.fold_left (fun acc p -> acc + p.ops) 0 ps;
    failed = List.fold_left (fun acc p -> acc + p.failed) 0 ps;
    wall = sumf (fun p -> p.wall);
    submit_s = sumf (fun p -> p.submit_s);
    calib = [||];
    rss = 0.0;
  }

(* What the service's own statistics say about a traced chunk. *)
type service = {
  requests : int;
  batches : int;
  fused_members : int;
  service_lat : float array;  (* submit-to-completion, per request *)
  shared_hits : int;
  shared_misses : int;
}

let service_delta st f =
  let shared = Serve.shared_cache st.svc in
  let s0 = Serve.stats st.svc in
  let h0 = Redist.Plan_cache.hits shared
  and m0 = Redist.Plan_cache.misses shared in
  let r = f () in
  let s1 = Serve.stats st.svc in
  let requests = s1.Serve.requests - s0.Serve.requests in
  ( r,
    {
      requests;
      batches = s1.Serve.batches - s0.Serve.batches;
      fused_members = s1.Serve.fused_members - s0.Serve.fused_members;
      (* [latencies] lists the newest request first *)
      service_lat = Array.sub s1.Serve.latencies 0 requests;
      shared_hits = Redist.Plan_cache.hits shared - h0;
      shared_misses = Redist.Plan_cache.misses shared - m0;
    } )

let run ?(sc = full) ?trace_out ~seed ~seconds mode =
  let build () = build sc ~seed in
  let setup_times, st = Runner.repeat mode ~build ~teardown in
  let finish =
    Fun.protect ~finally:(fun () -> teardown st) @@ fun () ->
    Gc.compact ();
    let machines =
      Array.to_list (Array.map (fun t -> t.store.Store.machine) st.tenants)
    and caches =
      List.init (Array.length st.tenants) (fun i -> Serve.tenant_cache st.svc i)
    in
    let phase ?min_ops ~phase ~seconds tracer =
      run_phase ?min_ops sc st ~seed ~phase ~seconds ~tracer
    in
    let open Outcome in
    let ph, traced, metrics, timing_info =
      match mode with
      | Untraced _ ->
        let ph, d =
          Ctr.measure ~machines ~caches (fun () -> phase ~phase:0 ~seconds None)
        in
        let timing, timing_info =
          latency_metrics ~lat:ph.lat ~cost:ph.gaps ~calib:ph.calib
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
        let tracer =
          {
            spans = Spans.create ();
            counted = 0;
            counts = Ctr.zero;
            counted_service = 0.0;
          }
        in
        let svc = ref [] in
        let us, ts, gc =
          Runner.alternate ~seconds
            ~untraced:(fun ~chunk s -> phase ~phase:(2 * chunk) ~seconds:s None)
            ~traced:(fun ~chunk ~min_ops s ->
              let p, sv =
                service_delta st (fun () ->
                    phase ~min_ops ~phase:((2 * chunk) + 1) ~seconds:s
                      (Some tracer))
              in
              svc := sv :: !svc;
              p)
        in
        let ph = merge us and tr = merge ts in
        Option.iter (Spans.write tracer.spans) trace_out;
        let selfs = Spans.self_by_name tracer.spans in
        (* The service's layers: admission (submit) and service (queueing,
           fusion, execution) up to the completion stamp the service
           itself records.  The client's wake-up after that stamp is left
           out, so the law fails if it grows past the tolerance. *)
        let layer_s =
          Spans.self_of selfs "serve.submit"
          +. Spans.self_of selfs "serve.service"
        in
        let total f =
          float_of_int (List.fold_left (fun acc s -> acc + f s) 0 !svc)
        in
        let requests = total (fun s -> s.requests) in
        ( ph,
          Some (tr, layer_s),
          [
            m "serve.submit_block_s" "s"
              (Bstat.ratio tr.submit_s (float_of_int tr.ops));
            m "serve.service_latency_p50_ms" "ms"
              (1e3
              *. Bstat.median
                   (Array.concat (List.map (fun s -> s.service_lat) !svc)));
            m "serve.batch_size_mean" "count"
              (Bstat.ratio requests (total (fun s -> s.batches)));
            m "serve.fused_ratio" "ratio"
              (Bstat.ratio (total (fun s -> s.fused_members)) requests);
            m "redist.plan_cache.shared_hit_ratio" "ratio"
              (let h = total (fun s -> s.shared_hits) in
               Bstat.ratio h (h +. total (fun s -> s.shared_misses)));
          ]
          @ Ctr.metrics ~ops:tracer.counted ~exec_s:tracer.counted_service
              tracer.counts
          @ gc_metrics ~ops:ph.ops gc,
          [] )
    in
    let summary (p : phase) =
      Runner.phase ~ops:p.ops ~failed:p.failed ~busy:p.wall
        ~mean_op:(Bstat.mean p.lat)
    in
    Runner.finish ~untraced:(summary ph)
      ~traced:(Option.map (fun (tr, layer_s) -> (summary tr, layer_s)) traced)
      ~final_ok:(final_check st)
      ~info:
        (("serve_workers", string_of_int (Serve.config st.svc).Serve.workers)
        :: timing_info)
      metrics
  in
  finish (Runner.repeat_after mode setup_times ~build ~teardown)
