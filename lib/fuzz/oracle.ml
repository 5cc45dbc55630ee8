(* Differential oracle: run one generated program through the full
   pipeline matrix and cross-check every observable.

   Matrix: {optimized, unoptimized} x {canonical, distributed} x
   {sequential, parallel} x {zerocopy, staged, scalar} x
   {burst, stepped, async} x {p2p, collective}.  The parallel executor
   requires the distributed payload (replicated writes into the shared
   canonical payload would race), the async schedule requires the
   parallel executor (it is an execution discipline of the domain pool,
   charged like stepped), and the collective lowering is exercised only
   under stepped accounting (under burst it charges exactly like p2p,
   so a burst/collective run would duplicate the burst/p2p one), so 33
   configurations are valid — 66 runs per accepted program, plus one
   2-tenant pass of the optimized pipeline through the multi-tenant
   remap service ([check_serve]) whose per-tenant observables must
   match the reference run byte for byte.

   Checks, in decreasing order of strength:
   - final arrays (program-defined elements) and untainted scalars are
     identical across every run, and across the two pipelines;
   - counters that model the communication pattern (messages, volume,
     local moves, remaps, allocation traffic, plan-cache behaviour) are
     identical across every configuration of one pipeline;
   - schedule-derived counters (modeled time, steps, peak step volume)
     are identical across configurations sharing an (accounting mode,
     lowering) pair — async charges like stepped, so its modeled
     counters are checked byte-identical against the stepped runs of
     the same lowering; the collective lowering legitimately charges a
     different phase count and phase-program clock;
   - peak staging bytes are identical across configurations sharing a
     (backend, datapath, lowering) triple — the counter models the
     schedule's staging high-water, which no executor choice may move —
     and the collective lowering's peak never exceeds the p2p peak of
     the same (backend, datapath): bounded peak staging memory is the
     lowering's contract;
   - async configurations complete exactly the staged transfers out of
     step order (async_completions = messages under p2p on the
     distributed backend, where every cross-rank message stages; under
     the collective lowering, one completion per traced slice); every
     other configuration completes none;
   - datapath accounting: the scalar oracle blits and zero-copies
     nothing, the staged path zero-copies nothing and stages every moved
     byte, the zero-copy path stages nothing on the canonical backend
     and exactly the cross-rank volume on the distributed one; runs
     sharing (backend, datapath) agree on all three counters, and per
     backend the staged path always blits at least as many segments as
     the zero-copy path blits plus zero-copies;
   - the event trace agrees with the counters (Message events reproduce
     the message/volume totals — one event per message under p2p, at
     least one per message under the collective lowering, which slices
     — every event sits inside a contention-free step, stepped step
     costs sum to the clock); the Message multiset is identical across
     every run of a pipeline sharing a lowering, and the per-(from, to)
     volume totals are identical across every run of a pipeline
     (slicing redistributes counts over events but moves the same
     elements between the same endpoints);
   - the optimized pipeline never moves more volume or performs more
     remaps than the unoptimized one (hoisting is zero-trip safe, so
     motion cannot add traffic), and each route-preserving pass
     (hoist, live copies, use info) never sends more messages.
     Message *count* is deliberately not compared when
     useless-remapping removal is active: contracting a route through
     a concentrating layout can lower volume while raising the
     point-to-point message count (corpus fuzz-0e3f6e8f0faa.hpf).

   Programs the front end refuses (mapping ambiguities the generator
   deliberately leaves in at low weight) are reported as [Reject] and
   discarded by the properties. *)

module I = Hpfc_interp.Interp
module M = Hpfc_runtime.Machine
module Comm = Hpfc_runtime.Comm
module Store = Hpfc_runtime.Store
module Par = Hpfc_par.Par

module Exec = Hpfc_runtime.Exec

type outcome = Pass | Reject | Fail of string

(* --- cumulative stats (for the >= 300 floor and its summary line) ------ *)

let n_executed = ref 0
let n_rejected = ref 0
let n_runs = ref 0
let programs_executed () = !n_executed
let programs_rejected () = !n_rejected
let pipeline_runs () = !n_runs

(* --- plumbing ------------------------------------------------------------- *)

exception Divergence of string

let failf fmt = Printf.ksprintf (fun s -> raise (Divergence s)) fmt

(* One shared domain team of 3 workers for every parallel run of the
   session, whatever the core count; never destroyed. *)
let pool = lazy (Par.create ~ndomains:3 ())

let compile pipeline (c : Gen.case) =
  match I.compile ~pipeline c.Gen.program with
  | p -> Some p
  | exception
      Hpfc_base.Error.Hpf_error
        ( ( Hpfc_base.Error.Ambiguous_mapping | Hpfc_base.Error.Invalid_directive
          | Hpfc_base.Error.Multiple_leaving_mappings
          | Hpfc_base.Error.Rank_mismatch (* deliberate generator fuel, e.g.
                two distributed dims on the 1-D grid *) ),
          _ ) ->
    None

type run = {
  cfg : Exec.t;
  res : I.result;
  events : M.event list;
  dropped : int;
}

let run_one prog entry (cfg : Exec.t) =
  incr n_runs;
  let executor =
    if cfg.Exec.par then
      Par.executor ~async:(cfg.Exec.sched = Exec.Async) (Lazy.force pool)
    else Comm.execute
  in
  let res = I.run ~exec:cfg ~record_trace:true ~executor prog ~entry () in
  {
    cfg;
    res;
    events = M.events res.I.machine;
    dropped = M.dropped_events res.I.machine;
  }

(* --- value agreement ------------------------------------------------------- *)

(* bit-identical up to NaN (a NaN never equals itself under [=]) *)
let float_eq x y = x = y || (Float.is_nan x && Float.is_nan y)

let value_eq a b =
  match (a, b) with
  | I.VInt a, I.VInt b -> a = b
  | I.VFloat a, I.VFloat b -> float_eq a b
  | _ -> false

let sorted_scalars (r : I.result) =
  List.sort (fun (a, _) (b, _) -> compare a b) r.I.final_scalars

(* Same compiled program, different machinery: everything observable
   must match the reference run exactly, including taint masks. *)
let same_result ~what (ref_run : run) (r : run) =
  let ctx =
    Printf.sprintf "%s %s vs %s" what (Exec.name r.cfg) (Exec.name ref_run.cfg)
  in
  List.iter
    (fun (n, a) ->
      match List.assoc_opt n r.res.I.final_arrays with
      | None -> failf "%s: array %s missing" ctx n
      | Some b ->
        if Array.length a <> Array.length b then
          failf "%s: array %s length %d vs %d" ctx n (Array.length b)
            (Array.length a);
        let mask =
          match List.assoc_opt n ref_run.res.I.final_defined with
          | Some m -> m
          | None -> Array.make (Array.length a) true
        in
        (match List.assoc_opt n r.res.I.final_defined with
        | Some m when m <> mask -> failf "%s: array %s defined-mask differs" ctx n
        | _ -> ());
        Array.iteri
          (fun i def ->
            if def && not (float_eq a.(i) b.(i)) then
              failf "%s: %s(%d) = %h vs %h" ctx n i b.(i) a.(i))
          mask)
    ref_run.res.I.final_arrays;
  if
    List.length r.res.I.final_arrays
    <> List.length ref_run.res.I.final_arrays
  then failf "%s: extra arrays materialized" ctx;
  let s1 = sorted_scalars ref_run.res and s2 = sorted_scalars r.res in
  if List.map fst s1 <> List.map fst s2 then
    failf "%s: scalar sets differ" ctx;
  List.iter2
    (fun (n, v1) (_, v2) ->
      if not (value_eq v1 v2) then failf "%s: scalar %s differs" ctx n)
    s1 s2

(* Different pipelines compile different copy code, so only
   program-defined data is comparable (undefined copies legitimately
   differ); arrays never referenced may not even materialize. *)
let pipelines_agree ~(naive : run) ~(optimized : run) =
  List.iter
    (fun (n, a) ->
      match List.assoc_opt n optimized.res.I.final_arrays with
      | None -> ()
      | Some b ->
        let mask =
          match List.assoc_opt n naive.res.I.final_defined with
          | Some m -> m
          | None -> Array.make (Array.length a) true
        in
        Array.iteri
          (fun i def ->
            if def && not (float_eq a.(i) b.(i)) then
              failf "pipelines: %s(%d) = %h naive vs %h optimized" n i a.(i)
                b.(i))
          mask)
    naive.res.I.final_arrays;
  let opt_scalars = sorted_scalars optimized.res in
  List.iter
    (fun (n, v1) ->
      match List.assoc_opt n opt_scalars with
      | Some v2 when not (value_eq v1 v2) ->
        failf "pipelines: scalar %s differs" n
      | _ -> ())
    (sorted_scalars naive.res)

(* --- counter agreement ------------------------------------------------------ *)

(* identical across every configuration of one pipeline: they model the
   communication pattern, which no backend/executor/datapath/schedule
   choice may change *)
let core_fields =
  [
    ("messages", fun (c : M.counters) -> c.M.messages);
    ("volume", fun c -> c.M.volume);
    ("local_moves", fun c -> c.M.local_moves);
    ("remaps_performed", fun c -> c.M.remaps_performed);
    ("remaps_skipped", fun c -> c.M.remaps_skipped);
    ("live_reuses", fun c -> c.M.live_reuses);
    ("dead_copies", fun c -> c.M.dead_copies);
    ("allocs", fun c -> c.M.allocs);
    ("frees", fun c -> c.M.frees);
    ("evictions", fun c -> c.M.evictions);
    ("plan_hits", fun c -> c.M.plan_hits);
    ("plan_misses", fun c -> c.M.plan_misses);
    ("plan_evictions", fun c -> c.M.plan_evictions);
  ]

(* identical across configurations sharing a schedule mode *)
let sched_fields =
  [
    ("steps", fun (c : M.counters) -> c.M.steps);
    ("peak_step_volume", fun c -> c.M.peak_step_volume);
  ]

let counters_of (r : run) = r.res.I.machine.M.counters

let same_counters ~what ref_run r =
  let c0 = counters_of ref_run and c = counters_of r in
  List.iter
    (fun (name, f) ->
      if f c <> f c0 then
        failf "%s: %s = %d under %s but %d under %s" what name (f c)
          (Exec.name r.cfg) (f c0) (Exec.name ref_run.cfg))
    core_fields

let same_sched_counters ~what ref_run r =
  let c0 = counters_of ref_run and c = counters_of r in
  List.iter
    (fun (name, f) ->
      if f c <> f c0 then
        failf "%s: %s = %d under %s but %d under %s" what name (f c)
          (Exec.name r.cfg) (f c0) (Exec.name ref_run.cfg))
    sched_fields;
  if not (float_eq c.M.time c0.M.time) then
    failf "%s: modeled time %g under %s but %g under %s" what c.M.time
      (Exec.name r.cfg) c0.M.time (Exec.name ref_run.cfg)

(* --- trace agreement --------------------------------------------------------- *)

let messages_of (r : run) =
  List.filter_map
    (function
      | M.Message { from_rank; to_rank; count } -> Some (from_rank, to_rank, count)
      | _ -> None)
    r.events
  |> List.sort compare

(* Per-(from, to) volume totals: the lowering-independent view of the
   Message trace.  The collective lowering slices messages, so its event
   multiset differs from p2p's, but summing counts per endpoint pair
   must recover exactly the same totals — slicing may not move an
   element between different processors. *)
let aggregated_messages_of (r : run) =
  let tbl = Hashtbl.create 16 in
  List.iter
    (function
      | M.Message { from_rank; to_rank; count } ->
        let k = (from_rank, to_rank) in
        Hashtbl.replace tbl k (count + Option.value ~default:0 (Hashtbl.find_opt tbl k))
      | _ -> ())
    r.events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare

(* The trace must reproduce the counters: every message inside a
   contention-free step, totals matching, stepped step costs summing to
   the modeled clock. *)
let trace_self_check ~what (r : run) =
  if r.dropped > 0 then () (* ring buffer overflow: totals unavailable *)
  else begin
    let ctx = Printf.sprintf "%s %s" what (Exec.name r.cfg) in
    let c = counters_of r in
    let n_msgs = ref 0 and vol = ref 0 in
    let in_step = ref false in
    let senders = Hashtbl.create 8 and receivers = Hashtbl.create 8 in
    let step_time = ref 0.0 in
    List.iter
      (fun ev ->
        match ev with
        | M.Step_begin _ ->
          if !in_step then failf "%s: nested Step_begin" ctx;
          in_step := true;
          Hashtbl.reset senders;
          Hashtbl.reset receivers
        | M.Step_end { time; _ } ->
          if not !in_step then failf "%s: Step_end outside step" ctx;
          in_step := false;
          step_time := !step_time +. time
        | M.Message { from_rank; to_rank; count } ->
          if not !in_step then failf "%s: message outside step" ctx;
          if Hashtbl.mem senders from_rank then
            failf "%s: processor %d sends twice in one step" ctx from_rank;
          if Hashtbl.mem receivers to_rank then
            failf "%s: processor %d receives twice in one step" ctx to_rank;
          Hashtbl.add senders from_rank ();
          Hashtbl.add receivers to_rank ();
          incr n_msgs;
          vol := !vol + count
        | _ -> ())
      r.events;
    if !in_step then failf "%s: unterminated step" ctx;
    (* one event per message under p2p; the collective lowering slices,
       so it records at least one event per message (and the volume law
       below pins the slice lengths to the exact moved elements) *)
    (match r.cfg.Exec.lower with
    | Exec.Collective ->
      if !n_msgs < c.M.messages then
        failf "%s: %d Message events but messages = %d" ctx !n_msgs
          c.M.messages
    | Exec.P2p | Exec.Auto ->
      if !n_msgs <> c.M.messages then
        failf "%s: %d Message events but messages = %d" ctx !n_msgs
          c.M.messages);
    if !vol <> c.M.volume then
      failf "%s: traced volume %d but volume = %d" ctx !vol c.M.volume;
    if
      M.accounting r.cfg.Exec.sched = M.Stepped
      && abs_float (!step_time -. c.M.time) > 1e-6 *. (1.0 +. abs_float c.M.time)
    then
      failf "%s: step costs sum to %g but time = %g" ctx !step_time c.M.time
  end

(* --- whole-matrix check -------------------------------------------------------- *)

(* Datapath accounting per run: exact per-path invariants, agreement
   within each (backend, datapath) group (run segmentation follows the
   payload layout, so counts are only comparable on one backend), and
   the staged-vs-zero-copy conservation law per backend. *)
let check_datapath ~what (runs : run list) (r : run) =
  let ctx = Printf.sprintf "%s %s" what (Exec.name r.cfg) in
  let c = counters_of r in
  (match r.cfg.Exec.datapath with
  | Exec.Scalar ->
    if c.M.run_blits <> 0 then
      failf "%s: scalar path performed %d blits" ctx c.M.run_blits;
    if c.M.zero_copy_runs <> 0 then
      failf "%s: scalar path zero-copied %d runs" ctx c.M.zero_copy_runs;
    if c.M.staged_bytes <> 8 * c.M.volume then
      failf "%s: scalar staged_bytes = %d, volume = %d" ctx c.M.staged_bytes
        c.M.volume
  | Exec.Staged ->
    if c.M.zero_copy_runs <> 0 then
      failf "%s: staged path zero-copied %d runs" ctx c.M.zero_copy_runs;
    if c.M.staged_bytes <> 8 * c.M.volume then
      failf "%s: staged staged_bytes = %d, volume = %d" ctx c.M.staged_bytes
        c.M.volume
  | Exec.Zero_copy -> (
    match r.cfg.Exec.backend with
    | Store.Canonical ->
      (* globally addressed endpoints: every message is Direct *)
      if c.M.run_blits <> 0 || c.M.staged_bytes <> 0 then
        failf "%s: canonical zero-copy staged (%d blits, %d bytes)" ctx
          c.M.run_blits c.M.staged_bytes
    | Store.Distributed ->
      (* per-rank buffers: exactly the cross-rank messages stage *)
      if c.M.staged_bytes <> 8 * c.M.volume then
        failf "%s: distributed zero-copy staged_bytes = %d, volume = %d" ctx
          c.M.staged_bytes c.M.volume));
  (* agreement with the first run sharing (backend, datapath) *)
  let group_ref =
    List.find
      (fun r' ->
        r'.cfg.Exec.backend = r.cfg.Exec.backend
        && r'.cfg.Exec.datapath = r.cfg.Exec.datapath)
      runs
  in
  let c0 = counters_of group_ref in
  if
    (c.M.run_blits, c.M.zero_copy_runs, c.M.staged_bytes)
    <> (c0.M.run_blits, c0.M.zero_copy_runs, c0.M.staged_bytes)
  then
    failf "%s: datapath counters (%d, %d, %d) but (%d, %d, %d) under %s" ctx
      c.M.run_blits c.M.zero_copy_runs c.M.staged_bytes c0.M.run_blits
      c0.M.zero_copy_runs c0.M.staged_bytes
      (Exec.name group_ref.cfg);
  (* peak staging bytes model the schedule's staging high-water: they
     depend on the lowering (which shapes the schedule) on top of
     (backend, datapath), and on nothing else *)
  let peak_ref =
    List.find
      (fun r' ->
        r'.cfg.Exec.backend = r.cfg.Exec.backend
        && r'.cfg.Exec.datapath = r.cfg.Exec.datapath
        && r'.cfg.Exec.lower = r.cfg.Exec.lower)
      runs
  in
  let cp = counters_of peak_ref in
  if c.M.peak_bytes <> cp.M.peak_bytes then
    failf "%s: peak_bytes = %d but %d under %s" ctx c.M.peak_bytes
      cp.M.peak_bytes
      (Exec.name peak_ref.cfg);
  (* the collective lowering's contract: its bounded phases never stage
     more at once than the p2p step program of the same (backend,
     datapath) *)
  if r.cfg.Exec.lower = Exec.Collective then
    List.iter
      (fun r' ->
        if
          r'.cfg.Exec.backend = r.cfg.Exec.backend
          && r'.cfg.Exec.datapath = r.cfg.Exec.datapath
          && r'.cfg.Exec.lower = Exec.P2p
        then begin
          let c' = counters_of r' in
          if c.M.peak_bytes > c'.M.peak_bytes then
            failf "%s: collective peak_bytes %d > p2p peak_bytes %d (%s)"
              ctx c.M.peak_bytes c'.M.peak_bytes
              (Exec.name r'.cfg)
        end)
      runs;
  (* conservation: staged blits locals once and every move twice; zero
     shifts locals and Direct moves to zero_copy_runs, so per backend
     staged.run_blits >= zero.run_blits + zero.zero_copy_runs *)
  if r.cfg.Exec.datapath = Exec.Zero_copy then
    List.iter
      (fun r' ->
        if
          r'.cfg.Exec.backend = r.cfg.Exec.backend
          && r'.cfg.Exec.datapath = Exec.Staged
        then begin
          let cs = counters_of r' in
          if cs.M.run_blits < c.M.run_blits + c.M.zero_copy_runs then
            failf
              "%s: staged run_blits %d < zero-copy blits %d + zero-copies %d"
              ctx cs.M.run_blits c.M.run_blits c.M.zero_copy_runs
        end)
      runs

let check_pipeline ~what (runs : run list) =
  let ref_run = List.hd runs in
  let ref_agg = aggregated_messages_of ref_run in
  List.iter
    (fun r ->
      trace_self_check ~what r;
      same_result ~what ref_run r;
      same_counters ~what ref_run r;
      (* schedule-derived counters: compare to the first run sharing the
         (accounting mode, lowering) pair — async charges exactly like
         stepped, so those configurations sit in one group per lowering
         and the "modeled counters byte-identical" law is checked for
         free; the collective lowering legitimately charges a different
         step count (phases) and clock (phase program) *)
      let sched_ref =
        List.find
          (fun r' ->
            M.accounting r'.cfg.Exec.sched = M.accounting r.cfg.Exec.sched
            && r'.cfg.Exec.lower = r.cfg.Exec.lower)
          runs
      in
      same_sched_counters ~what sched_ref r;
      (* completion accounting: the async executor completes exactly the
         staged transfers out of step order — on the distributed backend
         every cross-rank message stages, so under p2p the count is the
         message count, and under the collective lowering one transfer
         per slice, i.e. per traced Message event; every other executor
         never completes out of order *)
      let c = counters_of r in
      let expected =
        if r.cfg.Exec.sched <> Async then Some 0
        else if r.cfg.Exec.lower = Exec.Collective then
          if r.dropped > 0 then None (* slice count unavailable *)
          else Some (List.length (messages_of r))
        else Some c.M.messages
      in
      (match expected with
      | Some expected ->
        if c.M.async_completions <> expected then
          failf "%s %s: async_completions = %d, expected %d" what
            (Exec.name r.cfg) c.M.async_completions expected
      | None -> ());
      (* fusion is a service-only behaviour: no matrix run may charge it *)
      if c.M.fused_remaps <> 0 then
        failf "%s %s: fused_remaps = %d outside the service" what
          (Exec.name r.cfg) c.M.fused_remaps;
      check_datapath ~what runs r;
      if r.dropped > 0 || ref_run.dropped > 0 then ()
      else begin
        (* the exact Message multiset is a per-lowering observable (the
           collective lowering slices); the per-(from, to) volume totals
           are pipeline-wide *)
        let lower_ref =
          List.find (fun r' -> r'.cfg.Exec.lower = r.cfg.Exec.lower) runs
        in
        if
          lower_ref.dropped = 0
          && messages_of r <> messages_of lower_ref
        then
          failf "%s %s: Message multiset differs from %s" what
            (Exec.name r.cfg)
            (Exec.name lower_ref.cfg);
        if aggregated_messages_of r <> ref_agg then
          failf "%s %s: per-(from, to) Message volumes differ from reference"
            what (Exec.name r.cfg)
      end)
    runs

let leq ~what name a b =
  if a > b then failf "%s: optimized %s %d > unoptimized %d" what name a b

(* --- the service configuration ------------------------------------------------- *)

(* The program as two concurrent tenant streams through the multi-tenant
   remap service: each tenant interprets the whole program with its
   remappings delegated to the shared service ([Serve.executor]) and its
   plans looked up through its tenant cache over the shared sharded
   cache.  The service's correctness bar is checked against the
   reference run (canonical / sequential / zero-copy / burst): every
   value, every core and schedule counter, and the traced Message
   multiset must be byte-identical per tenant — the interleaving, the
   plan sharing, and any remap fusion between the two streams must be
   invisible to each tenant's observables.  [fused_remaps] is the one
   counter the service may move, and it is excluded from the core
   fields by construction. *)
let check_serve ~what (ref_run : run) prog entry =
  let module Serve = Hpfc_serve.Serve in
  let svc = Serve.create ~tenants:2 () in
  let tenant i =
    Domain.spawn (fun () ->
        try
          incr n_runs;
          let res =
            I.run ~exec:ref_run.cfg ~record_trace:true
              ~executor:(Serve.executor svc ~tenant:i)
              ~plans:(Serve.tenant_cache svc i) prog ~entry ()
          in
          Ok
            {
              cfg = ref_run.cfg;
              res;
              events = M.events res.I.machine;
              dropped = M.dropped_events res.I.machine;
            }
        with e -> Error e)
  in
  let tenants =
    List.map
      (fun d -> match Domain.join d with Ok r -> r | Error e -> raise e)
      [ tenant 0; tenant 1 ]
  in
  ignore (Serve.shutdown svc);
  let ref_msgs = messages_of ref_run in
  List.iteri
    (fun i r ->
      let what = Printf.sprintf "%s serve tenant %d" what i in
      trace_self_check ~what r;
      same_result ~what ref_run r;
      same_counters ~what ref_run r;
      same_sched_counters ~what ref_run r;
      if
        (not (r.dropped > 0 || ref_run.dropped > 0))
        && messages_of r <> ref_msgs
      then failf "%s: Message multiset differs from reference" what)
    tenants

let check_case (c : Gen.case) : outcome =
  match (compile I.naive_pipeline c, compile I.full_pipeline c) with
  | None, _ | _, None ->
    incr n_rejected;
    Reject
  | Some naive_prog, Some full_prog -> (
    try
      let entry = c.Gen.entry in
      let naive_runs = List.map (run_one naive_prog entry) Exec.all in
      let full_runs = List.map (run_one full_prog entry) Exec.all in
      check_pipeline ~what:"naive" naive_runs;
      check_pipeline ~what:"optimized" full_runs;
      let n0 = List.hd naive_runs and f0 = List.hd full_runs in
      pipelines_agree ~naive:n0 ~optimized:f0;
      let cn = counters_of n0 and cf = counters_of f0 in
      (* no "messages" law here: the full pipeline contains
         useless-remapping removal, which may contract a two-leg route
         through a concentrating layout into one direct remap with
         strictly less volume but *more* point-to-point messages (see
         corpus fuzz-0e3f6e8f0faa.hpf and WALKTHROUGH.md) *)
      leq ~what:"pipelines" "volume" cf.M.volume cn.M.volume;
      leq ~what:"pipelines" "remaps" cf.M.remaps_performed cn.M.remaps_performed;
      check_serve ~what:"optimized" f0 full_prog entry;
      incr n_executed;
      Pass
    with
    | Divergence msg -> Fail msg
    | Hpfc_base.Error.Hpf_error _ as e ->
      Fail (Printf.sprintf "runtime fault: %s" (Printexc.to_string e)))

(* --- single-pass invariants ----------------------------------------------------- *)

(* Each optimization individually: semantics preserved, volume and
   remap count never increased, messages never increased for
   route-preserving passes, against the same all-off baseline. *)
let passes =
  [
    ("hoist", { I.naive_pipeline with I.hoist = true });
    ("remove_useless", { I.naive_pipeline with I.remove_useless = true });
    ( "live_copies",
      {
        I.naive_pipeline with
        I.codegen = { I.naive_pipeline.I.codegen with Hpfc_codegen.Gen.use_live_copies = true };
      } );
    ( "use_info",
      {
        I.naive_pipeline with
        I.codegen = { I.naive_pipeline.I.codegen with Hpfc_codegen.Gen.use_use_info = true };
      } );
  ]

let pass_names = List.map fst passes

let check_pass name (c : Gen.case) : outcome =
  let pipeline = List.assoc name passes in
  match (compile I.naive_pipeline c, compile pipeline c) with
  | None, _ | _, None ->
    incr n_rejected;
    Reject
  | Some base_prog, Some pass_prog -> (
    try
      let cfg = Exec.reference in
      let base = run_one base_prog c.Gen.entry cfg in
      let passed = run_one pass_prog c.Gen.entry cfg in
      trace_self_check ~what:("base/" ^ name) base;
      trace_self_check ~what:name passed;
      pipelines_agree ~naive:base ~optimized:passed;
      let cb = counters_of base and cp = counters_of passed in
      (* hoist, live_copies and use_info never change a remap's
         (source, target) route — they only move, skip or
         communication-strip legs — so their message counts are
         monotone.  For hoist this holds by construction: a move that
         adds a data-moving (array, source, target) route to G_R is
         refused (Hoist.keeps_routes; without that rule, corpus
         fuzz-2344f6967502.hpf moved 132 elements where the unhoisted
         code moved 120).  remove_useless rewires routes: contracting
         A -> B -> C into A -> C is guaranteed to shrink volume (a
         moved element differs between A and C, hence between A and B
         or between B and C) and remap count, but a concentrating
         middle layout B can make each leg's message count smaller
         than the direct all-to-all's, so no messages law for it. *)
      if name <> "remove_useless" then
        leq ~what:name "messages" cp.M.messages cb.M.messages;
      leq ~what:name "volume" cp.M.volume cb.M.volume;
      leq ~what:name "remaps" cp.M.remaps_performed cb.M.remaps_performed;
      incr n_executed;
      Pass
    with
    | Divergence msg -> Fail msg
    | Hpfc_base.Error.Hpf_error _ as e ->
      Fail (Printf.sprintf "runtime fault: %s" (Printexc.to_string e)))
