(* Differential oracle: run one generated program through the full
   pipeline matrix and cross-check every observable.

   Matrix: {optimized, unoptimized} x {canonical, distributed} x
   {sequential, parallel} x {p2p, collective}.  The parallel executor
   requires the distributed payload (replicated writes into the shared
   canonical payload would race), so 6 configurations are valid — 12
   runs per accepted program, plus one 2-tenant pass of the optimized
   pipeline through the multi-tenant remap service ([check_serve])
   whose per-tenant observables must match the reference run byte for
   byte.  Every run charges the contention-free rounds it executed
   (steps, or collective phases), so each lowering's clock is checked
   against its own trace.

   Checks, in decreasing order of strength:
   - final arrays (program-defined elements) and untainted scalars are
     identical across every run, and across the two pipelines;
   - every modeled counter agrees across the configurations its
     declared class says cannot move it: a [Modeled axes] counter
     (Machine.rebuild declares them) equals the same counter of the
     first run agreeing on [axes], so the parallel executor's and the
     service's modeled counters are checked byte-identical against the
     sequential runs;
   - exact datapath laws on top: a run stages nothing on the
     canonical backend and exactly the cross-rank volume on the
     distributed one; the collective lowering's peak staging bytes
     never exceed the p2p peak on the same backend — bounded peak
     staging memory is the lowering's contract; and no run outside the
     service charges [fused_remaps];
   - the event trace agrees with the counters (Message events reproduce
     the message/volume totals — one event per message under p2p, at
     least one per message under the collective lowering, which slices
     — every event sits inside a contention-free step, the Step_begin
     events count [steps] and their largest volume is
     [peak_step_volume], step costs sum to the clock); the Message
     multiset is identical across every run of a pipeline sharing a
     lowering, and the per-(from, to) volume totals are identical across
     every run of a pipeline
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
    if cfg.Exec.par then Par.executor (Lazy.force pool) else Comm.execute
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

let counters_of (r : run) = r.res.I.machine.M.counters

(* The modeled-counter law, derived from the counter declaration: each
   [Modeled axes] counter of [r] equals the same counter of the first
   run of [runs] whose configuration agrees with [r]'s on [axes]. *)
let same_modeled ~what (runs : run list) (r : run) =
  List.iteri
    (fun i (name, cls, v) ->
      match cls with
      | M.Modeled axes ->
        let r0 = List.find (fun r0 -> Exec.agree axes r0.cfg r.cfg) runs in
        let _, _, v0 = List.nth (M.fields (counters_of r0)) i in
        if compare v v0 <> 0 then
          failf "%s: %s = %s under %s but %s under %s" what name
            (M.string_of_reading v) (Exec.name r.cfg) (M.string_of_reading v0)
            (Exec.name r0.cfg)
      | M.Executor_history | M.Service | M.Wall -> ())
    (M.fields (counters_of r))

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
   contention-free step, totals matching, one Step_begin per charged
   step, the largest Step_begin volume the peak, step costs summing to
   the modeled clock. *)
let trace_self_check ~what (r : run) =
  if r.dropped > 0 then () (* ring buffer overflow: totals unavailable *)
  else begin
    let ctx = Printf.sprintf "%s %s" what (Exec.name r.cfg) in
    let c = counters_of r in
    let n_msgs = ref 0 and vol = ref 0 in
    let in_step = ref false in
    let senders = Hashtbl.create 8 and receivers = Hashtbl.create 8 in
    let step_time = ref 0.0 and n_steps = ref 0 and peak = ref 0 in
    List.iter
      (fun ev ->
        match ev with
        | M.Step_begin { volume; _ } ->
          if !in_step then failf "%s: nested Step_begin" ctx;
          in_step := true;
          incr n_steps;
          peak := Int.max !peak volume;
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
    if
      if r.cfg.Exec.lower = Exec.Collective then !n_msgs < c.M.messages
      else !n_msgs <> c.M.messages
    then
      failf "%s: %d Message events but messages = %d" ctx !n_msgs c.M.messages;
    if !vol <> c.M.volume then
      failf "%s: traced volume %d but volume = %d" ctx !vol c.M.volume;
    if !n_steps <> c.M.steps then
      failf "%s: %d Step_begin events but steps = %d" ctx !n_steps c.M.steps;
    if !peak <> c.M.peak_step_volume then
      failf "%s: largest Step_begin volume %d but peak_step_volume = %d" ctx
        !peak c.M.peak_step_volume;
    if abs_float (!step_time -. c.M.time) > 1e-6 *. (1.0 +. abs_float c.M.time)
    then
      failf "%s: step costs sum to %g but time = %g" ctx !step_time c.M.time
  end

(* --- whole-matrix check -------------------------------------------------------- *)

(* Datapath accounting per run: the exact staging law per backend and
   the collective peak bound. *)
let check_datapath ~what (runs : run list) (r : run) =
  let ctx = Printf.sprintf "%s %s" what (Exec.name r.cfg) in
  let c = counters_of r in
  (match r.cfg.Exec.backend with
  | Store.Canonical ->
    (* globally addressed endpoints: every message is Direct *)
    if c.M.run_blits <> 0 || c.M.staged_bytes <> 0 then
      failf "%s: canonical run staged (%d blits, %d bytes)" ctx c.M.run_blits
        c.M.staged_bytes
  | Store.Distributed ->
    (* per-rank buffers: exactly the cross-rank messages stage *)
    if c.M.staged_bytes <> 8 * c.M.volume then
      failf "%s: distributed staged_bytes = %d, volume = %d" ctx
        c.M.staged_bytes c.M.volume);
  (* the collective lowering's contract: its bounded phases never stage
     more at once than the p2p step program on the same backend *)
  if r.cfg.Exec.lower = Exec.Collective then
    List.iter
      (fun r' ->
        if Exec.agree [ Backend ] r'.cfg r.cfg && r'.cfg.Exec.lower = Exec.P2p
        then begin
          let c' = counters_of r' in
          if c.M.peak_bytes > c'.M.peak_bytes then
            failf "%s: collective peak_bytes %d > p2p peak_bytes %d (%s)"
              ctx c.M.peak_bytes c'.M.peak_bytes
              (Exec.name r'.cfg)
        end)
      runs

let check_pipeline ~what (runs : run list) =
  let ref_run = List.hd runs in
  let ref_agg = aggregated_messages_of ref_run in
  List.iter
    (fun r ->
      trace_self_check ~what r;
      same_result ~what ref_run r;
      same_modeled ~what runs r;
      let c = counters_of r in
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
          List.find (fun r' -> Exec.agree [ Lower ] r'.cfg r.cfg) runs
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
   reference run (canonical / sequential / p2p): every
   value, every modeled counter (a tenant shares every configuration
   axis with the reference) and the traced Message multiset must be
   byte-identical per tenant — the interleaving, the plan sharing, and
   any remap fusion between the two streams must be invisible to each
   tenant's observables. *)
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
      same_modeled ~what [ ref_run ] r;
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
