(* The [compile] workload: one op parses one program and compiles it
   with the full pipeline (hoisting, G_R construction, useless-remapping
   removal, copy code generation).  The programs come from three
   sources: the paper's figures, the application kernels at several
   structural parameters (array sizes are tiny, since they do not change
   the compile), and seeded fuzzer programs printed to source before the
   clock starts.  The runtime does no work here.

   Each op's output is checked outside the clock: a figure's emitted
   remapping count must be the one its figure shows (Fig. 5 must be
   rejected), optimized code may never emit more remappings than the
   naive pipeline, and a seeded sample of compiled programs is run and
   compared with the naive pipeline's run, value for value. *)

open Hpfc_runtime
module I = Hpfc_interp.Interp
module Ast = Hpfc_lang.Ast
module Apps = Hpfc_kernels.Apps
module Figures = Hpfc_kernels.Figures
module Gen = Hpfc_codegen.Gen
module Rt_ir = Hpfc_codegen.Rt_ir

(* Remapping copies emitted per figure under the full pipeline; [None]:
   the figure must be rejected.  Two kinds of entry:
   - stated: the count the paper's figure states, as recorded in the FIG
     rows of EXPERIMENTS.md;
   - snapshot: the count of the generated code at the time the
     benchmark was written, checked by hand against the figure but not
     stated by the paper.  A change that legitimately moves one of
     these makes the benchmark report failed ops until it is updated. *)
let figure_counts =
  [
    ("fig1", Some 1);  (* stated: FIG1, a single direct remapping remains *)
    ("fig2", Some 0);  (* stated: FIG2, both C remappings useless *)
    ("fig3", Some 2);  (* stated: FIG3, exactly 2 of the 5 arrays remap *)
    ("fig4", Some 3);  (* snapshot *)
    ("fig5", None);  (* stated: FIG5, ambiguous reference rejected *)
    ("fig6", Some 2);  (* snapshot *)
    ("fig10", Some 10);  (* snapshot *)
    ("fig13", Some 4);  (* snapshot *)
    ("fig15", Some 3);  (* snapshot *)
    ("fig16", Some 2);  (* stated: FIG16/17, optimized 2 copies *)
    ("fig21", Some 0);  (* snapshot *)
  ]

type kind =
  | Figure of int option
  | Runnable of { entry : string; scalars : (string * I.value) list }

type prog = {
  id : string;
  src : string;
  kind : kind;
  weight : int;  (* occurrences per epoch of the op stream *)
  naive_emitted : int;
  naive_run : I.result option;  (* reference run of runnable programs *)
}

type scale = { fuzz : int; fixed_weight : int; sample_every : int }

let full = { fuzz = 64; fixed_weight = 12; sample_every = 16 }

(* A sub-second version for the self-test. *)
let small = { fuzz = 4; fixed_weight = 1; sample_every = 4 }

let rec count_copies = function
  | Rt_ir.Seq l -> List.fold_left (fun acc c -> acc + count_copies c) 0 l
  | Rt_ir.If_status_not { body; _ }
  | Rt_ir.If_status_is { body; _ }
  | Rt_ir.If_saved_is { body; _ } ->
    count_copies body
  | Rt_ir.If_live_else { live; dead; _ } ->
    count_copies live + count_copies dead
  | Rt_ir.Copy _ -> 1
  | _ -> 0

(* Remapping copies left in a routine's generated code. *)
let emitted_routine (r : Gen.routine) =
  let tbl h = Hashtbl.fold (fun _ c acc -> acc + count_copies c) h 0 in
  count_copies r.Gen.entry_code
  + count_copies r.Gen.exit_code
  + tbl r.Gen.remap_codes + tbl r.Gen.pre_call + tbl r.Gen.post_call

let emitted (p : I.program) =
  Hashtbl.fold (fun _ r acc -> acc + emitted_routine r) p.I.compiled 0

let compile pipeline src =
  I.compile ~pipeline (Hpfc_parser.Parser.parse_program src)

(* The tiny-size run the checks compare: distributed payloads, so the
   staged datapath is exercised and [peak_bytes] is meaningful; the
   machine is the interpreter's default one but for a one-slot trace
   buffer, since no trace is recorded. *)
let run_tiny (p : I.program) ~entry ~scalars =
  let nprocs =
    match Hashtbl.find_opt p.I.compiled entry with
    | Some r ->
      r.Gen.graph.Hpfc_remap.Graph.env.Hpfc_lang.Env.default_procs
        .Hpfc_mapping.Procs.shape.(0)
    | None -> 1
  in
  let machine =
    Machine.create ~sched:Machine.Stepped ~trace_capacity:1 ~nprocs ()
  in
  I.run ~machine ~backend:Store.Distributed ~scalars p ~entry ()

(* Program-defined values of two runs agree (undefined data may
   legitimately differ between compilations). *)
let agree (naive : I.result) (opt : I.result) =
  naive.I.final_scalars = opt.I.final_scalars
  && List.for_all
       (fun (n, a1) ->
         match
           (List.assoc_opt n opt.I.final_arrays,
            List.assoc_opt n naive.I.final_defined)
         with
         | Some a2, Some mask ->
           let ok = ref true in
           Array.iteri
             (fun i def -> if def && a1.(i) <> a2.(i) then ok := false)
             mask;
           !ok
         | Some a2, None -> a1 = a2
         | None, _ -> true)
       naive.I.final_arrays

let apps =
  let run entry ?(scalars = []) src = (src, Runnable { entry; scalars }) in
  let t2 = [ ("t", I.VInt 2) ] in
  [
    ("adi_p4", run "adi" ~scalars:t2 (Apps.adi_src ~p:4 ~n:8 ()));
    ("adi_p8", run "adi" ~scalars:t2 (Apps.adi_src ~p:8 ~n:16 ()));
    ("solver", run "solver" (Apps.solver_src ~n:8));
    ("sar", run "sar" ~scalars:t2 (Apps.sar_src ~n:8));
    ("tensor", run "tensor" (Apps.tensor_src ~n:8));
  ]
  @ List.map
      (fun s ->
        ( Printf.sprintf "fft2d_s%d" s,
          run "fft2d" (Apps.fft2d_src ~sweeps:s ~n:8 ()) ))
      [ 1; 2; 4; 8 ]
  @ List.map
      (fun k ->
        (Printf.sprintf "calls_k%d" k, run "calls" (Apps.calls_src ~n:8 ~k)))
      [ 2; 4; 8; 16; 32 ]

(* Reference data of one program: the naive pipeline's emitted count and
   (runnable programs) its tiny run.  [None] when the naive pipeline
   rejects a fuzzer program. *)
let prepare ~id ~src ~kind ~weight =
  match compile I.naive_pipeline src with
  | exception Hpfc_base.Error.Hpf_error _ when kind = Figure None ->
    Some { id; src; kind; weight; naive_emitted = 0; naive_run = None }
  | naive ->
    let naive_run =
      match kind with
      | Figure _ -> None
      | Runnable { entry; scalars } -> Some (run_tiny naive ~entry ~scalars)
    in
    Some { id; src; kind; weight; naive_emitted = emitted naive; naive_run }

(* Seeded fuzzer programs the front end and both pipelines accept. *)
let fuzz_programs sc ~seed =
  let rand = Random.State.make [| seed; 5 |] in
  let rec go i acc tries =
    if i >= sc.fuzz || tries > 100 * sc.fuzz then List.rev acc
    else
      let case = QCheck2.Gen.generate1 ~rand Hpfc_fuzz.Gen.gen_case in
      let src = Hpfc_fuzz.Gen.print_case case in
      let kind = Runnable { entry = case.Hpfc_fuzz.Gen.entry; scalars = [] } in
      match
        ignore (compile I.full_pipeline src : I.program);
        prepare ~id:(Printf.sprintf "fuzz%d" i) ~src ~kind ~weight:1
      with
      | Some p -> go (i + 1) (p :: acc) (tries + 1)
      | None | (exception _) -> go i acc (tries + 1)
  in
  go 0 [] 0

let pool sc ~seed =
  let fixed =
    List.map
      (fun (id, src) -> (id, src, Figure (List.assoc id figure_counts)))
      Figures.all
    @ List.map (fun (id, (src, kind)) -> (id, src, kind)) apps
  in
  Array.of_list
    (List.map
       (fun (id, src, kind) ->
         Option.get (prepare ~id ~src ~kind ~weight:sc.fixed_weight))
       fixed
    @ fuzz_programs sc ~seed)

(* The op stream: epochs, each a seeded shuffle of the weighted pool. *)
let op_stream pool ~seed =
  let slots =
    Array.concat
      (Array.to_list (Array.map (fun p -> Array.make p.weight p) pool))
  in
  let rng = Random.State.make [| seed; 6 |] in
  let pos = ref (Array.length slots) in
  fun () ->
    if !pos >= Array.length slots then begin
      for i = Array.length slots - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = slots.(i) in
        slots.(i) <- slots.(j);
        slots.(j) <- t
      done;
      pos := 0
    end;
    let p = slots.(!pos) in
    incr pos;
    p

(* Per-op layer counts, summed over the first [Runner.count_ops] traced
   ops. *)
let counts_names =
  [| "remap.gr_vertices"; "remap.gr_edges"; "opt.hoist.hoisted";
     "opt.remove_useless.removed"; "codegen.remaps_emitted" |]

type tracer = { spans : Spans.t; counts : float array; mutable counted : int }

(* The full pipeline composed exactly as [Interp.compile_routine] does,
   each layer's public call in its own span; [add i n] records layer
   count [i]. *)
let traced_compile spans ~root ~op ~add src =
  let span name f =
    Spans.with_span spans ~name ~parent:root ~op (fun _ -> f ())
  in
  let pl = I.full_pipeline in
  let nprocs = pl.I.default_nprocs in
  let prog = span "parser" (fun () -> Hpfc_parser.Parser.parse_program src) in
  let compiled = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.routine) ->
      let r', hoisted =
        span "opt.hoist" (fun () -> Hpfc_opt.Hoist.run ~default_nprocs:nprocs r)
      in
      let g =
        span "remap.gr_build" (fun () ->
            Hpfc_remap.Construct.build ~default_nprocs:nprocs r')
      in
      add 0 (Hpfc_remap.Graph.nb_vertices g);
      add 1 (Hpfc_remap.Graph.nb_edges g);
      add 2 hoisted;
      let st =
        span "opt.remove_useless" (fun () -> Hpfc_opt.Remove_useless.run g)
      in
      add 3 st.Hpfc_opt.Remove_useless.removed;
      let gen =
        span "codegen" (fun () -> Gen.generate ~options:pl.I.codegen g)
      in
      add 4 (emitted_routine gen);
      Hashtbl.replace compiled r.Ast.r_name gen)
    prog.Ast.routines;
  { I.compiled; share_live_args = pl.I.share_live_args }

let layer_spans =
  [ "parser"; "opt.hoist"; "remap.gr_build"; "opt.remove_useless"; "codegen" ]

type phase = {
  lat : float array;
  ops : int;
  failed : int;
  busy : float;
  emitted_total : int;
  peak_bytes : int;  (* max staging high-water of the checked runs *)
  runs_checked : int;
  calib : float array;  (* calibration before each window, and at the end *)
  rss : float;  (* peak resident set after [Bstat.rss_ops] ops *)
}

(* One closed-loop phase.  [fault] replaces the full pipeline by the
   naive one for the ops it selects (the self-test's broken compiler). *)
let run_phase ?(min_ops = 0) sc pool ~seed ~phase ~seconds ~fault ~traced =
  let next = op_stream pool ~seed:(seed + (1_000_003 * phase)) in
  let rng = Random.State.make [| seed; 7; phase |] in
  let checked_once = Hashtbl.create 64 in
  let lat = Bstat.Vec.create () and calib = Bstat.Vec.create () in
  let rss = ref 0.0 in
  let failed = ref 0
  and emitted_total = ref 0
  and peak = ref 0
  and runs = ref 0 in
  let t_end = Bstat.now () +. seconds in
  while Bstat.now () < t_end || Bstat.Vec.length lat < min_ops do
    let op = Bstat.Vec.length lat in
    if op mod Outcome.window = 0 then
      Bstat.Vec.push calib (Calib.time Bstat.now);
    let p = next () in
    let pipeline = if fault op then I.naive_pipeline else I.full_pipeline in
    let t0 = Bstat.now () in
    let out =
      match traced with
      | Some tr when not (fault op) ->
        let root = Spans.start tr.spans ~name:"op" ~parent:(-1) ~op in
        let counting = tr.counted < Runner.count_ops in
        let add i n =
          if counting then tr.counts.(i) <- tr.counts.(i) +. float_of_int n
        in
        let r =
          try Ok (traced_compile tr.spans ~root ~op ~add p.src)
          with e -> Error e
        in
        Spans.stop tr.spans root;
        if counting then tr.counted <- tr.counted + 1;
        r
      | _ -> ( try Ok (compile pipeline p.src) with e -> Error e)
    in
    let t1 = Bstat.now () in
    Bstat.Vec.push lat (t1 -. t0);
    Bstat.rss_at rss (Bstat.Vec.length lat);
    let ok =
      match (p.kind, out) with
      | Figure None, Error (Hpfc_base.Error.Hpf_error _) -> true
      | Figure (Some n), Ok c ->
        let e = emitted c in
        if op < Runner.count_ops then emitted_total := !emitted_total + e;
        e = n && e <= p.naive_emitted
      | Runnable { entry; scalars }, Ok c ->
        let e = emitted c in
        if op < Runner.count_ops then emitted_total := !emitted_total + e;
        e <= p.naive_emitted
        &&
        let sample =
          (not (Hashtbl.mem checked_once p.id))
          || Random.State.int rng sc.sample_every = 0
        in
        (not sample)
        ||
        (Hashtbl.replace checked_once p.id ();
         incr runs;
         match run_tiny c ~entry ~scalars with
         | r ->
           peak := max !peak r.I.machine.Machine.counters.Machine.peak_bytes;
           agree (Option.get p.naive_run) r
         | exception _ -> false)
      | _ -> false
    in
    if not ok then incr failed
  done;
  Bstat.Vec.push calib (Calib.time Bstat.now);
  {
    lat = Bstat.Vec.to_array lat;
    ops = Bstat.Vec.length lat;
    failed = !failed;
    busy = Bstat.Vec.sum lat;
    emitted_total = !emitted_total;
    peak_bytes = !peak;
    runs_checked = !runs;
    calib = Bstat.Vec.to_array calib;
    rss = Bstat.rss_final rss;
  }

let merge (ps : phase list) =
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 ps in
  {
    lat = Array.concat (List.map (fun p -> p.lat) ps);
    ops = sum (fun p -> p.ops);
    failed = sum (fun p -> p.failed);
    busy = List.fold_left (fun acc p -> acc +. p.busy) 0.0 ps;
    emitted_total = sum (fun p -> p.emitted_total);
    peak_bytes = List.fold_left (fun acc p -> max acc p.peak_bytes) 0 ps;
    runs_checked = sum (fun p -> p.runs_checked);
    calib = [||];
    rss = 0.0;
  }

let warm_passes = 4

let run ?(sc = full) ?(fault = fun _ -> false) ?trace_out ~seed ~seconds mode =
  let pool = pool sc ~seed in
  (* no state outlives an op: set-up is [warm_passes] passes compiling
     every program of the pool once, long enough (about 0.1 s) to time *)
  let warm () =
    for _ = 1 to warm_passes do
      Array.iter
        (fun p ->
          try ignore (compile I.full_pipeline p.src : I.program) with _ -> ())
        pool
    done
  in
  let setup_times, () = Runner.repeat mode ~build:warm ~teardown:ignore in
  Gc.compact ();
  let phase ?min_ops ~phase ~seconds traced =
    run_phase ?min_ops sc pool ~seed ~phase ~seconds ~fault ~traced
  in
  let open Outcome in
  let ph, traced, metrics, timing_info =
    match mode with
    | Untraced _ ->
      let ph = phase ~phase:0 ~seconds None in
      let timing, timing_info =
        latency_metrics ~lat:ph.lat ~cost:ph.lat ~calib:ph.calib
      in
      ( ph,
        None,
        timing
        @ [
            m "peak_rss_mb" "MB" ph.rss;
            m "peak_staging_bytes" "B" (float_of_int ph.peak_bytes);
            m "remaps_emitted_per_op" "count/op"
              (Bstat.ratio
                 (float_of_int ph.emitted_total)
                 (float_of_int (min ph.ops Runner.count_ops)));
          ],
        timing_info )
    | Traced ->
      let tracer =
        {
          spans = Spans.create ();
          counts = Array.make (Array.length counts_names) 0.0;
          counted = 0;
        }
      in
      let us, ts, gc =
        Runner.alternate ~seconds
          ~untraced:(fun ~chunk s -> phase ~phase:(2 * chunk) ~seconds:s None)
          ~traced:(fun ~chunk ~min_ops s ->
            phase ~min_ops ~phase:((2 * chunk) + 1) ~seconds:s (Some tracer))
      in
      let ph = merge us and tr = merge ts in
      Option.iter (Spans.write tracer.spans) trace_out;
      let selfs = Spans.self_by_name tracer.spans in
      let per_op x = Bstat.ratio x (float_of_int tr.ops) in
      ( ph,
        Some
          ( tr,
            List.fold_left
              (fun acc n -> acc +. Spans.self_of selfs n)
              0.0 layer_spans
          ),
        List.map2
          (fun name span -> m name "s" (per_op (Spans.self_of selfs span)))
          [ "parser.self_s"; "opt.hoist.self_s"; "remap.gr_build.self_s";
            "opt.remove_useless.self_s"; "codegen.self_s" ]
          layer_spans
        @ Array.to_list
            (Array.mapi
               (fun i name ->
                 m name "count/op"
                   (Bstat.ratio tracer.counts.(i)
                      (float_of_int tracer.counted)))
               counts_names)
        @ gc_metrics ~ops:ph.ops gc,
        [] )
  in
  let summary (p : phase) =
    Runner.phase ~ops:p.ops ~failed:p.failed ~busy:p.busy
      ~mean_op:(Bstat.ratio p.busy (float_of_int p.ops))
  in
  Runner.finish ~untraced:(summary ph)
    ~traced:(Option.map (fun (tr, layer_s) -> (summary tr, layer_s)) traced)
    ~final_ok:true
    ~info:
      ([
         ("pool_programs", string_of_int (Array.length pool));
         ("tiny_runs_checked", string_of_int ph.runs_checked);
       ]
      @ timing_info)
    metrics
    (Runner.repeat_after mode setup_times ~build:warm ~teardown:ignore)
