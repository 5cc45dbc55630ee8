(* hpfc — compile and simulate mini-HPF programs with dynamic mappings.

     hpfc compile FILE [--naive] [--dump-gr] [--dump-gr-opt] [--dump-code]
     hpfc run FILE [--entry NAME] [-s x=3] [--naive] [--compare]
     hpfc serve FILE --tenants=N [--lower=MODE] [--plan-cache=N] [--check]
     hpfc figures [ID]

   See README.md for the language. *)

open Cmdliner
module I = Hpfc_interp.Interp
module Machine = Hpfc_runtime.Machine
module Exec = Hpfc_runtime.Exec

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let handle f =
  try f () with
  | Hpfc_base.Error.Hpf_error _ as e ->
    Fmt.epr "hpfc: %s@." (Hpfc_base.Error.to_string e);
    exit 1

(* --- compile ---------------------------------------------------------------- *)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"mini-HPF source file")

let naive_flag =
  Arg.(value & flag & info [ "naive" ] ~doc:"Disable all remapping optimizations.")

let pipeline_of_naive naive =
  if naive then I.naive_pipeline else I.full_pipeline

let plan_cache_conv =
  let parse s =
    Result.map_error
      (fun e -> `Msg e)
      (Hpfc_driver.Pipeline.plan_cache_of_string s)
  in
  Arg.conv (parse, Fmt.int)

let plan_cache_arg =
  Arg.(
    value
    & opt (some plan_cache_conv) None
    & info [ "plan-cache" ] ~docv:"N"
        ~doc:
          "LRU capacity of the remapping plan cache (positive; default \
           512).")

(* The execution-configuration vocabularies ([Exec]'s), shared by every
   command that takes them. *)
let exec_conv of_string name =
  let parse s = Result.map_error (fun e -> `Msg e) (of_string s) in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (name v))

let lower_conv = exec_conv Exec.lower_of_string Exec.lower_name

(* The run's execution configuration: the environment's
   ([Exec.default]) with the command-line choices on top.  The parallel
   executor implies per-rank payloads (what the workers may touch
   race-free). *)
let exec_of_flags ?(distributed = false) ?(par = false) ~lower () =
  let d = Exec.default () in
  let par = par || d.Exec.par in
  {
    Exec.backend =
      (if distributed || par then Exec.Distributed else Exec.Canonical);
    par;
    lower = Option.value lower ~default:d.Exec.lower;
  }

let lower_arg =
  Arg.(
    value
    & opt (some lower_conv) None
    & info [ "lower" ] ~docv:"MODE"
        ~doc:
          "Lowering of cross-processor traffic: $(b,p2p) (default) executes \
           the contention-free point-to-point step program; \
           $(b,collective) compiles the plan to a short sequence of portable \
           collective phases (ring shift classes, budget-bounded slices) \
           with peak staging memory at or below the p2p peak; $(b,auto) \
           picks per plan from the cost model.")

let compile_cmd =
  let dump_gr = Arg.(value & flag & info [ "dump-gr" ] ~doc:"Print the remapping graph before optimization.") in
  let dump_gr_opt = Arg.(value & flag & info [ "dump-gr-opt" ] ~doc:"Print the remapping graph after optimization.") in
  let dump_code = Arg.(value & flag & info [ "dump-code" ] ~doc:"Print the generated static program with copy code.") in
  let dump_dot = Arg.(value & flag & info [ "dot" ] ~doc:"Print the optimized remapping graph in Graphviz format.") in
  let run file naive dump_gr' dump_gr_opt' dump_code' dump_dot' =
    handle (fun () ->
        let src = read_file file in
        let prog = Hpfc_parser.Parser.parse_program src in
        List.iter
          (fun (r : Hpfc_lang.Ast.routine) ->
            let compiled, report =
              Hpfc_driver.Pipeline.analyze ~pipeline:(pipeline_of_naive naive) r
            in
            Fmt.pr "%a" Hpfc_driver.Pipeline.pp_report report;
            if dump_gr' then begin
              let g = Hpfc_remap.Construct.build r in
              Fmt.pr "--- remapping graph (before optimization) ---@.%a"
                Hpfc_remap.Graph.pp g
            end;
            if dump_gr_opt' then
              Fmt.pr "--- remapping graph (after optimization) ---@.%a"
                Hpfc_remap.Graph.pp compiled.Hpfc_codegen.Gen.graph;
            if dump_code' then
              Fmt.pr "--- generated code ---@.%a" Hpfc_codegen.Gen.pp_routine
                compiled;
            if dump_dot' then
              Fmt.pr "%a" Hpfc_remap.Graph.pp_dot
                compiled.Hpfc_codegen.Gen.graph)
          prog.Hpfc_lang.Ast.routines)
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Analyze and compile a mini-HPF program.")
    Term.(const run $ file_arg $ naive_flag $ dump_gr $ dump_gr_opt $ dump_code $ dump_dot)

(* --- run --------------------------------------------------------------------- *)

let scalar_assignments =
  let parse s =
    match String.index_opt s '=' with
    | Some i ->
      let name = String.sub s 0 i
      and v = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt v with
      | Some n -> Ok (name, I.VInt n)
      | None -> (
        match float_of_string_opt v with
        | Some f -> Ok (name, I.VFloat f)
        | None -> Error (`Msg "expected name=int-or-float")))
    | None -> Error (`Msg "expected name=value")
  in
  let print ppf (n, v) =
    Fmt.pf ppf "%s=%s" n
      (match v with I.VInt i -> string_of_int i | I.VFloat f -> string_of_float f)
  in
  Arg.conv (parse, print)

let run_cmd =
  let entry = Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"NAME" ~doc:"Entry routine (default: first).") in
  let distributed = Arg.(value & flag & info [ "distributed" ] ~doc:"Execute with per-processor local buffers instead of canonical global payloads.") in
  let par = Arg.(value & opt ~vopt:(Some "auto") (some string) None & info [ "par" ] ~docv:"N" ~doc:"Execute remappings for real on a pool of OCaml domains (implies --distributed): one worker per core by default, or N workers; ranks multiplex onto the pool.  Measured per-step wall-clock lands in the trace next to the modeled times.") in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Dump the structured event timeline as JSON lines on stdout (remap begin/end, plan cache probes, step boundaries, messages, evictions); counters and scalars go to stderr.") in
  let scalars = Arg.(value & opt_all scalar_assignments [] & info [ "s"; "set" ] ~docv:"X=V" ~doc:"Set a scalar before execution.") in
  let compare = Arg.(value & flag & info [ "compare" ] ~doc:"Run the naive and the optimized compilations and compare; exit 1 if their values differ.") in
  let compare_lex (a, _) (b, _) = Stdlib.compare a b in
  let run file naive entry scalars compare distributed par trace lower
      plan_cache =
    handle (fun () ->
        let exec = exec_of_flags ~distributed ~par:(par <> None) ~lower () in
        let src = read_file file in
        if compare then begin
          let c =
            Hpfc_driver.Pipeline.compare_pipelines ~scalars ?entry ~exec src
          in
          Fmt.pr "%a" Hpfc_driver.Pipeline.pp_comparison c;
          if not c.Hpfc_driver.Pipeline.values_agree then exit 1
        end
        else begin
          let pool =
            Option.map
              (fun spec ->
                let ndomains =
                  match int_of_string_opt spec with
                  | Some n when n > 0 -> Some n
                  | Some _ -> None
                  | None when spec = "auto" -> None
                  | None ->
                    Fmt.epr "hpfc: --par expects an integer or 'auto'@.";
                    exit 2
                in
                Hpfc_par.Par.create ?ndomains ())
              par
          in
          let machine =
            Machine.create ~nprocs:4 ~lower:exec.Exec.lower
              ~record_trace:trace ()
          in
          let finally () = Option.iter Hpfc_par.Par.destroy pool in
          let r =
            Fun.protect ~finally (fun () ->
                Hpfc_driver.Pipeline.run_source
                  ~pipeline:(pipeline_of_naive naive) ~scalars ?entry ~exec
                  ?executor:(Option.map Hpfc_par.Par.executor pool)
                  ~machine ?plan_cache src)
          in
          (* with --trace, stdout is a pure JSON-lines stream (one event
             per line, closed by a summary line); the human-readable
             summary moves to stderr *)
          let report = if trace then Fmt.epr else Fmt.pr in
          if trace then begin
            List.iter
              (fun e -> print_endline (Machine.event_to_json e))
              (Machine.events r.I.machine);
            print_endline (Machine.trace_summary_json r.I.machine);
            if Machine.dropped_events r.I.machine > 0 then
              Fmt.epr
                "trace: warning: ring buffer overflowed, the %d oldest \
                 events were dropped — the dump above is incomplete@."
                (Machine.dropped_events r.I.machine)
          end;
          Option.iter
            (fun p ->
              report "par: %d worker domains, measured wall %.3f ms@."
                (Hpfc_par.Par.ndomains p)
                (r.I.machine.Machine.counters.Machine.wall_time *. 1e3))
            pool;
          report "%a@." Machine.pp_counters r.I.machine.Machine.counters;
          List.iter
            (fun (n, v) ->
              report "%s = %s@." n
                (match v with
                | I.VInt i -> string_of_int i
                | I.VFloat f -> Fmt.str "%g" f))
            (List.sort compare_lex r.I.final_scalars)
        end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the simulated machine.")
    Term.(const run $ file_arg $ naive_flag $ entry $ scalars $ compare $ distributed $ par $ trace $ lower_arg $ plan_cache_arg)

(* --- serve -------------------------------------------------------------------- *)

(* Replay one workload program as N concurrent tenant streams through the
   multi-tenant remap service: every tenant interprets the program with
   its remappings delegated to the shared service ([Serve.executor]), its
   plans looked up through its private cache chained to the shared
   sharded cache.  [--check] additionally replays each tenant's stream
   alone through the sequential executor and verifies values and
   (scrubbed) counters are identical. *)
let serve_cmd =
  let module Serve = Hpfc_serve.Serve in
  let entry = Arg.(value & opt (some string) None & info [ "entry" ] ~docv:"NAME" ~doc:"Entry routine (default: first).") in
  let scalars = Arg.(value & opt_all scalar_assignments [] & info [ "s"; "set" ] ~docv:"X=V" ~doc:"Set a scalar before execution.") in
  let tenants = Arg.(value & opt int 4 & info [ "tenants" ] ~docv:"N" ~doc:"Number of concurrent tenant streams.") in
  let workers = Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N" ~doc:"Service worker domains (default: one per tenant, capped by cores).") in
  let repeat = Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R" ~doc:"Replay the workload R times per tenant (plans stay cached across replays).") in
  let window = Arg.(value & opt int 8 & info [ "window" ] ~docv:"W" ~doc:"Per-tenant admission window (max queued requests).") in
  let quantum = Arg.(value & opt int 1 & info [ "quantum" ] ~docv:"Q" ~doc:"Deficit-round-robin quantum of the dispatcher.") in
  let no_fusion = Arg.(value & flag & info [ "no-fusion" ] ~doc:"Disable remap fusion: every request executes as its own batch.") in
  let check = Arg.(value & flag & info [ "check" ] ~doc:"Also replay each tenant solo through the sequential executor and verify values and modeled counters are identical.") in
  let run file naive entry scalars tenants workers repeat window quantum
      no_fusion check lower plan_cache =
    handle (fun () ->
        if tenants < 1 then begin
          Fmt.epr "hpfc: --tenants expects a positive integer@.";
          exit 2
        end;
        (* every tenant machine — and the --check solo replays — runs
           this one configuration *)
        let exec = exec_of_flags ~lower () in
        let src = read_file file in
        let pipeline = pipeline_of_naive naive in
        let svc =
          Serve.create ~tenants ~window ~quantum ~fusion:(not no_fusion)
            ?workers ?cache_capacity:plan_cache ()
        in
        let replay ~executor ~plans =
          (* one tenant stream: R replays on one machine, plans cached
             across replays *)
          let machine = Machine.create ~nprocs:4 ~lower:exec.Exec.lower () in
          let last = ref None in
          for _ = 1 to repeat do
            last :=
              Some
                (Hpfc_driver.Pipeline.run_source ~pipeline ~scalars ?entry
                   ~backend:exec.Exec.backend ~executor ~machine ~plans src)
          done;
          (machine, Option.get !last)
        in
        let t0 = Unix.gettimeofday () in
        let doms =
          List.init tenants (fun i ->
              Domain.spawn (fun () ->
                  try
                    Ok
                      (replay
                         ~executor:(Serve.executor svc ~tenant:i)
                         ~plans:(Serve.tenant_cache svc i))
                  with e -> Error e))
        in
        let results =
          List.map
            (fun d -> match Domain.join d with Ok r -> r | Error e -> raise e)
            doms
        in
        let wall = Unix.gettimeofday () -. t0 in
        let stats = Serve.shutdown svc in
        List.iteri
          (fun i ((m : Machine.t), _) ->
            Fmt.pr "tenant %d: %a@." i Machine.pp_counters
              m.Machine.counters)
          results;
        let lat = stats.Serve.latencies in
        Array.sort compare lat;
        let pct p =
          let n = Array.length lat in
          if n = 0 then 0.0
          else lat.(min (n - 1) (int_of_float (float_of_int n *. p)))
        in
        Fmt.pr
          "serve: %d tenants, %d workers | %d requests in %d batches (%d \
           fused batches, %d fused remaps) | %.3f s wall, %.0f requests/s | \
           latency p50 %.3f ms, p99 %.3f ms@."
          tenants (Serve.config svc).Serve.workers stats.Serve.requests
          stats.Serve.batches stats.Serve.fused_batches
          stats.Serve.fused_members wall
          (float_of_int stats.Serve.requests /. Float.max wall 1e-9)
          (pct 0.50 *. 1e3) (pct 0.99 *. 1e3);
        if check then begin
          (* solo replay: same stream, sequential executor, private
             cache of the same capacity — the correctness bar says the
             serve-side values and modeled counters must match byte for
             byte (a tenant and its replay share every configuration
             axis) *)
          let scrubbed (m : Machine.t) =
            Machine.scrub ~varying:[] (Machine.snapshot_counters m)
          in
          let solo_exec : Hpfc_runtime.Comm.executor =
           fun mach ~src ~dst plan -> Hpfc_runtime.Comm.execute mach ~src ~dst plan
          in
          let failures = ref 0 in
          List.iteri
            (fun i ((m : Machine.t), (r : I.result)) ->
              let solo_m, solo_r =
                replay ~executor:solo_exec
                  ~plans:(Hpfc_runtime.Redist.Plan_cache.create
                            ?capacity:plan_cache ())
              in
              let values_ok =
                r.I.final_scalars = solo_r.I.final_scalars
                && r.I.final_arrays = solo_r.I.final_arrays
              in
              let counters_ok = scrubbed m = scrubbed solo_m in
              if not (values_ok && counters_ok) then incr failures;
              Fmt.pr "check: tenant %d values %s, counters %s@." i
                (if values_ok then "agree" else "DIFFER")
                (if counters_ok then "agree" else "DIFFER"))
            results;
          if !failures > 0 then exit 1
        end)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Replay a workload as N concurrent tenant streams through the \
          multi-tenant remap service.")
    Term.(const run $ file_arg $ naive_flag $ entry $ scalars $ tenants $ workers $ repeat $ window $ quantum $ no_fusion $ check $ lower_arg $ plan_cache_arg)

(* --- schedule ------------------------------------------------------------------ *)

let dist_format_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    let num name =
      match String.index_opt s ':' with
      | Some i -> (
        match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
        | Some k -> Ok k
        | None -> Error (`Msg ("bad " ^ name ^ " size")))
      | None -> Ok 1
    in
    if s = "block" then Ok Hpfc_mapping.Dist.block
    else if s = "cyclic" then Ok Hpfc_mapping.Dist.cyclic
    else if s = "star" || s = "*" then Ok Hpfc_mapping.Dist.star
    else if String.length s > 6 && String.sub s 0 6 = "block:" then
      Result.map (fun k -> Hpfc_mapping.Dist.block_sized k) (num "block")
    else if String.length s > 7 && String.sub s 0 7 = "cyclic:" then
      Result.map (fun k -> Hpfc_mapping.Dist.cyclic_sized k) (num "cyclic")
    else Error (`Msg "expected block[:k] | cyclic[:k] | star")
  in
  Arg.conv (parse, Hpfc_mapping.Dist.pp)

let schedule_cmd =
  let src = Arg.(required & pos 0 (some (list dist_format_conv)) None & info [] ~docv:"SRC" ~doc:"Source distribution, one format per dimension (e.g. block,star).") in
  let dst = Arg.(required & pos 1 (some (list dist_format_conv)) None & info [] ~docv:"DST" ~doc:"Target distribution.") in
  let extents = Arg.(value & opt (list int) [ 16 ] & info [ "n" ] ~docv:"N,N" ~doc:"Array extents.") in
  let nprocs = Arg.(value & opt int 4 & info [ "p" ] ~docv:"P" ~doc:"Number of processors (linear grid).") in
  let steps = Arg.(value & flag & info [ "steps" ] ~doc:"Also print the contention-free step decomposition, its stepped modeled time and the critical-path lower bound.") in
  let phases = Arg.(value & flag & info [ "phases" ] ~doc:"Also print the collective phase program (ring shift classes, budget-bounded slices) with its modeled time and peak staging volume.") in
  let run src dst extents nprocs steps phases =
    handle (fun () ->
        let mk dists =
          Hpfc_mapping.Layout.of_mapping ~extents:(Array.of_list extents)
            (Hpfc_mapping.Mapping.direct ~array_name:"a"
               ~extents:(Array.of_list extents)
               ~dist:(Array.of_list dists)
               ~procs:(Hpfc_mapping.Procs.linear "P" nprocs))
        in
        let s = mk src and d = mk dst in
        let plan = Hpfc_runtime.Redist.plan_intervals ~src:s ~dst:d in
        Fmt.pr "%a@." Hpfc_runtime.Redist.pp plan;
        Fmt.pr "%a" Hpfc_runtime.Redist.pp_moves plan;
        if steps then begin
          Fmt.pr "%a" Hpfc_runtime.Redist.pp_steps plan;
          let cost = Machine.default_cost in
          let prog = Hpfc_runtime.Redist.step_program plan in
          Fmt.pr "critical-path bound %.1f | stepped time %.1f in %d steps, \
                  peak %d elements/step@."
            (Hpfc_runtime.Redist.modeled_time cost plan)
            (Hpfc_runtime.Redist.modeled_time_of_steps cost prog)
            (List.length prog)
            (Hpfc_runtime.Redist.peak_step_volume prog)
        end;
        if phases then begin
          Fmt.pr "%a" Hpfc_runtime.Redist.pp_phases plan;
          let cost = Machine.default_cost in
          let cp = Hpfc_runtime.Redist.collective_program plan in
          Fmt.pr
            "collective (%s) time %.1f in %d phases (%d slices), peak %d \
             elements/phase@."
            (Hpfc_runtime.Redist.phase_kind_name cp.Hpfc_runtime.Redist.c_kind)
            (Hpfc_runtime.Redist.modeled_time_of_phases cost cp)
            (Hpfc_runtime.Redist.nb_phases cp)
            (Hpfc_runtime.Redist.nb_slices cp)
            (Hpfc_runtime.Redist.peak_collective_volume plan)
        end)
  in
  Cmd.v
    (Cmd.info "schedule"
       ~doc:"Print the per-processor message schedule of a redistribution.")
    Term.(const run $ src $ dst $ extents $ nprocs $ steps $ phases)

(* --- figures ------------------------------------------------------------------ *)

let figures_cmd =
  let id = Arg.(value & pos 0 (some string) None & info [] ~docv:"ID" ~doc:"Figure id (fig1, fig11, ...).") in
  let run id =
    handle (fun () ->
        let reports = Hpfc_driver.Report.figure_reports () in
        match id with
        | None -> Fmt.pr "%a" Hpfc_driver.Report.pp_all ()
        | Some id -> (
          match List.find_opt (fun (i, _, _) -> i = id) reports with
          | Some (i, claim, text) -> Fmt.pr "=== %s: %s ===@.%s@." i claim text
          | None ->
            Fmt.epr "unknown figure %s; known: %a@." id
              (Hpfc_base.Util.pp_list Fmt.string)
              (List.map (fun (i, _, _) -> i) reports);
            exit 1))
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Reproduce the paper's figure artifacts.")
    Term.(const run $ id)

let () =
  let doc = "compiling dynamic HPF mappings with array copies (PPoPP'97)" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "hpfc" ~doc)
          [ compile_cmd; run_cmd; serve_cmd; figures_cmd; schedule_cmd ]))
