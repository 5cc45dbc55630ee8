(* End-to-end driver: parse -> remapping graph -> optimizations -> copy code
   -> (optionally) simulated execution, with a per-routine compile report.
   This is the library behind the hpfc CLI, the examples, and the bench
   harness. *)

open Hpfc_lang
module Graph = Hpfc_remap.Graph
module Version = Hpfc_remap.Version
module Gen = Hpfc_codegen.Gen
module I = Hpfc_interp.Interp
module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist

type compile_report = {
  routine : string;
  gr_vertices : int;
  gr_edges : int;
  versions : (string * int) list;  (* copies per array *)
  hoisted : int;
  removed : int;  (* useless remappings deleted (Appendix C) *)
  noops : int;  (* remappings turned into static no-ops *)
  remappings_before : int;  (* (vertex, array) remap label count pre-opt *)
  remappings_after : int;
}

(* Compile one routine under [pipeline] and report on it. *)
let analyze ?(pipeline = I.full_pipeline) (r : Ast.routine) :
    Gen.routine * compile_report =
  let o = I.optimize pipeline r in
  let g = o.I.graph in
  let after = Graph.nb_remappings g in
  let compiled = Gen.generate ~options:pipeline.I.codegen g in
  let versions =
    List.map
      (fun a -> (a, Version.count g.Graph.registry a))
      (Version.arrays g.Graph.registry)
  in
  ( compiled,
    {
      routine = r.Ast.r_name;
      gr_vertices = Graph.nb_vertices g;
      gr_edges = Graph.nb_edges g;
      versions;
      hoisted = o.I.hoisted;
      removed = o.I.useless.Hpfc_opt.Remove_useless.removed;
      noops = o.I.useless.Hpfc_opt.Remove_useless.noops;
      remappings_before = o.I.remappings_before;
      remappings_after = after;
    } )

let pp_report ppf (r : compile_report) =
  Fmt.pf ppf "routine %s:@." r.routine;
  Fmt.pf ppf "  G_R: %d vertices, %d edges@." r.gr_vertices r.gr_edges;
  Fmt.pf ppf "  copies: %a@."
    (Hpfc_base.Util.pp_list (fun ppf (a, n) -> Fmt.pf ppf "%s:%d" a n))
    r.versions;
  Fmt.pf ppf "  hoisted %d, removed %d useless + %d no-ops@." r.hoisted
    r.removed r.noops;
  Fmt.pf ppf "  remapping operations: %d -> %d@." r.remappings_before
    r.remappings_after

(* The CLI's [--plan-cache] vocabulary: a positive LRU capacity; a bad
   spelling is a cmdliner usage error rather than a crash mid-run. *)
let plan_cache_of_string s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some _ | None ->
    Error
      (Printf.sprintf
         "invalid plan-cache capacity %S, expected a positive integer" s)

(* Parse, compile and run a whole program from source. *)
let run_source ?(pipeline = I.full_pipeline) ?(scalars = []) ?entry ?backend
    ?executor ?machine ?exec ?record_trace ?plans ?plan_cache src : I.result =
  let prog = Hpfc_parser.Parser.parse_program src in
  let entry =
    match entry with
    | Some e -> e
    | None -> (List.hd prog.Ast.routines).Ast.r_name
  in
  let compiled = I.compile ~pipeline prog in
  let plans =
    match (plans, plan_cache) with
    | Some _, _ -> plans
    | None, Some capacity -> Some (Redist.Plan_cache.create ~capacity ())
    | None, None -> None
  in
  I.run ?machine ?exec ?record_trace ?backend ?executor ?plans compiled ~entry
    ~scalars ()

(* Compare the naive and the fully optimized pipeline on the same program;
   used by every Q experiment. *)
type comparison = {
  naive : I.result;
  optimized : I.result;
  values_agree : bool;
}

let compare_pipelines ?(scalars = []) ?entry ?exec src : comparison =
  (* each leg runs on its own fresh machine (and plan cache): counters
     cannot leak between the naive and the optimized run *)
  let naive =
    run_source ~pipeline:I.naive_pipeline ~scalars ?entry ?exec src
  in
  let optimized =
    run_source ~pipeline:I.full_pipeline ~scalars ?entry ?exec src
  in
  (* compare only program-defined elements: copies of killed or
     never-written data legitimately differ between compilations *)
  let values_agree =
    List.for_all
      (fun (n, a1) ->
        match
          (List.assoc_opt n optimized.I.final_arrays,
           List.assoc_opt n naive.I.final_defined)
        with
        | Some a2, Some mask ->
          Array.for_all (fun x -> x)
            (Array.mapi (fun i def -> (not def) || a1.(i) = a2.(i)) mask)
        | Some a2, None -> a1 = a2
        | None, _ -> true (* never materialized: never referenced *))
      naive.I.final_arrays
  in
  { naive; optimized; values_agree }

let pp_comparison ppf (c : comparison) =
  let n = c.naive.I.machine.Machine.counters
  and o = c.optimized.I.machine.Machine.counters in
  Fmt.pf ppf
    "          %12s %12s@.remaps    %12d %12d@.skipped   %12d %12d@.reuses   \
     %12d %12d@.messages  %12d %12d@.volume    %12d %12d@.plan h/m  %7d/%-4d \
     %7d/%-4d@.blits     %12d %12d@.zerocopy  %12d %12d@.staged B  %12d \
     %12d@.peak B    %12d %12d@.pool h/m  %7d/%-4d %7d/%-4d@.time      %12.1f \
     %12.1f@."
    "naive" "optimized" n.Machine.remaps_performed o.Machine.remaps_performed
    n.Machine.remaps_skipped o.Machine.remaps_skipped n.Machine.live_reuses
    o.Machine.live_reuses n.Machine.messages o.Machine.messages
    n.Machine.volume o.Machine.volume n.Machine.plan_hits
    n.Machine.plan_misses o.Machine.plan_hits o.Machine.plan_misses
    n.Machine.run_blits o.Machine.run_blits n.Machine.zero_copy_runs
    o.Machine.zero_copy_runs n.Machine.staged_bytes o.Machine.staged_bytes
    n.Machine.peak_bytes o.Machine.peak_bytes n.Machine.pool_hits
    n.Machine.pool_misses o.Machine.pool_hits o.Machine.pool_misses
    n.Machine.time o.Machine.time;
  Fmt.pf ppf "steps     %12d %12d@.peak/step %12d %12d@." n.Machine.steps
    o.Machine.steps n.Machine.peak_step_volume o.Machine.peak_step_volume;
  Fmt.pf ppf "values    %s@." (if c.values_agree then "agree" else "DIFFER")
