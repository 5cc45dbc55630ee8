(** End-to-end driver: parse -> remapping graph -> optimizations -> copy
    code -> simulated execution, with per-routine compile reports and a
    naive-vs-optimized comparison used by the CLI, the examples and the
    bench harness. *)

type compile_report = {
  routine : string;
  gr_vertices : int;
  gr_edges : int;
  versions : (string * int) list;  (** copies per array *)
  hoisted : int;
  removed : int;  (** useless remappings deleted (Appendix C) *)
  noops : int;  (** remappings turned into static no-ops *)
  remappings_before : int;
  remappings_after : int;
}

(** Compile one routine under a pipeline; returns the generated code and
    the report. *)
val analyze :
  ?pipeline:Hpfc_interp.Interp.pipeline ->
  Hpfc_lang.Ast.routine ->
  Hpfc_codegen.Gen.routine * compile_report

val pp_report : Format.formatter -> compile_report -> unit

(** Parse a [--plan-cache] value: a positive LRU capacity.  Zero,
    negative and non-integer spellings get an error message (surfaced as
    a cmdliner usage error by the CLI). *)
val plan_cache_of_string : string -> (int, string) result

(** Parse, compile and run a whole program from source through
    {!Hpfc_interp.Interp.run}: [exec] is the execution configuration
    (default: the environment's), [record_trace] turns on the structured
    event trace of the default machine, [machine] replaces that machine,
    [executor] installs an alternative communication executor (e.g. the
    domain-parallel backend's), [plans] installs an external plan cache
    for the whole call tree, while [plan_cache] (ignored when [plans] is
    given) creates one with that LRU capacity. *)
val run_source :
  ?pipeline:Hpfc_interp.Interp.pipeline ->
  ?scalars:(string * Hpfc_interp.Interp.value) list ->
  ?entry:string ->
  ?backend:Hpfc_runtime.Store.backend ->
  ?executor:Hpfc_runtime.Comm.executor ->
  ?machine:Hpfc_runtime.Machine.t ->
  ?exec:Hpfc_runtime.Exec.t ->
  ?record_trace:bool ->
  ?plans:Hpfc_runtime.Redist.Plan_cache.t ->
  ?plan_cache:int ->
  string ->
  Hpfc_interp.Interp.result

type comparison = {
  naive : Hpfc_interp.Interp.result;
  optimized : Hpfc_interp.Interp.result;
  values_agree : bool;
      (** program-defined elements equal (undefined data may differ) *)
}

(** Run the naive and the fully optimized pipeline on the same program.
    Each leg gets its own fresh machine and plan cache, so counters never
    leak across legs. *)
val compare_pipelines :
  ?scalars:(string * Hpfc_interp.Interp.value) list ->
  ?entry:string ->
  ?exec:Hpfc_runtime.Exec.t ->
  string ->
  comparison

val pp_comparison : Format.formatter -> comparison -> unit
