(** Interpreter: executes compiled routines (original control flow + the
    generated copy-management code) on the simulated machine.

    Every array reference goes through its statically tagged copy version,
    checked against the run-time status word — a mismatch means the
    compiler mismanaged mappings and raises [Runtime_fault], so every
    end-to-end run doubles as a correctness oracle.  Values derived from
    undefined data (KILL, unwritten intent(out)) are taint-tracked so the
    differential tests compare only program-defined results. *)

type value = VInt of int | VFloat of float

val to_float : value -> float

(** @raise Hpfc_base.Error.Hpf_error on a non-integral float. *)
val to_int : value -> int

val truthy : value -> bool

(** A compiled program: one generated routine per subroutine. *)
type program = {
  compiled : (string, Hpfc_codegen.Gen.routine) Hashtbl.t;
  share_live_args : bool;
      (** the paper's "more advanced calling convention" (Sec. 2.2): live
          caller copies travel with the argument *)
}

type result = {
  machine : Hpfc_runtime.Machine.t;
  final_scalars : (string * value) list;  (** tainted scalars excluded *)
  final_arrays : (string * float array) list;
      (** payload of each array's current copy when the body finished *)
  final_defined : (string * bool array) list;
      (** which elements hold program-defined values *)
}

(** Compilation configuration: which passes and codegen refinements run. *)
type pipeline = {
  hoist : bool;  (** loop-invariant remapping motion *)
  remove_useless : bool;  (** Appendix C *)
  codegen : Hpfc_codegen.Gen.options;
  default_nprocs : int;
  share_live_args : bool;
      (** pass live copies along call arguments (Sec. 2.2, off by default) *)
}

(** Everything on. *)
val full_pipeline : pipeline

(** Copies between static versions, but no dataflow optimization — the
    baseline the benchmarks compare against. *)
val naive_pipeline : pipeline

(** A routine's optimized remapping graph, before code generation. *)
type optimized = {
  graph : Hpfc_remap.Graph.t;
  hoisted : int;  (** statements moved by loop-invariant motion *)
  remappings_before : int;
      (** {!Hpfc_remap.Graph.nb_remappings} before useless removal *)
  useless : Hpfc_opt.Remove_useless.stats;  (** zero when the pass is off *)
}

(** The pipeline's optimizing half: hoist, G_R, useless-remapping
    removal.  G_R is built once: the graph hoist settled on is reused
    when it built one.
    @raise Hpfc_base.Error.Hpf_error when the routine is rejected. *)
val optimize : pipeline -> Hpfc_lang.Ast.routine -> optimized

(** {!optimize}, then code generation. *)
val compile_routine : pipeline -> Hpfc_lang.Ast.routine -> Hpfc_codegen.Gen.routine

val compile : ?pipeline:pipeline -> Hpfc_lang.Ast.program -> program

(** Run [entry] with the given scalar bindings.  Dummy arguments are
    materialized with a deterministic fill (imported values) for
    in/inout.  [exec] is the execution configuration (default
    {!Hpfc_runtime.Exec.default}, the one the environment selects): the
    default machine takes its lowering; [backend] defaults to its
    backend.  [machine] replaces the default machine
    outright.  [executor] installs an alternative communication
    executor, shared by every frame of the call tree (e.g.
    [Hpfc_par.Par.executor] for the domain-parallel backend, which wants
    [backend = Distributed]); without one, a configuration asking for
    the parallel executor runs on one shared domain pool (sized by
    [HPFC_FORCE_PAR] when set) on per-rank payloads.  [plans] installs an
    external plan cache for the whole call tree (e.g. a service
    tenant's cache, or one sized by [--plan-cache]); when absent the
    root frame creates its own.
    @raise Hpfc_base.Error.Hpf_error on runtime faults or calls to
    unknown routines. *)
val run :
  ?machine:Hpfc_runtime.Machine.t ->
  ?exec:Hpfc_runtime.Exec.t ->
  ?record_trace:bool ->
  ?backend:Hpfc_runtime.Store.backend ->
  ?executor:Hpfc_runtime.Comm.executor ->
  ?plans:Hpfc_runtime.Redist.Plan_cache.t ->
  ?scalars:(string * value) list ->
  program ->
  entry:string ->
  unit ->
  result
