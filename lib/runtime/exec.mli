(** One execution configuration.

    A run is executed under five independent choices — store backend,
    executor, datapath, schedule and lowering — held in one immutable
    value, built at the edges (the CLI, the differential oracle, each
    serve tenant, {!of_env}) and read where it is used: the datapath and
    the lowering are fields of the {!Machine.t} a run owns, the async
    discipline is fixed when a parallel executor is built, and the
    backend when a store is.  Nothing here is process-global mutable
    state, so concurrent runs (serve tenants) may differ on every
    axis. *)

(** [Canonical] keeps one global payload per copy; [Distributed] one
    buffer per processor (see {!Store.backend}). *)
type backend = Canonical | Distributed

(** [Zero_copy] copies [Redist.Direct]-eligible messages payload to
    payload and stages the rest; [Staged] packs every cross-processor
    message into a pooled staging buffer; [Scalar] walks the
    per-element endpoint closures — the differential oracle. *)
type datapath = Zero_copy | Staged | Scalar

(** [Burst] and [Stepped] are the machine's accounting modes; [Async]
    is stepped accounting plus the dependency-driven parallel
    executor. *)
type sched = Burst | Stepped | Async

(** The point-to-point step program, the budget-sliced collective phase
    program, or a per-plan cost-model choice
    ({!Comm.collective_chosen}). *)
type lower = P2p | Collective | Auto

type t = {
  backend : backend;
  par : bool;  (** domain-parallel executor (requires [Distributed]) *)
  datapath : datapath;
  sched : sched;  (** [Async] requires [par] *)
  lower : lower;
}

(** canonical / seq / zerocopy / burst / p2p: the head of {!all}. *)
val reference : t

(** The oracle's differential matrix: the 33 valid configurations less
    burst/collective (which charges exactly like burst/p2p), in a fixed
    order, {!reference} first. *)
val all : t list

(** [backend/executor/datapath/sched/lower], e.g.
    ["distributed/par/staged/async/coll"]. *)
val name : t -> string

(** The inverse of {!name} (case-insensitive; the lowering also accepts
    ["collective"]).  A parallel canonical or a sequential async
    configuration is an error. *)
val of_string : string -> (t, string) result

(** The CLI's [--sched] vocabulary: [burst | stepped | async]. *)
val sched_name : sched -> string

val sched_of_string : string -> (sched, string) result

(** The CLI's [--lower] vocabulary: [p2p | collective | auto]; {!name}
    spells the collective lowering ["coll"], which parses too. *)
val lower_name : lower -> string

val lower_of_string : string -> (lower, string) result

(** The configuration the environment selects — the one reader of the
    [HPFC_FORCE_*] variables ([getenv] defaults to [Sys.getenv_opt];
    tests inject a lookup):

    - [HPFC_FORCE_PAR]: a positive integer (the team size) or ["auto"]
      selects the distributed backend and the parallel executor;
    - [HPFC_FORCE_ASYNC]: the async schedule (implies the executor);
    - [HPFC_FORCE_SCALAR] / [HPFC_FORCE_STAGED]: that datapath (setting
      both is a conflict);
    - [HPFC_FORCE_LOWER]: [p2p], [collective] or [auto].

    Unset, empty and ["0"] mean off.  The schedule is [Burst] unless
    async is forced; from this default only the executor discipline is
    read — a machine created without an accounting mode charges burst
    whatever the environment.
    @raise Hpfc_base.Error.Hpf_error ([Invalid_config]) naming the
    variable and its accepted spellings on any other value. *)
val of_env : ?getenv:(string -> string option) -> unit -> t

(** The team size [HPFC_FORCE_PAR] asks for ([None]: ["auto"] or off),
    from the same reader as {!of_env}. *)
val team_of_env : ?getenv:(string -> string option) -> unit -> int option

(** [of_env ()], read once per process: the datapath and lowering of a
    machine created without them, the discipline of a parallel executor
    built without [?async], and — through [par] — whether an
    interpreter run without an executor uses the shared domain pool. *)
val default : unit -> t

(** [team_of_env ()] from the same read as {!default}: that pool's
    size. *)
val default_team : unit -> int option
