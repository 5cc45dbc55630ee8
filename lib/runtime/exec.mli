(** One execution configuration.

    A run is executed under three independent choices — store backend,
    executor and lowering — held in one immutable value, built at the
    edges (the CLI, the differential oracle, each serve tenant,
    {!of_env}) and read where it is used: the lowering is a field of the
    {!Machine.t} a run owns, and the backend is fixed when a store is
    built.  Nothing here is process-global mutable
    state, so concurrent runs (serve tenants) may differ on every axis.

    How data moves is not a choice: every message copies its compiled
    runs payload to payload, since all copies share one address space;
    what a runtime with one memory per rank would stage is billed, not
    performed ({!Redist.message_stages}).  Nor is how a run is charged:
    every run charges the rounds it executed — contention-free steps, or
    collective phases ({!Comm.charge}). *)

(** [Canonical] keeps one global payload per copy; [Distributed] one
    buffer per processor (see {!Store.backend}). *)
type backend = Canonical | Distributed

(** The point-to-point step program, the budget-sliced collective phase
    program, or a per-plan cost-model choice
    ({!Comm.collective_chosen}). *)
type lower = P2p | Collective | Auto

type t = {
  backend : backend;
  par : bool;  (** domain-parallel executor (requires [Distributed]) *)
  lower : lower;
}

(** The three axes by name, one constructor per field of {!t}: a
    counter's declared class ({!Machine.counter_class}) lists the axes
    that may move it. *)
type axis = Backend | Par | Lower

(** [agree axes a b]: [a] and [b] are equal on every axis of [axes]
    (vacuously true on []). *)
val agree : axis list -> t -> t -> bool

(** canonical / seq / p2p: the head of {!all}. *)
val reference : t

(** The oracle's differential matrix: the 6 valid configurations, in a
    fixed order, {!reference} first. *)
val all : t list

(** [backend/executor/lower], e.g. ["distributed/par/coll"]. *)
val name : t -> string

(** The inverse of {!name} (case-insensitive; the lowering also accepts
    ["collective"]).  A parallel canonical configuration is an error,
    and so is a four-field name from before the schedule field was
    deleted (third field [burst] or [stepped]): its message says the
    field was removed. *)
val of_string : string -> (t, string) result

(** The CLI's [--lower] vocabulary: [p2p | collective | auto]; {!name}
    spells the collective lowering ["coll"], which parses too. *)
val lower_name : lower -> string

val lower_of_string : string -> (lower, string) result

(** The configuration the environment selects — the one reader of the
    [HPFC_FORCE_*] variables ([getenv] defaults to [Sys.getenv_opt];
    tests inject a lookup):

    - [HPFC_FORCE_PAR]: a positive integer (the team size) or ["auto"]
      selects the distributed backend and the parallel executor;
    - [HPFC_FORCE_LOWER]: [p2p], [collective] or [auto].

    Unset, empty and ["0"] mean off.
    @raise Hpfc_base.Error.Hpf_error ([Invalid_config]) naming the
    variable and its accepted spellings on any other value, and naming
    the variable and what replaced it when one of the removed
    variables — [HPFC_FORCE_ASYNC], [HPFC_FORCE_SCALAR],
    [HPFC_FORCE_STAGED] — is set to anything else. *)
val of_env : ?getenv:(string -> string option) -> unit -> t

(** The team size [HPFC_FORCE_PAR] asks for ([None]: ["auto"] or off),
    from the same reader as {!of_env}. *)
val team_of_env : ?getenv:(string -> string option) -> unit -> int option

(** [of_env ()], read once per process: the lowering of a machine
    created without one and — through [par] — whether an
    interpreter run without an executor uses the shared domain pool. *)
val default : unit -> t

(** [team_of_env ()] from the same read as {!default}: that pool's
    size. *)
val default_team : unit -> int option
