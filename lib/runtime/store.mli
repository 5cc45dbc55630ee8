(** Run-time array store: per abstract array, its statically mapped
    copies, the current-version [status] word and per-copy [live] flags —
    the data structure of Sec. 5.1.  A copy's payload is one global
    row-major buffer or one buffer per processor (see {!backend}); every
    element access goes through the copy's compiled addresser
    ({!Hpfc_mapping.Layout.Addr}), built once at allocation.

    Under a machine memory limit, allocation evicts live non-current
    copies first (Sec. 5.2); the runtime regenerates them later with
    communication. *)

(** Two execution backends share every analysis and the generated code:
    [Canonical] keeps one global payload per copy; [Distributed] keeps one
    buffer per processor and addresses every element through the copy's
    {!Hpfc_mapping.Layout.Addr} (owner rank and local offset) — the
    address arithmetic of the generated SPMD code.  Their end-to-end
    equivalence validates the local-addressing algebra. *)
type backend = Exec.backend = Canonical | Distributed

type payload =
  | Global of Buf.t  (** canonical row-major payload *)
  | Locals of Buf.t array  (** per linear processor rank *)

type copy = {
  version : int;
  layout : Hpfc_mapping.Layout.t;
  addr : Hpfc_mapping.Layout.Addr.t;  (** [layout]'s compiled addressing *)
  payload : payload;  (** shared with the caller's copy for dummy args *)
  footprint : int;  (** sum of per-processor local sizes *)
}

(** Read/write one element through the payload (writes update every
    replica under a replicated layout).  Their address arithmetic
    allocates nothing; inlined (optimized builds), the float stays
    unboxed too. *)
val copy_get : copy -> int array -> float

val copy_set : copy -> int array -> float -> unit

(** How the communication executor touches this copy's storage: global
    payloads ignore the rank; local buffers address the given rank
    directly (a replicated target is written one replica per message).
    Besides the per-element closures, the endpoint exposes the raw
    payload buffers and their {!Redist.addressing} so the blit path can
    copy compiled runs directly. *)
val endpoint_of_copy : copy -> Comm.endpoint

(** Initialize a payload from a global-linear-position function. *)
val fill_copy : copy -> (int -> float) -> unit

(** Materialize as a canonical global array (result capture). *)
val to_global : copy -> float array

type descriptor = {
  name : string;
  extents : int array;
  mutable copies : copy option array;  (** indexed by version *)
  mutable status : int option;  (** current version *)
  mutable live : bool array;  (** per version: values valid *)
  mutable caller_versions : int list;
      (** versions whose storage belongs to the caller (the passed copy and
          any live copies shared under the advanced calling convention):
          freeing them here only clears the live flag *)
  defined : bool array;
      (** per element of the abstract array: holds a program-defined value
          (KILL and intent(out) leave elements undefined; writes define;
          the interpreter taints values derived from undefined reads) *)
}

type t = {
  machine : Machine.t;
  mutable descriptors : (string * descriptor) list;
  plans : Redist.Plan_cache.t;
      (** memoized plans, keyed by canonical layout pair; shared down the
          call tree *)
  backend : backend;
  executor : Comm.executor;
      (** how remapping plans are run against the payloads; the
          sequential {!Comm.execute} unless a parallel backend is
          installed *)
}

(** [plans] installs a shared plan cache (callee frames reuse the
    caller's); a fresh one is created otherwise.  [executor] installs an
    alternative communication executor (e.g. the domain-parallel
    backend); {!Comm.execute} otherwise. *)
val create :
  ?backend:backend ->
  ?executor:Comm.executor ->
  ?plans:Redist.Plan_cache.t ->
  Machine.t ->
  t

(** @raise Hpfc_base.Error.Hpf_error when the array has no descriptor. *)
val descriptor : t -> string -> descriptor

(** Register an array.  [caller_copy] installs a shared version-0 copy
    (argument passing); [defined] shares the definedness mask with the
    caller. *)
val add_descriptor :
  t ->
  name:string ->
  extents:int array ->
  nb_versions:int ->
  ?caller_copy:copy ->
  ?defined:bool array ->
  unit ->
  descriptor

val copy_exists : descriptor -> int -> bool

(** @raise Hpfc_base.Error.Hpf_error when unallocated. *)
val get_copy : descriptor -> int -> copy

val is_live : descriptor -> int -> bool

(** Set a copy's live flag.
    @raise Hpfc_base.Error.Hpf_error when marking an unallocated copy
    live. *)
val set_live : t -> descriptor -> int -> bool -> unit

(** Free a copy's memory and clear its live flag (caller-owned storage is
    kept, only marked dead). *)
val free : t -> descriptor -> int -> unit

(** Allocate a copy (no-op if present), evicting live non-current copies
    under memory pressure.
    @raise Hpfc_base.Error.Hpf_error when the limit cannot be met. *)
val alloc : t -> descriptor -> int -> Hpfc_mapping.Layout.t -> unit

(** Cached communication plan between two versions. *)
val plan_for : t -> descriptor -> src:int -> dst:int -> Redist.plan

(** The remapping copy A_dst := A_src of Fig. 19; [with_data = false] is
    the D case (allocation only, counted as a dead copy). *)
val copy_version : t -> descriptor -> src:int -> dst:int -> with_data:bool -> unit

val linear_index : int array -> int array -> int

(** Is the abstract element program-defined? *)
val defined_at : t -> name:string -> int array -> bool

(** Read through the current copy.
    @raise Hpfc_base.Error.Hpf_error when [version] is not current (a
    compiler bug caught at run time). *)
val read : t -> name:string -> version:int -> int array -> float

(** Write through the current copy; [defined = false] when the value was
    computed from undefined operands.
    @raise Hpfc_base.Error.Hpf_error when [version] is not current. *)
val write :
  ?defined:bool -> t -> name:string -> version:int -> int array -> float -> unit

val pp_descriptor : Format.formatter -> descriptor -> unit
