(** Concrete element-to-processor layout of one array under one mapping:
    the alignment (array index -> template cell) composed with the
    distribution (cell -> grid coordinate), in closed form.

    Global array indices are 0-based throughout. *)

type fmt = FBlock of int | FCyclic of int  (** resolved formats *)

(** How the grid coordinate along one grid dimension is determined. *)
type source =
  | From_axis of {
      array_dim : int;
      stride : int;
      offset : int;
      fmt : fmt;
      textent : int;
    }  (** driven by an array dimension through the alignment *)
  | From_const of int  (** constant alignment: a fixed grid coordinate *)
  | Replicated  (** a copy at every coordinate along this grid dimension *)

type dim_role =
  | Local  (** collapsed array dim: fully present on every owner *)
  | Dist of int  (** this array dim drives grid dimension [pdim] *)

type t = {
  extents : int array;
  procs : Procs.t;
  sources : source array;  (** indexed by grid dimension *)
  roles : dim_role array;  (** indexed by array dimension *)
}

(** Compile a mapping into a layout; validates the alignment and checks
    that block sizes cover the template.
    @raise Hpfc_base.Error.Hpf_error on ill-formed mappings. *)
val of_mapping : extents:int array -> Mapping.t -> t

val rank : t -> int
val nb_elements : t -> int

(** Grid coordinate owning a template cell. *)
val owner_of_cell : nprocs:int -> fmt -> int -> int

(** Canonical owner coordinates of an element (replicated dims get 0).
    Reference specification: the runtime addresses elements through
    {!Addr.owner_rank}, which the tests check against this. *)
val owner : t -> int array -> int array

(** All owner coordinates (expands replication).  Reference
    specification of {!Addr.owner_rank} plus {!Addr.replicas}. *)
val owners : t -> int array -> int array list

(** Does processor [proc] hold this element? *)
val is_owner : t -> proc:int array -> int array -> bool

(** Template-cell intervals [\[lo, hi)] owned by one grid coordinate. *)
val owned_cell_intervals :
  nprocs:int -> textent:int -> fmt -> int -> (int * int) list

(** Array-index interval whose alignment image falls in a cell interval. *)
val preimage_interval :
  stride:int -> offset:int -> extent:int -> int * int -> (int * int) option

(** Array-index intervals along [array_dim] owned by [coord] (canonical:
    sorted and merged). *)
val owned_intervals : t -> array_dim:int -> coord:int -> (int * int) list

(** Owned indices along [array_dim] for [coord] in the compressed periodic
    representation ({!Ivset.t}); makes redistribution-set computation
    independent of the extent. *)
val owned_set : t -> array_dim:int -> coord:int -> Ivset.t

(** [Some p] when the owned sets along [array_dim] are [Periodic] with
    period [p] (cyclic ownership whose x-period is below the extent),
    else [None]. *)
val x_period : t -> array_dim:int -> int option

(** Dense local index along one dimension (count of owned indices below).
    Reference specification of {!Addr.index_along}. *)
val local_index_along : t -> array_dim:int -> int -> int

(** Dense local index vector of an element on its owner (reference
    specification). *)
val local_index : t -> int array -> int array

(** Per-dimension counts of owned indices for [proc]; all zero for a
    processor off a constant-aligned coordinate. *)
val local_extents : t -> proc:int array -> int array

(** Local allocation size (product of {!local_extents}). *)
val local_size : t -> proc:int array -> int

(** Row-major position of an element inside its owner's local allocation.
    Reference specification of {!Addr.offset}, the address computation
    the runtime performs; this one rebuilds owned sets per call. *)
val local_linear_index : t -> int array -> int

(** Row-major linear position of [index] in an array with [extents]: the
    single global address computation shared by payload accessors and the
    communication executor. *)
val global_linear_index : int array -> int array -> int

(** One layout's element addressing, compiled once so that each access
    costs O(rank) integer operations and table lookups and allocates
    nothing: the local addressing the generated SPMD code performs.
    Per array dimension it keeps the owner coordinate and dense local
    index in closed form (block: one division; cyclic(k): a table over
    min(x-period, extent) indices, so O(x-period) memory per periodic
    dimension and never O(product of extents)), each coordinate's local
    extent, the linear-rank share of constant grid dimensions and the
    rank offsets of the replicas.  Immutable once built, so domains may
    share it. *)
module Addr : sig
  type layout := t
  type t

  val make : layout -> t
  val layout : t -> layout

  (** Linear rank of the canonical owner: [Procs.linearize procs (owner
      layout index)]. *)
  val owner_rank : t -> int array -> int

  (** Linear-rank offsets from {!owner_rank} of every replica, [0]
      first (one entry without replicated grid dimensions).  Shared:
      do not mutate. *)
  val replicas : t -> int array

  (** Row-major position of an element in any owner's local allocation:
      [local_linear_index layout index]. *)
  val offset : t -> int array -> int

  (** Number of indices below [x] along array dimension [dim] owned by
      grid coordinate [coord] (the coordinate of the grid dimension
      [dim] drives; ignored for a collapsed dimension).  Exact when
      [coord] owns [x], or when [dim] is cyclic and [x] is a multiple of
      its x-period; otherwise unspecified. *)
  val index_along : t -> dim:int -> coord:int -> int -> int

  (** [local_extents layout ~proc]. *)
  val local_extents : t -> proc:int array -> int array
end

val equal_source : source -> source -> bool

(** Layout equivalence: identical element-to-processor function (grid
    names irrelevant, shapes significant). *)
val equal : t -> t -> bool

val pp_fmt : Format.formatter -> fmt -> unit
val pp_source : Format.formatter -> source -> unit
val pp : Format.formatter -> t -> unit

(** Layout equivalence directly on mappings. *)
val equiv_mappings : extents:int array -> Mapping.t -> Mapping.t -> bool
