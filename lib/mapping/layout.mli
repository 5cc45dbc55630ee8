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

(** Canonical owner coordinates of an element (replicated dims get 0). *)
val owner : t -> int array -> int array

(** All owner coordinates (expands replication). *)
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

(** Dense local index along one dimension (count of owned indices below). *)
val local_index_along : t -> array_dim:int -> int -> int

(** Dense local index vector of an element on its owner. *)
val local_index : t -> int array -> int array

(** Per-dimension counts of owned indices for [proc]; all zero for a
    processor off a constant-aligned coordinate. *)
val local_extents : t -> proc:int array -> int array

(** Local allocation size (product of {!local_extents}). *)
val local_size : t -> proc:int array -> int

(** Row-major position of an element inside its owner's local allocation —
    the address computation of the generated SPMD code. *)
val local_linear_index : t -> int array -> int

(** Row-major linear position of [index] in an array with [extents]: the
    single global address computation shared by payload accessors and the
    communication executor. *)
val global_linear_index : int array -> int array -> int

val equal_source : source -> source -> bool

(** Layout equivalence: identical element-to-processor function (grid
    names irrelevant, shapes significant). *)
val equal : t -> t -> bool

val pp_fmt : Format.formatter -> fmt -> unit
val pp_source : Format.formatter -> source -> unit
val pp : Format.formatter -> t -> unit

(** Layout equivalence directly on mappings. *)
val equiv_mappings : extents:int array -> Mapping.t -> Mapping.t -> bool
