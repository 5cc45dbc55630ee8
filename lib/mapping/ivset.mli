(** Integer interval sets over [\[0, extent)] with a compressed periodic
    form.

    Block-cyclic ownership repeats with period [k * p]; keeping it as
    (period, pattern) makes redistribution-set computation independent of
    the array extent — the core trick of the efficient block-cyclic
    redistribution algorithms (Prylli & Tourancheau). *)

type t =
  | Finite of (int * int) list
      (** sorted, disjoint, non-empty [\[lo, hi)] intervals *)
  | Periodic of { period : int; pattern : (int * int) list; extent : int }
      (** union over [j >= 0] of [pattern + j*period], clipped to
          [\[0, extent)]; [pattern] is sorted, disjoint, within
          [\[0, period)] *)

(** Total length of a sorted disjoint interval list. *)
val size_of_intervals : (int * int) list -> int

(** Number of set elements. *)
val cardinal : t -> int

(** Number of set elements strictly below [x]. *)
val count_below : t -> int -> int

(** Number of set elements in [\[lo, hi)]. *)
val count_in_range : t -> lo:int -> hi:int -> int

(** Merge adjacent or overlapping intervals of a sorted list. *)
val merge_adjacent : (int * int) list -> (int * int) list

(** Merge-walk intersection of two sorted disjoint interval lists; the
    third argument is a reversed accumulator (pass []). *)
val inter_intervals :
  (int * int) list -> (int * int) list -> (int * int) list -> (int * int) list

(** Materialize as a canonical (sorted, merged) interval list. *)
val to_intervals : t -> (int * int) list

(** Materialize as maximal [(start, length)] runs in ascending order.
    Within one run every index belongs to the set, so a dense local
    index advances by exactly one per element — the per-dimension
    building block of box-to-run compilation. *)
val to_runs : t -> (int * int) list

(** Cardinal of the intersection of two sets (over the smaller extent).
    Cost is O(combined period), independent of the extent when the periods
    are compatible. *)
val inter_cardinal : t -> t -> int

(** Semantic equality (same materialized set). *)
val equal_semantics : t -> t -> bool

val pp : Format.formatter -> t -> unit
