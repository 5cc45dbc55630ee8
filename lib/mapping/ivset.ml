(* Integer interval sets with a compressed periodic form.

   Block-cyclic ownership is periodic: the indices owned by one processor
   coordinate repeat with period k*p.  Representing them as (period,
   pattern) instead of materialized interval lists is what makes
   redistribution-set computation independent of the array size — the core
   trick of the efficient block-cyclic redistribution algorithms
   (Prylli & Tourancheau [19]).  All sets live in [0, extent). *)

type t =
  | Finite of (int * int) list
      (* sorted, disjoint, non-empty [lo, hi) intervals *)
  | Periodic of { period : int; pattern : (int * int) list; extent : int }
      (* union over j >= 0 of (pattern + j*period), clipped to [0, extent);
         pattern is sorted, disjoint, within [0, period) *)

let size_of_intervals ivs =
  List.fold_left (fun acc (lo, hi) -> acc + hi - lo) 0 ivs

(* Number of pattern elements strictly below [x] (0 <= x <= period). *)
let pattern_below pattern x =
  List.fold_left
    (fun acc (lo, hi) -> acc + max 0 (min hi x - lo))
    0 pattern

let cardinal = function
  | Finite ivs -> size_of_intervals ivs
  | Periodic { period; pattern; extent } ->
    let full = extent / period and rem = extent mod period in
    (full * size_of_intervals pattern) + pattern_below pattern rem

(* Count of the set's elements in [0, x). *)
let count_below t x =
  match t with
  | Finite ivs -> pattern_below ivs x
  | Periodic { period; pattern; extent } ->
    let x = min x extent in
    let full = x / period and rem = x mod period in
    (full * size_of_intervals pattern) + pattern_below pattern rem

let count_in_range t ~lo ~hi = count_below t hi - count_below t lo

(* Merge adjacent or overlapping intervals of a sorted list. *)
let rec merge_adjacent = function
  | (a1, b1) :: (a2, b2) :: rest when a2 <= b1 ->
    merge_adjacent ((a1, max b1 b2) :: rest)
  | iv :: rest -> iv :: merge_adjacent rest
  | [] -> []

(* Materialize as a canonical interval list (sorted, merged, clipped to
   [0, extent)). *)
let to_intervals = function
  | Finite ivs -> merge_adjacent ivs
  | Periodic { period; pattern; extent } ->
    let rec expand j acc =
      let base = j * period in
      if base >= extent then List.rev acc
      else
        let acc =
          List.fold_left
            (fun acc (lo, hi) ->
              let lo = base + lo and hi = min (base + hi) extent in
              if lo < hi then (lo, hi) :: acc else acc)
            acc pattern
        in
        expand (j + 1) acc
    in
    merge_adjacent (expand 0 [])

(* Merge-walk intersection of two sorted interval lists. *)
let rec inter_intervals l1 l2 acc =
  match (l1, l2) with
  | [], _ | _, [] -> List.rev acc
  | (a1, b1) :: t1, (a2, b2) :: t2 ->
    let lo = max a1 a2 and hi = min b1 b2 in
    let acc = if lo < hi then (lo, hi) :: acc else acc in
    if b1 < b2 then inter_intervals t1 l2 acc else inter_intervals l1 t2 acc

let rec inter_count_intervals l1 l2 acc =
  match (l1, l2) with
  | [], _ | _, [] -> acc
  | (a1, b1) :: t1, (a2, b2) :: t2 ->
    let acc = acc + max 0 (min b1 b2 - max a1 a2) in
    if b1 < b2 then inter_count_intervals t1 l2 acc else inter_count_intervals l1 t2 acc

(* Expand a periodic set over the window [0, w). *)
let expand_over w = function
  | Finite ivs -> List.filter_map (fun (lo, hi) -> if lo < w then Some (lo, min hi w) else None) ivs
  | Periodic _ as p -> (
    match p with
    | Periodic { period; pattern; extent } ->
      to_intervals (Periodic { period; pattern; extent = min w extent })
    | Finite _ -> assert false)

(* Cardinal of the intersection of two sets over a common extent. *)
let inter_cardinal t1 t2 =
  match (t1, t2) with
  | Finite l1, Finite l2 -> inter_count_intervals l1 l2 0
  | Finite l, (Periodic _ as p) | (Periodic _ as p), Finite l ->
    List.fold_left (fun acc (lo, hi) -> acc + count_in_range p ~lo ~hi) 0 l
  | ( Periodic { period = p1; extent = e1; _ },
      Periodic { period = p2; extent = e2; _ } ) ->
    let extent = min e1 e2 in
    let big = Hpfc_base.Util.lcm p1 p2 in
    if big >= extent || big <= 0 then
      (* combined period exceeds the extent: a single window suffices *)
      inter_count_intervals (expand_over extent t1) (expand_over extent t2) 0
    else begin
      (* one combined period, then scale and add the remainder window *)
      let w1 = expand_over big t1 and w2 = expand_over big t2 in
      let joint = inter_intervals w1 w2 [] in
      let full = extent / big and rem = extent mod big in
      (full * size_of_intervals joint) + pattern_below joint rem
    end

(* Materialize as maximal (start, length) runs in ascending order — the
   per-dimension building block of box-to-run compilation: within one run
   every index is in the set, so dense local indices advance by exactly
   one per element. *)
let to_runs t = List.map (fun (lo, hi) -> (lo, hi - lo)) (to_intervals t)

let equal_semantics t1 t2 = to_intervals t1 = to_intervals t2

let pp ppf = function
  | Finite ivs ->
    Fmt.pf ppf "finite{%a}"
      (Hpfc_base.Util.pp_list (fun ppf (a, b) -> Fmt.pf ppf "[%d,%d)" a b))
      ivs
  | Periodic { period; pattern; extent } ->
    Fmt.pf ppf "periodic{%d: %a < %d}" period
      (Hpfc_base.Util.pp_list (fun ppf (a, b) -> Fmt.pf ppf "[%d,%d)" a b))
      pattern extent
