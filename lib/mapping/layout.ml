(* Concrete element-to-processor layout of one array under one mapping.

   A layout composes the alignment (array index -> template cell) with the
   distribution (template cell -> processor coordinate) into closed-form
   ownership functions, plus the interval views that the efficient
   redistribution engine needs.

   Global array indices are 0-based throughout. *)

open Hpfc_base

type fmt = FBlock of int | FCyclic of int

(* How the processor coordinate along one grid dimension is determined. *)
type source =
  | From_axis of {
      array_dim : int;
      stride : int;
      offset : int;
      fmt : fmt;
      textent : int;
    }
  | From_const of int  (* constant alignment: fixed processor coordinate *)
  | Replicated  (* a copy lives at every coordinate along this grid dim *)

type dim_role =
  | Local  (* collapsed array dim: fully present on every owner *)
  | Dist of int  (* this array dim drives grid dimension [pdim] *)

type t = {
  extents : int array;
  procs : Procs.t;
  sources : source array;  (* indexed by grid dimension *)
  roles : dim_role array;  (* indexed by array dimension *)
}

let resolve_fmt ~textent ~nprocs ~what = function
  | Dist.Block None -> FBlock (Util.cdiv textent nprocs)
  | Dist.Block (Some k) ->
    if k * nprocs < textent then
      Error.fail Invalid_directive
        "%s: block(%d) on %d procs cannot cover extent %d" what k nprocs
        textent;
    FBlock k
  | Dist.Cyclic k ->
    if k <= 0 then Error.fail Invalid_directive "%s: cyclic(%d)" what k;
    FCyclic k
  | Dist.Star -> assert false

(* Processor coordinate owning template cell [cell]. *)
let owner_of_cell ~nprocs fmt cell =
  match fmt with
  | FBlock k -> cell / k
  | FCyclic k -> cell / k mod nprocs

let of_mapping ~extents (m : Mapping.t) =
  Align.validate ~array_extents:extents ~template_extents:m.template.extents
    m.align;
  let pdims = Mapping.proc_dim_of_tdim m in
  let nb_pdims = Procs.rank m.procs in
  let sources = Array.make nb_pdims Replicated in
  let roles = Array.make (Array.length extents) Local in
  Array.iteri
    (fun tdim pdim_opt ->
      match pdim_opt with
      | None -> ()
      | Some pdim ->
        let nprocs = m.procs.shape.(pdim) in
        let textent = m.template.extents.(tdim) in
        let what = Fmt.str "template %s dim %d" m.template.name tdim in
        let fmt = resolve_fmt ~textent ~nprocs ~what m.dist.(tdim) in
        (match m.align.(tdim) with
        | Align.Axis { array_dim; stride; offset } ->
          sources.(pdim) <- From_axis { array_dim; stride; offset; fmt; textent };
          roles.(array_dim) <- Dist pdim
        | Align.Const c ->
          sources.(pdim) <- From_const (owner_of_cell ~nprocs fmt c)
        | Align.Replicated -> sources.(pdim) <- Replicated))
    pdims;
  { extents; procs = m.procs; sources; roles }

let rank t = Array.length t.extents

let nb_elements t = Array.fold_left ( * ) 1 t.extents

(* --- ownership ------------------------------------------------------- *)

(* Canonical owner coordinate vector of an element: replicated grid dims get
   coordinate 0. *)
let owner t index =
  Array.mapi
    (fun pdim source ->
      let nprocs = t.procs.shape.(pdim) in
      match source with
      | From_axis { array_dim; stride; offset; fmt; _ } ->
        owner_of_cell ~nprocs fmt ((stride * index.(array_dim)) + offset)
      | From_const c -> c
      | Replicated -> 0)
    t.sources

(* All owner coordinates (expands replication). *)
let owners t index =
  let base = owner t index in
  let rec expand pdim acc =
    if pdim >= Array.length t.sources then List.rev_map Array.of_list acc
    else
      match t.sources.(pdim) with
      | Replicated ->
        let copies =
          List.concat_map
            (fun prefix ->
              List.map
                (fun c -> prefix @ [ c ])
                (Util.range 0 t.procs.shape.(pdim)))
            acc
        in
        expand (pdim + 1) copies
      | From_axis _ | From_const _ ->
        expand (pdim + 1) (List.map (fun prefix -> prefix @ [ base.(pdim) ]) acc)
  in
  expand 0 [ [] ]

let is_owner t ~proc index =
  Array.length proc = Procs.rank t.procs
  &&
  let base = owner t index in
  let ok = ref true in
  Array.iteri
    (fun pdim source ->
      match source with
      | Replicated -> ()
      | From_axis _ | From_const _ ->
        if proc.(pdim) <> base.(pdim) then ok := false)
    t.sources;
  !ok

(* --- interval views --------------------------------------------------- *)

(* Template-cell intervals [lo, hi) owned by coordinate [c] along a grid
   dimension with format [fmt] and extent [textent]. *)
let owned_cell_intervals ~nprocs ~textent fmt c =
  match fmt with
  | FBlock k ->
    let lo = c * k and hi = min ((c + 1) * k) textent in
    if lo >= hi then [] else [ (lo, hi) ]
  | FCyclic k ->
    let rec loop j acc =
      let lo = (((j * nprocs) + c) * k) in
      if lo >= textent then List.rev acc
      else loop (j + 1) ((lo, min (lo + k) textent) :: acc)
    in
    loop 0 []

(* Array-index interval [lo, hi) whose alignment image falls inside the
   template-cell interval [cl, ch).  The alignment x -> stride*x + offset is
   monotone, so preimages of intervals are intervals. *)
let preimage_interval ~stride ~offset ~extent (cl, ch) =
  let lo, hi =
    if stride > 0 then
      (* smallest x with stride*x+offset >= cl; past-the-end for < ch *)
      (Util.cdiv (cl - offset) stride, Util.cdiv (ch - offset) stride)
    else
      (* stride < 0: image decreasing in x *)
      let s = -stride in
      (Util.cdiv (offset - ch + 1) s, Util.cdiv (offset - cl + 1) s)
  in
  let lo = max lo 0 and hi = min hi extent in
  if lo >= hi then None else Some (lo, hi)

(* Array-index intervals along [array_dim] owned by processor coordinate
   [coord] of the grid dim that this array dim drives.  For Local dims the
   whole extent is owned. *)
let owned_intervals t ~array_dim ~coord =
  match t.roles.(array_dim) with
  | Local -> [ (0, t.extents.(array_dim)) ]
  | Dist pdim -> (
    match t.sources.(pdim) with
    | From_axis { array_dim = ad; stride; offset; fmt; textent } ->
      assert (ad = array_dim);
      let nprocs = t.procs.shape.(pdim) in
      owned_cell_intervals ~nprocs ~textent fmt coord
      |> List.filter_map
           (preimage_interval ~stride ~offset ~extent:t.extents.(array_dim))
      (* negative strides reverse the order; canonicalize *)
      |> List.sort compare |> Ivset.merge_adjacent
    | From_const _ | Replicated -> assert false)

(* Inverse of [a] modulo [m] (gcd a m = 1), by extended Euclid. *)
let inv_mod a m =
  let rec go r0 r1 t0 t1 =
    if r1 = 0 then t0 else go r1 (r0 - (r0 / r1 * r1)) t1 (t0 - (r0 / r1 * t1))
  in
  Util.emod (go m (Util.emod a m) 0 1) m

(* Cyclic(k) ownership over [nprocs] repeats every k*nprocs template
   cells, so its preimage through the alignment x -> stride*x + offset
   repeats every (k*nprocs) / gcd(|stride|, k*nprocs) indices. *)
let cyclic_x_period ~stride ~k ~nprocs =
  let cells = k * nprocs in
  cells / Util.gcd stride cells

(* The period of the owned sets along [array_dim] when they are
   [Periodic]: cyclic ownership whose x-period is below the extent.
   Every coordinate's set shares it. *)
let x_period t ~array_dim =
  match t.roles.(array_dim) with
  | Local -> None
  | Dist pdim -> (
    match t.sources.(pdim) with
    | From_axis { stride; fmt = FCyclic k; _ } ->
      let p = cyclic_x_period ~stride ~k ~nprocs:t.procs.shape.(pdim) in
      if p < t.extents.(array_dim) then Some p else None
    | From_axis { fmt = FBlock _; _ } | From_const _ | Replicated -> None)

(* Owned indices along [array_dim] for [coord], in the compressed periodic
   representation: cyclic ownership is periodic in x ([cyclic_x_period]),
   and [Periodic] when that period is below the extent ([x_period]).
   This is what makes the redistribution engine independent of the array
   extent.  The pattern is computed in closed form, never by scanning an
   x-period: under a unit stride the k owned cells pull back to one arc
   of the x-circle (at most two intervals), and under any other stride
   each owned cell has at most one preimage per x-period, so the cost is
   k preimages, not k*p cells. *)
let owned_set t ~array_dim ~coord : Ivset.t =
  let extent = t.extents.(array_dim) in
  match t.roles.(array_dim) with
  | Local -> Ivset.Finite [ (0, extent) ]
  | Dist pdim -> (
    match t.sources.(pdim) with
    | From_axis { array_dim = ad; stride; offset; fmt; textent } -> (
      assert (ad = array_dim);
      let nprocs = t.procs.shape.(pdim) in
      match fmt with
      | FBlock k ->
        let lo = coord * k and hi = min ((coord + 1) * k) textent in
        if lo >= hi then Ivset.Finite []
        else
          Ivset.Finite
            (Option.to_list
               (preimage_interval ~stride ~offset ~extent (lo, hi)))
      | FCyclic k ->
        let cell_period = k * nprocs in
        let xp = cyclic_x_period ~stride ~k ~nprocs in
        let window = min xp extent in
        let pattern =
          if abs stride = 1 then begin
            (* x owned iff x is in the arc [a, a + k) of Z / (k*p) *)
            let a =
              if stride = 1 then Util.emod ((coord * k) - offset) cell_period
              else Util.emod (offset - (coord * k) - k + 1) cell_period
            in
            let wrap = a + k - cell_period in
            if wrap <= 0 then
              if a < window then [ (a, min (a + k) window) ] else []
            else if wrap >= a then [ (0, window) ] (* one processor *)
            else if a < window then [ (0, min wrap window); (a, window) ]
            else [ (0, min wrap window) ]
          end
          else begin
            (* stride*x + offset = r (mod k*p) is solvable iff
               g = gcd(|stride|, k*p) divides r - offset, with
               x = (r - offset)/g * inv (mod xp) *)
            let g = cell_period / xp in
            let inv = inv_mod (stride / g) xp in
            let xs = ref [] in
            for r = coord * k to (coord * k) + k - 1 do
              if (r - offset) mod g = 0 then begin
                let x = Util.emod ((r - offset) / g * inv) xp in
                if x < window then xs := (x, x + 1) :: !xs
              end
            done;
            Ivset.merge_adjacent (List.sort compare !xs)
          end
        in
        match x_period t ~array_dim with
        | Some period -> Ivset.Periodic { period; pattern; extent }
        | None -> Ivset.Finite pattern)
    | From_const _ | Replicated -> assert false)

(* Number of owned indices strictly below [x] along [array_dim] for the
   grid coordinate that owns [x] — the dense local index along that dim.
   Counts in the compressed periodic set, so one lookup is O(pattern),
   independent of the array extent (cyclic ownership used to be walked
   interval by interval here, making every payload access O(extent)). *)
let local_index_along t ~array_dim x =
  match t.roles.(array_dim) with
  | Local -> x
  | Dist pdim -> (
    match t.sources.(pdim) with
    | From_axis { stride; offset; fmt; _ } ->
      let nprocs = t.procs.shape.(pdim) in
      let coord = owner_of_cell ~nprocs fmt ((stride * x) + offset) in
      Ivset.count_below (owned_set t ~array_dim ~coord) x
    | From_const _ | Replicated -> assert false)

let local_index t index = Array.mapi (fun d x -> local_index_along t ~array_dim:d x) index

(* Per-dimension count of owned indices for processor [proc], and the local
   allocation size (their product).  A processor off a [From_const]
   coordinate owns nothing. *)
let local_extents t ~proc =
  let excluded = ref false in
  Array.iteri
    (fun pdim source ->
      match source with
      | From_const c -> if proc.(pdim) <> c then excluded := true
      | From_axis _ | Replicated -> ())
    t.sources;
  if !excluded then Array.map (fun _ -> 0) t.extents
  else
    Array.mapi
      (fun d _ ->
        match t.roles.(d) with
        | Local -> t.extents.(d)
        | Dist pdim ->
          Ivset.cardinal (owned_set t ~array_dim:d ~coord:proc.(pdim)))
      t.extents

let local_size t ~proc = Array.fold_left ( * ) 1 (local_extents t ~proc)

(* Row-major linear position of an element inside its owner's local
   allocation (extents = local_extents of the owner).  This is the address
   computation the generated SPMD code would perform. *)
let local_linear_index t index =
  let own = owner t index in
  let locals = local_extents t ~proc:own in
  let li = local_index t index in
  let acc = ref 0 in
  Array.iteri (fun d x -> acc := (!acc * locals.(d)) + x) li;
  !acc

(* Row-major linear position of [index] in an array with [extents] —
   the one global address computation, shared by payload accessors and
   the communication executor. *)
let global_linear_index extents index =
  let acc = ref 0 in
  for d = 0 to Array.length index - 1 do
    acc := (!acc * extents.(d)) + index.(d)
  done;
  !acc

(* --- compiled element addressing ----------------------------------------- *)

(* The element-to-storage map of one layout, compiled once (per copy) so
   that every element access is O(rank) integer arithmetic and table
   lookups with no allocation: the statically generated local addressing
   of the SPMD code.  [owner], [owners] and [local_linear_index] above
   stay the reference specification it is tested against. *)
module Addr = struct
  type layout = t

  (* One array dimension.  [rstride] is the linear-rank stride of the
     grid dimension it drives, [counts] each coordinate's local extent.

     - [Ax_local]: collapsed; the local index is x itself.
     - [Ax_block]: the coordinate is (stride*x + offset)/k; a block of
       cells pulls back to an interval of x, so the local index is x
       minus the coordinate's first owned index [first].
     - [Ax_cyclic]: ownership repeats every [period] indices
       ([cyclic_x_period]); [coord] and [local] tabulate, over the first
       min(period, extent) indices, each one's coordinate and its local
       index within the period, and a later period adds the
       coordinate's [per_period] count. *)
  type axis =
    | Ax_local of int
    | Ax_block of {
        rstride : int;
        stride : int;
        offset : int;
        k : int;
        first : int array;
        counts : int array;
      }
    | Ax_cyclic of {
        rstride : int;
        period : int;
        coord : int array;
        local : int array;
        per_period : int array;
        counts : int array;
      }

  type t = {
    layout : layout;
    axes : axis array;  (* indexed by array dimension *)
    rank_base : int;  (* linear-rank share of the constant grid dims *)
    replicas : int array;  (* linear-rank offsets of every replica, 0 first *)
  }

  let compile_axis ~extent ~nprocs ~rstride ~stride ~offset ~textent = function
    | FBlock k ->
      let first = Array.make nprocs 0 and counts = Array.make nprocs 0 in
      for c = 0 to nprocs - 1 do
        let lo = c * k and hi = min ((c + 1) * k) textent in
        if lo < hi then
          match preimage_interval ~stride ~offset ~extent (lo, hi) with
          | Some (a, b) ->
            first.(c) <- a;
            counts.(c) <- b - a
          | None -> ()
      done;
      Ax_block { rstride; stride; offset; k; first; counts }
    | FCyclic k as fmt ->
      let period = cyclic_x_period ~stride ~k ~nprocs in
      let w = min period extent in
      let coord = Array.make w 0 and local = Array.make w 0 in
      let seen = Array.make nprocs 0 in
      for r = 0 to w - 1 do
        let c = owner_of_cell ~nprocs fmt ((stride * r) + offset) in
        coord.(r) <- c;
        local.(r) <- seen.(c);
        seen.(c) <- seen.(c) + 1
      done;
      let per_period = Array.copy seen in
      (* the partial last period: the first [extent mod period] residues *)
      if w < extent then begin
        Array.iteri (fun c n -> seen.(c) <- extent / period * n) per_period;
        for r = 0 to (extent mod period) - 1 do
          seen.(coord.(r)) <- seen.(coord.(r)) + 1
        done
      end;
      Ax_cyclic { rstride; period; coord; local; per_period; counts = seen }

  let make (l : layout) =
    let shape = l.procs.Procs.shape in
    let np = Array.length shape in
    let pstride = Array.make np 1 in
    for p = np - 2 downto 0 do
      pstride.(p) <- pstride.(p + 1) * shape.(p + 1)
    done;
    let axes =
      Array.mapi
        (fun d role ->
          match role with
          | Local -> Ax_local l.extents.(d)
          | Dist pdim -> (
            match l.sources.(pdim) with
            | From_axis { stride; offset; fmt; textent; _ } ->
              compile_axis ~extent:l.extents.(d) ~nprocs:shape.(pdim)
                ~rstride:pstride.(pdim) ~stride ~offset ~textent fmt
            | From_const _ | Replicated -> assert false))
        l.roles
    in
    let rank_base = ref 0 and replicas = ref [| 0 |] in
    Array.iteri
      (fun pdim source ->
        match source with
        | From_const c -> rank_base := !rank_base + (c * pstride.(pdim))
        | Replicated ->
          let offs = !replicas in
          replicas :=
            Array.concat
              (List.init shape.(pdim) (fun c ->
                   Array.map (fun o -> o + (c * pstride.(pdim))) offs))
        | From_axis _ -> ())
      l.sources;
    { layout = l; axes; rank_base = !rank_base; replicas = !replicas }

  let layout a = a.layout
  let replicas a = a.replicas

  let owner_rank a index =
    let r = ref a.rank_base in
    for d = 0 to Array.length a.axes - 1 do
      match a.axes.(d) with
      | Ax_local _ -> ()
      | Ax_block b ->
        r := !r + (b.rstride * (((b.stride * index.(d)) + b.offset) / b.k))
      | Ax_cyclic y -> r := !r + (y.rstride * y.coord.(index.(d) mod y.period))
    done;
    !r

  let offset a index =
    let acc = ref 0 in
    for d = 0 to Array.length a.axes - 1 do
      let x = index.(d) in
      match a.axes.(d) with
      | Ax_local e -> acc := (!acc * e) + x
      | Ax_block b ->
        let c = ((b.stride * x) + b.offset) / b.k in
        acc := (!acc * b.counts.(c)) + x - b.first.(c)
      | Ax_cyclic y ->
        let q = x / y.period in
        let r = x - (q * y.period) in
        let c = y.coord.(r) in
        acc := (!acc * y.counts.(c)) + (q * y.per_period.(c)) + y.local.(r)
    done;
    !acc

  let index_along a ~dim ~coord x =
    match a.axes.(dim) with
    | Ax_local _ -> x
    | Ax_block b -> x - b.first.(coord)
    | Ax_cyclic y ->
      let q = x / y.period in
      (q * y.per_period.(coord)) + y.local.(x - (q * y.period))

  let local_extents a ~proc =
    let l = a.layout in
    let excluded = ref false in
    Array.iteri
      (fun pdim source ->
        match source with
        | From_const c -> if proc.(pdim) <> c then excluded := true
        | From_axis _ | Replicated -> ())
      l.sources;
    Array.mapi
      (fun d axis ->
        if !excluded then 0
        else
          match (axis, l.roles.(d)) with
          | Ax_local e, _ -> e
          | Ax_block { counts; _ }, Dist pdim
          | Ax_cyclic { counts; _ }, Dist pdim ->
            counts.(proc.(pdim))
          | (Ax_block _ | Ax_cyclic _), Local -> assert false)
      a.axes
end

(* --- equality --------------------------------------------------------- *)

let equal_source a b =
  match (a, b) with
  | From_axis a, From_axis b ->
    a.array_dim = b.array_dim && a.stride = b.stride && a.offset = b.offset
    && a.fmt = b.fmt && a.textent = b.textent
  | From_const a, From_const b -> a = b
  | Replicated, Replicated -> true
  | (From_axis _ | From_const _ | Replicated), _ -> false

(* Layout equivalence: identical element-to-processor function.  Grid names
   are irrelevant; grid shapes are not. *)
let equal a b =
  a.extents = b.extents
  && a.procs.shape = b.procs.shape
  && Array.length a.sources = Array.length b.sources
  && Array.for_all2 equal_source a.sources b.sources
  && a.roles = b.roles

let pp_fmt ppf = function
  | FBlock k -> Fmt.pf ppf "block(%d)" k
  | FCyclic k -> Fmt.pf ppf "cyclic(%d)" k

let pp_source ppf = function
  | From_axis { array_dim; stride; offset; fmt; _ } ->
    Fmt.pf ppf "dim%d[%d*x%+d]:%a" array_dim stride offset pp_fmt fmt
  | From_const c -> Fmt.pf ppf "const@%d" c
  | Replicated -> Fmt.string ppf "repl"

let pp ppf t =
  Fmt.pf ppf "layout[%a | %a]"
    (Util.pp_list Fmt.int)
    (Array.to_list t.extents)
    (Util.pp_list pp_source)
    (Array.to_list t.sources)

(* Layout equivalence directly on mappings. *)
let equiv_mappings ~extents m1 m2 =
  equal (of_mapping ~extents m1) (of_mapping ~extents m2)
