(* Redistribution engine: given a source and a target layout of the same
   array, compute the communication plan — which (sender, receiver)
   processor pairs exchange which elements.

   Every planned message carries its payload as a *box*: one compressed
   periodic interval set per array dimension whose cross product is
   exactly the element set exchanged, i.e. the strided sections a real
   SPMD runtime packs into the send buffer.  Two algorithms compute the
   same plan:

   - [plan_naive]: walk every element, look up both owners.  The oracle.
     Its boxes come from the interval machinery and are cross-checked
     against the walked counts.
   - [plan_intervals]: exploit per-dimension structure, a la the efficient
     block-cyclic redistribution algorithms of Prylli & Tourancheau [19]:
     the elements owned along one dimension by source coordinate c1 and
     target coordinate c2 form an intersection of periodic interval sets,
     and a (sender, receiver) payload is the cross product of the
     per-dimension intersections.  One sweep per dimension cuts a common
     window at both sides' ownership boundaries, so the cost is the
     number of pieces it outputs (plus one bucket per coordinate pair)
     and independent of the array extent whenever ownership is
     periodic below it.

   Replicated and constant-aligned grid dimensions do not force a naive
   walk: they never carry an array dimension, so they only constrain
   which grid coordinates participate — a constant alignment pins the
   coordinate, a replicated source dimension sends from the canonical
   coordinate 0 (matching [Layout.owner]) and a replicated target
   dimension receives on every coordinate (matching [Layout.owners]). *)

open Hpfc_mapping

(* A message payload: per array dimension, the owned-intersection set in
   the compressed periodic representation.  Kept unmaterialized so plans
   stay extent-independent; the executor expands it lazily. *)
type box = Ivset.t array

let box_size (b : box) =
  Array.fold_left (fun acc s -> acc * Ivset.cardinal s) 1 b

(* One compiled copy shape in the flat address spaces of the two copies:
   [r_count] segments of [r_len] consecutive elements each, the i-th
   reading at [r_src + i * r_src_stride] and writing at
   [r_dst + i * r_dst_stride].  A plain contiguous run has [r_count] = 1
   (strides are then irrelevant and set to 0). *)
type run = {
  r_src : int;
  r_dst : int;
  r_len : int;
  r_count : int;
  r_src_stride : int;
  r_dst_stride : int;
}

(* How a copy's flat storage is addressed — what box-to-run compilation
   needs to know about an endpoint, without capturing the payload:

   - [Row_major extents]: one global row-major array (the canonical
     backend); an index addresses [global_linear_index extents index].
   - [Owner_local addr]: one buffer per rank, laid out row-major over
     the rank's local extents (the distributed backend); an index
     addresses [Layout.Addr.offset addr index], the layout's compiled
     addressing.

   Equal layouts address identically, so runs compiled against one store
   are valid for any store that shares the plan (the plan cache key
   includes everything [Layout.equal] compares). *)
type addressing =
  | Row_major of int array  (* global extents *)
  | Owner_local of Layout.Addr.t

(* How a message's compiled runs move data: [Direct] runs copy payload
   to payload with no staging buffer (self-messages, and globally
   addressed endpoints); [Staged] runs pack through a staging buffer the
   way a real SPMD send must.  Decided once per memoized message by
   [message_datapath]. *)
type datapath = Direct of run array | Staged of run array

type message = {
  m_from : int;  (* sender, linear rank in the source grid *)
  m_to : int;  (* receiver, linear rank in the target grid *)
  m_count : int;  (* elements = box_size m_box *)
  m_box : box;
  m_paths : (int * datapath) list Atomic.t;
      (* compiled datapaths (runs + staging-vs-direct decision) memoized
         per (src, dst) addressing-kind key, next to the plan's memoized
         [sprog]; at most four entries.  Published through an atomic so
         a domain that finds the memo already filled observes fully
         built run arrays (plans cached in a sharded Plan_cache are
         shared across service workers); concurrent fills of one key
         compute identical runs and the CAS keeps whichever lands
         first.  Parallel executors still precompile on the coordinator
         before sharing the message with workers — the memo makes late
         fills safe, not free. *)
}

(* A slice of a message's staged payload: elements [sl_off, sl_off +
   sl_len) of its row-major box order — which is exactly the staging
   buffer order of the pack walk, so a slice is a contiguous window of
   the message's send buffer (the dynamic-slice primitive of the
   collective lowering, cf. Rink et al., arXiv:2112.01075). *)
type slice = { sl_msg : message; sl_off : int; sl_len : int }

(* One collective phase: a contention-free set of slices (distinct
   senders, distinct receivers, at most one slice per message) whose
   total volume respects the lowering's staging budget. *)
type phase = slice list

(* Which portable collective a plan's phase program realizes — a cost
   tag (each kind carries its own alpha), not a correctness property. *)
type phase_kind = All_to_all | All_gather | Scatter

(* A plan's collective lowering: the phase program plus the budgets it
   was built under.  [c_slice_cap] bounds any single slice (O(volume /
   P^2), so balanced exchanges are sliced below their message size);
   [c_phase_cap] bounds any phase's total volume by the point-to-point
   step program's peak, which makes "collective peak <= p2p peak" hold
   structurally on every plan. *)
type collective = {
  c_kind : phase_kind;
  c_slice_cap : int;
  c_phase_cap : int;
  c_phases : phase list;
}

type plan = {
  moves : message list;  (* m_from <> m_to, sorted by (from, to) *)
  locals : message list;  (* m_from = m_to: on-processor moves *)
  nprocs_src : int;
  nprocs_dst : int;
  mutable sprog : step list option;  (* memoized step program *)
  mutable cprog : collective option;  (* memoized collective lowering *)
}

(* A contention-free communication step: messages of the plan in which no
   processor sends more than one message and no processor receives more
   than one (one-port, full-duplex). *)
and step = message list

let triple m = (m.m_from, m.m_to, m.m_count)
let pairs plan = List.map triple plan.moves
let local_pairs plan = List.map triple plan.locals

let total_moved plan =
  List.fold_left (fun acc m -> acc + m.m_count) 0 plan.moves

let local_total plan =
  List.fold_left (fun acc m -> acc + m.m_count) 0 plan.locals

let nb_messages plan = List.length plan.moves

(* Critical-path lower bound under an alpha-beta model: max over
   processors of send-side and receive-side cost.  A reference bound for
   the stepped time, never charged to a run. *)
let modeled_time (cost : Machine.cost_model) plan =
  let send_msgs = Hashtbl.create 8
  and send_vol = Hashtbl.create 8
  and recv_msgs = Hashtbl.create 8
  and recv_vol = Hashtbl.create 8 in
  let bump tbl k v = Hashtbl.replace tbl k (v + Option.value (Hashtbl.find_opt tbl k) ~default:0) in
  List.iter
    (fun (f, t, n) ->
      bump send_msgs f 1;
      bump send_vol f n;
      bump recv_msgs t 1;
      bump recv_vol t n)
    (pairs plan);
  let side msgs vol =
    Hashtbl.fold
      (fun p m acc ->
        let v = Option.value (Hashtbl.find_opt vol p) ~default:0 in
        Float.max acc ((cost.Machine.alpha *. float_of_int m) +. (cost.Machine.beta *. float_of_int v)))
      msgs 0.0
  in
  Float.max (side send_msgs send_vol) (side recv_msgs recv_vol)

(* --- stepped scheduling ---------------------------------------------------- *)

(* A plan's step decomposition is a proper edge coloring of the bipartite
   sender/receiver multigraph; the greedy first-fit coloring below uses at
   most 2*degree - 1 steps (the optimum is the maximum degree, by
   Koenig's theorem), which is enough for the time and peak-memory shapes
   we model (Rink et al., arXiv:2112.01075 decompose redistributions the
   same way to bound staging memory). *)

let step_volume (s : step) = List.fold_left (fun acc m -> acc + m.m_count) 0 s

let peak_step_volume steps =
  List.fold_left (fun acc s -> Int.max acc (step_volume s)) 0 steps

(* (from, to) order on ints, with no tuple built per comparison. *)
let compare_endpoints a b =
  let c = Int.compare a.m_from b.m_from in
  if c <> 0 then c else Int.compare a.m_to b.m_to

let nranks plan = max plan.nprocs_src plan.nprocs_dst

(* One step under construction: which ranks already send and receive in
   it (one byte per rank), and its messages so far. *)
type slot = {
  busy_from : Bytes.t;
  busy_to : Bytes.t;
  mutable members : message list;
}

(* Greedy first-fit edge coloring, largest messages first so the heavy
   messages share steps (better packing, and the per-step max that the
   stepped time model charges is paid by fewer steps).  A pure
   [plan -> step program] transformer: the cost model and the executor
   both consume its output. *)
let steps (plan : plan) : step list =
  let by_size =
    List.stable_sort (fun a b -> Int.compare b.m_count a.m_count) plan.moves
  in
  let nr = Int.max 1 (nranks plan) in
  (* there are never more steps than messages *)
  let unused =
    { busy_from = Bytes.empty; busy_to = Bytes.empty; members = [] }
  in
  let slots = Array.make (List.length by_size) unused and used = ref 0 in
  let place m =
    let rec find i =
      if i = !used then begin
        let s =
          { busy_from = Bytes.make nr '\000'; busy_to = Bytes.make nr '\000';
            members = [] }
        in
        slots.(i) <- s;
        incr used;
        s
      end
      else
        let s = slots.(i) in
        if Bytes.get s.busy_from m.m_from <> '\000'
           || Bytes.get s.busy_to m.m_to <> '\000'
        then find (i + 1)
        else s
    in
    let s = find 0 in
    Bytes.set s.busy_from m.m_from '\001';
    Bytes.set s.busy_to m.m_to '\001';
    s.members <- m :: s.members
  in
  List.iter place by_size;
  List.init !used (fun i -> List.sort compare_endpoints slots.(i).members)

(* The memoized step program of a plan (plans are immutable once built,
   and cached plans recur on every loop iteration, so the coloring is
   paid once per distinct layout pair). *)
let step_program plan =
  match plan.sprog with
  | Some s -> s
  | None ->
    let s = steps plan in
    plan.sprog <- Some s;
    s

(* Stepped time: within a step every message proceeds in parallel without
   port contention, so the step costs its slowest message; steps are
   serialized.  Always at least the critical-path bound: a processor with k
   messages to send appears in k distinct steps, each charging at least
   alpha + beta * (that message), so the sum dominates its send-side
   alpha-beta cost (and symmetrically for receives). *)
let step_time (cost : Machine.cost_model) (s : step) =
  List.fold_left
    (fun m msg ->
      Float.max m
        (cost.Machine.alpha +. (cost.Machine.beta *. float_of_int msg.m_count)))
    0.0 s

let modeled_time_of_steps (cost : Machine.cost_model) steps =
  List.fold_left (fun acc s -> acc +. step_time cost s) 0.0 steps

let modeled_time_stepped cost plan =
  modeled_time_of_steps cost (step_program plan)

(* --- collective lowering ---------------------------------------------------- *)

(* The second lowering: compile the plan into a short sequence of
   portable collective phases instead of point-to-point steps, trading a
   little modeled latency (more, smaller rounds) for a hard bound on
   peak staging memory — the memory-efficient redistribution idea of
   Rink et al. (arXiv:2112.01075).

   Structure.  Messages are grouped into *ring shift classes* by
   (m_to - m_from) mod P: within one residue class distinct senders have
   distinct receivers, so any subset of a class is contention-free by
   construction.  Each message's staged payload — a contiguous window of
   its send buffer, since pack order is row-major box order — is then
   cut into slices of at most [c_slice_cap] = O(volume / P^2) elements,
   and each class's slices are packed greedily into phases of total
   volume at most [c_phase_cap] = the point-to-point step program's peak
   step volume, at most one slice per message per phase.  Hence every
   phase is contention-free, the phases partition every message's
   payload exactly, and the collective peak staging volume never exceeds
   the point-to-point peak (and sits strictly below it on balanced
   fan-out plans, where the slice cap bites). *)

let cdiv a b = (a + b - 1) / b

let phase_volume (ph : phase) =
  List.fold_left (fun acc sl -> acc + sl.sl_len) 0 ph

let peak_phase_volume phases =
  List.fold_left (fun acc ph -> Int.max acc (phase_volume ph)) 0 phases

(* Cost tag: one sender fanning out is a (dynamic-slice) scatter; several
   senders each broadcasting one identical box to all their receivers is
   an all-gather (the replicated-destination shape); anything else is an
   all-to-all.  Classification only picks the phase alpha — the phase
   program itself is built the same way for every kind. *)
let classify plan =
  match plan.moves with
  | [] -> All_to_all
  | moves -> (
    match List.sort_uniq compare (List.map (fun m -> m.m_from) moves) with
    | [ _ ] -> Scatter
    | senders ->
      let replicated_out s =
        match List.filter (fun m -> m.m_from = s) moves with
        | [] | [ _ ] -> false
        | m0 :: rest -> List.for_all (fun m -> m.m_box = m0.m_box) rest
      in
      if List.for_all replicated_out senders then All_gather else All_to_all)

let collective_of_plan (plan : plan) : collective =
  let p = max 1 (nranks plan) in
  let volume = total_moved plan in
  let slice_cap = max 1 (cdiv volume (p * p)) in
  let phase_cap = max 1 (peak_step_volume (step_program plan)) in
  let classes = Array.make p [] in
  List.iter
    (fun m ->
      let r = (((m.m_to - m.m_from) mod p) + p) mod p in
      classes.(r) <- m :: classes.(r))
    plan.moves;
  let phases = ref [] in
  Array.iter
    (fun cls ->
      let cls = List.sort compare_endpoints cls in
      let cursors = ref (List.map (fun m -> (m, ref 0)) cls) in
      while !cursors <> [] do
        (* one phase: walk the class in (from, to) order, taking at most
           one slice per message, bounded by both caps.  The first
           cursor always advances (room >= 1), so the loop terminates. *)
        let vol = ref 0 and ph = ref [] in
        List.iter
          (fun (m, off) ->
            let room = min slice_cap (phase_cap - !vol) in
            let take = min room (m.m_count - !off) in
            if take > 0 then begin
              ph := { sl_msg = m; sl_off = !off; sl_len = take } :: !ph;
              off := !off + take;
              vol := !vol + take
            end)
          !cursors;
        phases := List.rev !ph :: !phases;
        cursors := List.filter (fun (m, off) -> !off < m.m_count) !cursors
      done)
    classes;
  {
    c_kind = classify plan;
    c_slice_cap = slice_cap;
    c_phase_cap = phase_cap;
    c_phases = List.rev !phases;
  }

(* The memoized collective lowering, next to [step_program] (and
   precompiled in [Plan_cache.find] before a plan is published to other
   domains, for the same reason). *)
let collective_program plan =
  match plan.cprog with
  | Some c -> c
  | None ->
    let c = collective_of_plan plan in
    plan.cprog <- Some c;
    c

let phase_alpha (cost : Machine.cost_model) = function
  | All_to_all -> cost.Machine.coll_alpha_a2a
  | All_gather -> cost.Machine.coll_alpha_ag
  | Scatter -> cost.Machine.coll_alpha_scatter

(* A phase's modeled cost mirrors [step_time]: one per-kind startup plus
   the slowest slice (slices of one phase proceed in parallel without
   port contention, exactly like a step's messages). *)
let phase_time cost kind (ph : phase) =
  List.fold_left
    (fun acc sl ->
      Float.max acc
        (phase_alpha cost kind
        +. (cost.Machine.coll_beta *. float_of_int sl.sl_len)))
    0.0 ph

let modeled_time_of_phases cost (c : collective) =
  List.fold_left (fun acc ph -> acc +. phase_time cost c.c_kind ph) 0.0 c.c_phases

let modeled_time_collective cost plan =
  modeled_time_of_phases cost (collective_program plan)

let nb_phases (c : collective) = List.length c.c_phases

let nb_slices (c : collective) =
  List.fold_left (fun acc ph -> acc + List.length ph) 0 c.c_phases

let peak_collective_volume plan =
  peak_phase_volume (collective_program plan).c_phases

(* --- per-dimension interval machinery -------------------------------------- *)

(* One array dimension of a layout as the sweep walks it: index x falls
   in template cell [stride * x + offset], whose owning coordinate is
   constant on the cell blocks [j*k, (j+1)*k) of the format.  A [Local]
   dimension is a single pseudo-coordinate 0 owning everything. *)
type axis =
  | Whole
  | Axis of { stride : int; offset : int; fmt : Layout.fmt; nprocs : int }

let axis_of (l : Layout.t) d =
  match l.Layout.roles.(d) with
  | Layout.Local -> Whole
  | Layout.Dist pdim -> (
    match l.Layout.sources.(pdim) with
    | Layout.From_axis { stride; offset; fmt; _ } ->
      Axis { stride; offset; fmt; nprocs = l.Layout.procs.Procs.shape.(pdim) }
    | Layout.From_const _ | Layout.Replicated -> assert false)

let axis_coords = function Whole -> 1 | Axis a -> a.nprocs

let axis_coord ax x =
  match ax with
  | Whole -> 0
  | Axis { stride; offset; fmt; nprocs } ->
    Layout.owner_of_cell ~nprocs fmt ((stride * x) + offset)

(* The first index of the run of indices whose cells share [x]'s cell
   block (at least 0): the last point at or before [x] where the owning
   coordinate may change. *)
let axis_cut ax x =
  match ax with
  | Whole -> 0
  | Axis { stride; offset; fmt = Layout.FBlock k | Layout.FCyclic k; _ } ->
    let j = ((stride * x) + offset) / k in
    if stride > 0 then
      let num = (j * k) - offset in
      if num <= 0 then 0 else (num + stride - 1) / stride
    else
      let num = offset - ((j + 1) * k) in
      if num < 0 then 0 else (num / -stride) + 1

(* table.(c1).(c2): the indices along dimension [d] owned by source
   coordinate c1 and target coordinate c2, in the compressed periodic
   representation.  One sweep over a window W replaces the pairwise
   intersection of owned sets: W is the lcm of both sides' x-periods when
   both are periodic below the extent (the table is then [Periodic] with
   that period), else the whole extent ([Finite]).  Both sides' cut
   streams are generated arithmetically and merged on the fly, walking
   down from W so that consing builds every bucket in ascending order:
   each piece between consecutive cuts has one (c1, c2) label and goes
   to the front of that bucket, extending the bucket's first interval
   when adjacent, so every entry is the sorted maximal interval list of
   its set within [0, W). *)
let dim_table ~(src : Layout.t) ~(dst : Layout.t) d : Ivset.t array array =
  let n = src.Layout.extents.(d) in
  let a1 = axis_of src d and a2 = axis_of dst d in
  let x_period l = Layout.x_period l ~array_dim:d in
  let period =
    match (x_period src, x_period dst) with
    | Some p1, Some p2 ->
      let l = Hpfc_base.Util.lcm p1 p2 in
      if l < n then l else 0
    | _ -> 0
  in
  let w = if period > 0 then period else n in
  let n1 = axis_coords a1 and n2 = axis_coords a2 in
  let acc = Array.make (n1 * n2) [] in
  (* [b1], [b2]: where each side's current run starts *)
  let x = ref w and b1 = ref w and c1 = ref 0 and b2 = ref w and c2 = ref 0 in
  while !x > 0 do
    let hi = !x in
    if !b1 >= hi then begin
      c1 := axis_coord a1 (hi - 1);
      b1 := axis_cut a1 (hi - 1)
    end;
    if !b2 >= hi then begin
      c2 := axis_coord a2 (hi - 1);
      b2 := axis_cut a2 (hi - 1)
    end;
    let lo = if !b1 > !b2 then !b1 else !b2 in
    let i = (!c1 * n2) + !c2 in
    acc.(i) <-
      (match acc.(i) with
      | (l, h) :: rest when l = hi -> (lo, h) :: rest
      | l -> (lo, hi) :: l);
    x := lo
  done;
  Array.init n1 (fun c1 ->
      Array.init n2 (fun c2 ->
          let pattern = acc.((c1 * n2) + c2) in
          if period > 0 then Ivset.Periodic { period; pattern; extent = n }
          else Ivset.Finite pattern))

(* tables.(d).(c1).(c2): the owned-intersection set (and its cardinal)
   along dimension [d] between source coordinate c1 and target coordinate
   c2 ([dim_table]). *)
type dim_tables = {
  t_boxes : Ivset.t array array array;
  t_counts : int array array array;
}

let dim_tables ~(src : Layout.t) ~(dst : Layout.t) =
  let t_boxes = Array.init (Layout.rank src) (dim_table ~src ~dst) in
  { t_boxes; t_counts = Array.map (Array.map (Array.map Ivset.cardinal)) t_boxes }

(* Coordinate of the grid dim driven by array dim [d] within the full
   coordinate vector (0 for Local pseudo-dims). *)
let dim_coord (l : Layout.t) coords d =
  match l.Layout.roles.(d) with
  | Layout.Local -> 0
  | Layout.Dist pdim -> coords.(pdim)

(* Grid dimensions not driven by any array dimension only constrain which
   coordinates participate in the exchange.  On the source side the
   canonical copy sends: a constant alignment pins the coordinate and a
   replicated dimension sends from coordinate 0, exactly [Layout.owner].
   On the target side every replica receives: a constant alignment pins
   the coordinate and a replicated dimension admits all, exactly
   [Layout.owners]. *)
let admissible_sender (l : Layout.t) coords =
  let ok = ref true in
  Array.iteri
    (fun pdim source ->
      match source with
      | Layout.From_axis _ -> ()
      | Layout.From_const c -> if coords.(pdim) <> c then ok := false
      | Layout.Replicated -> if coords.(pdim) <> 0 then ok := false)
    l.Layout.sources;
  !ok

let admissible_receiver (l : Layout.t) coords =
  let ok = ref true in
  Array.iteri
    (fun pdim source ->
      match source with
      | Layout.From_axis _ | Layout.Replicated -> ()
      | Layout.From_const c -> if coords.(pdim) <> c then ok := false)
    l.Layout.sources;
  !ok

let message_box ~(src : Layout.t) ~(dst : Layout.t) tables cs cd : box =
  Array.init (Layout.rank src) (fun d ->
      tables.t_boxes.(d).(dim_coord src cs d).(dim_coord dst cd d))

let make_plan ~moves ~locals ~nprocs_src ~nprocs_dst =
  {
    moves = List.sort compare_endpoints moves;
    locals = List.sort compare_endpoints locals;
    nprocs_src;
    nprocs_dst;
    sprog = None;
    cprog = None;
  }

(* --- interval engine ------------------------------------------------------ *)

let plan_intervals ~(src : Layout.t) ~(dst : Layout.t) : plan =
  assert (src.Layout.extents = dst.Layout.extents);
  let rank = Layout.rank src in
  let tables = dim_tables ~src ~dst in
  let np_src = Procs.size src.Layout.procs
  and np_dst = Procs.size dst.Layout.procs in
  let moves = ref [] and locals = ref [] in
  for ps = 0 to np_src - 1 do
    let cs = Procs.delinearize src.Layout.procs ps in
    if admissible_sender src cs then
      for pd = 0 to np_dst - 1 do
        let cd = Procs.delinearize dst.Layout.procs pd in
        if admissible_receiver dst cd then begin
          let count = ref 1 in
          for d = 0 to rank - 1 do
            count :=
              !count * tables.t_counts.(d).(dim_coord src cs d).(dim_coord dst cd d)
          done;
          if !count > 0 then begin
            let m =
              {
                m_from = ps;
                m_to = pd;
                m_count = !count;
                m_box = message_box ~src ~dst tables cs cd;
                m_paths = Atomic.make [];
              }
            in
            (* processors are identified across layouts by linear rank *)
            if ps = pd then locals := m :: !locals else moves := m :: !moves
          end
        end
      done
  done;
  make_plan ~moves:!moves ~locals:!locals ~nprocs_src:np_src ~nprocs_dst:np_dst

(* --- naive oracle -------------------------------------------------------- *)

let iter_indices extents f =
  let rank = Array.length extents in
  let index = Array.make rank 0 in
  let rec loop d =
    if d = rank then f index
    else
      for x = 0 to extents.(d) - 1 do
        index.(d) <- x;
        loop (d + 1)
      done
  in
  if Array.for_all (fun e -> e > 0) extents then loop 0

let plan_naive ~(src : Layout.t) ~(dst : Layout.t) : plan =
  assert (src.Layout.extents = dst.Layout.extents);
  let np_src = Procs.size src.Layout.procs
  and np_dst = Procs.size dst.Layout.procs in
  let tally = Hashtbl.create 64 in
  iter_indices src.Layout.extents (fun index ->
      let from_lin = Procs.linearize src.Layout.procs (Layout.owner src index) in
      List.iter
        (fun dst_coords ->
          let to_lin = Procs.linearize dst.Layout.procs dst_coords in
          Hashtbl.replace tally (from_lin, to_lin)
            (1 + Option.value (Hashtbl.find_opt tally (from_lin, to_lin)) ~default:0))
        (Layout.owners dst index));
  (* attach each pair's interval box; its size must reproduce the walked
     count exactly — a per-pair cross-check of the interval machinery
     against the element-walk oracle *)
  let tables = dim_tables ~src ~dst in
  let moves = ref [] and locals = ref [] in
  Hashtbl.iter
    (fun (f, t) n ->
      let cs = Procs.delinearize src.Layout.procs f
      and cd = Procs.delinearize dst.Layout.procs t in
      let b = message_box ~src ~dst tables cs cd in
      assert (box_size b = n);
      let m =
        { m_from = f; m_to = t; m_count = n; m_box = b; m_paths = Atomic.make [] }
      in
      if f = t then locals := m :: !locals else moves := m :: !moves)
    tally;
  make_plan ~moves:!moves ~locals:!locals ~nprocs_src:np_src ~nprocs_dst:np_dst

(* --- box iteration --------------------------------------------------------- *)

(* Iterate every index vector of a box in row-major order (the packing
   order of the communication executor).  The per-dimension sets are
   materialized here, at execution time: cost is proportional to the
   elements being moved, never to the array extent. *)
let iter_box (b : box) f =
  let ivs = Array.map Ivset.to_intervals b in
  let rank = Array.length b in
  let index = Array.make rank 0 in
  let rec loop d =
    if d = rank then f index
    else
      List.iter
        (fun (lo, hi) ->
          for x = lo to hi - 1 do
            index.(d) <- x;
            loop (d + 1)
          done)
        ivs.(d)
  in
  if rank > 0 then loop 0

(* --- box-to-run compilation ------------------------------------------------- *)

(* Row-major strides of an extents vector (last dimension stride 1). *)
let row_major_strides extents =
  let rank = Array.length extents in
  let str = Array.make (max rank 1) 1 in
  for d = rank - 2 downto 0 do
    str.(d) <- str.(d + 1) * extents.(d + 1)
  done;
  str

(* One side of a message, compiled to per-dimension offset arithmetic:
   the strides of the addressed flat allocation plus the offset of the
   first index of an owned interval.  Within a box interval both address
   spaces advance by exactly stride(d) per index — globals trivially,
   locals because every index of the interval is in the rank's owned
   set, so the dense local index rises by one per element.  That single
   fact is what makes every innermost interval a contiguous run.  Local
   offsets come from the copy's addresser ([Layout.Addr.index_along],
   exact at owned indices and at multiples of a cyclic x-period, which
   are the only points [dim_pieces] asks for). *)
let side_addresser addressing ~rank_lin =
  match addressing with
  | Row_major extents ->
    let str = row_major_strides extents in
    (str, fun d lo -> lo * str.(d))
  | Owner_local a ->
    let l = Layout.Addr.layout a in
    let coords = Procs.delinearize l.Layout.procs rank_lin in
    let str = row_major_strides (Layout.Addr.local_extents a ~proc:coords) in
    let dim_coord = Array.init (Layout.rank l) (dim_coord l coords) in
    ( str,
      fun d lo ->
        Layout.Addr.index_along a ~dim:d ~coord:dim_coord.(d) lo * str.(d) )

(* The box's intervals along dimension [d], flattened as (src, dst, len)
   triples — the segment layout of [runs_of_segments] — [src] and [dst]
   being each side's address offset of the interval's first index along
   [d].  A periodic set costs one base lookup per pattern interval;
   every later period adds both sides' constant per-period deltas (the
   box's period is a multiple of both owned sets' periods, and every box
   index is owned on both sides).  Intervals are thus cut at period
   boundaries; the innermost dimension's offset-level merge rejoins the
   pieces, which are contiguous in both address spaces. *)
let dim_pieces (set : Ivset.t) ~sbase ~dbase d =
  match set with
  | Ivset.Finite ivs ->
    let a = Array.make (3 * List.length ivs) 0 in
    List.iteri
      (fun i (lo, hi) ->
        a.(3 * i) <- sbase d lo;
        a.((3 * i) + 1) <- dbase d lo;
        a.((3 * i) + 2) <- hi - lo)
      ivs;
    a
  | Ivset.Periodic { period; pattern; extent } ->
    let sd = sbase d period and dd = dbase d period in
    let n =
      List.fold_left
        (fun acc (lo, _) -> acc + cdiv (extent - lo) period)
        0 pattern
    in
    let a = Array.make (3 * n) 0 and k = ref 0 in
    for j = 0 to cdiv extent period - 1 do
      List.iteri
        (fun i (lo, hi) ->
          let lo = (j * period) + lo in
          if lo < extent then begin
            (* a later period exists only below the extent, so the
               first period is whole: interval i's first piece is
               triple i *)
            if j = 0 then begin
              a.(!k) <- sbase d lo;
              a.(!k + 1) <- dbase d lo
            end
            else begin
              a.(!k) <- a.(3 * i) + (j * sd);
              a.(!k + 1) <- a.((3 * i) + 1) + (j * dd)
            end;
            a.(!k + 2) <- min ((j * period) + hi) extent - lo;
            k := !k + 3
          end)
        pattern
    done;
    a

let mk_run s t len count ss ds =
  {
    r_src = s;
    r_dst = t;
    r_len = len;
    r_count = count;
    r_src_stride = ss;
    r_dst_stride = ds;
  }

(* Compress a buffer of [n] (src, dst, len) segments in walk order into
   runs: exactly adjacent segments concatenate (in place), then
   equal-length segments whose src and dst deltas are both constant
   collapse into one strided run. *)
let runs_of_segments buf n =
  let w = ref 0 in
  for r = 0 to n - 1 do
    let s = buf.(3 * r) and t = buf.((3 * r) + 1) and len = buf.((3 * r) + 2) in
    let p = 3 * (!w - 1) in
    if !w > 0 && buf.(p) + buf.(p + 2) = s && buf.(p + 1) + buf.(p + 2) = t then
      buf.(p + 2) <- buf.(p + 2) + len
    else begin
      buf.(3 * !w) <- s;
      buf.((3 * !w) + 1) <- t;
      buf.((3 * !w) + 2) <- len;
      incr w
    end
  done;
  let n = !w in
  let seg i f = buf.((3 * i) + f) in
  let runs = Array.make n (mk_run 0 0 0 0 0 0) and nr = ref 0 in
  let flush r =
    runs.(!nr) <- r;
    incr nr
  in
  let i = ref 0 in
  while !i < n do
    let s = seg !i 0 and t = seg !i 1 and len = seg !i 2 in
    if !i + 1 < n && seg (!i + 1) 2 = len && seg (!i + 1) 0 <> s then begin
      let ss = seg (!i + 1) 0 - s and ds = seg (!i + 1) 1 - t in
      let j = ref (!i + 2) in
      while
        !j < n
        && seg !j 2 = len
        && seg !j 0 = s + ((!j - !i) * ss)
        && seg !j 1 = t + ((!j - !i) * ds)
      do
        incr j
      done;
      flush (mk_run s t len (!j - !i) ss ds);
      i := !j
    end
    else begin
      flush (mk_run s t len 1 0 0);
      incr i
    end
  done;
  Array.sub runs 0 !nr

(* Lower a message's box into runs over the two flat address spaces.
   The box's per-dimension intervals ([dim_pieces]) are walked in
   row-major order (exactly [iter_box]'s packing order); each innermost
   interval yields one contiguous (src, dst, len) segment, written to an
   int buffer sized up front (a one-dimensional box's pieces are that
   buffer already).  The segments are then compressed at the
   offset level ([runs_of_segments]), with no stride-constancy
   assumption on the layouts — a cyclic(k) innermost dimension becomes a
   single run of k-element segments.  [saddr rank] and [daddr rank] give
   each side's addresser for a rank, so a caller compiling a whole plan
   builds each one once. *)
let compile_runs_with ~saddr ~daddr (m : message) : run array =
  let rank = Array.length m.m_box in
  if rank = 0 then [||]
  else begin
    let sstr, sbase = saddr m.m_from and dstr, dbase = daddr m.m_to in
    let box = m.m_box in
    let pieces = Array.mapi (fun d set -> dim_pieces set ~sbase ~dbase d) box in
    let inner = rank - 1 in
    let ninner = Array.length pieces.(inner) / 3 in
    let arr =
      if inner = 0 then
        (* a one-dimensional box's pieces are its segments *)
        runs_of_segments pieces.(0) ninner
      else begin
        let nouter = ref 1 in
        for d = 0 to inner - 1 do
          nouter := !nouter * Ivset.cardinal box.(d)
        done;
        let buf = Array.make (3 * !nouter * ninner) 0 and k = ref 0 in
        let rec walk d s0 d0 =
          let p = pieces.(d) in
          if d = inner then
            for i = 0 to ninner - 1 do
              buf.(!k) <- s0 + p.(3 * i);
              buf.(!k + 1) <- d0 + p.((3 * i) + 1);
              buf.(!k + 2) <- p.((3 * i) + 2);
              k := !k + 3
            done
          else
            for i = 0 to (Array.length p / 3) - 1 do
              let s1 = s0 + p.(3 * i) and d1 = d0 + p.((3 * i) + 1) in
              for x = 0 to p.((3 * i) + 2) - 1 do
                walk (d + 1) (s1 + (x * sstr.(d))) (d1 + (x * dstr.(d)))
              done
            done
        in
        walk 0 0 0;
        runs_of_segments buf (!nouter * ninner)
      end
    in
    assert (
      Array.fold_left (fun acc r -> acc + (r.r_len * r.r_count)) 0 arr
      = m.m_count);
    arr
  end

let compile_runs ~src ~dst (m : message) =
  compile_runs_with
    ~saddr:(fun rank_lin -> side_addresser src ~rank_lin)
    ~daddr:(fun rank_lin -> side_addresser dst ~rank_lin)
    m

let addressing_kind = function Row_major _ -> 0 | Owner_local _ -> 1
let path_key ~src ~dst = addressing_kind src lor (addressing_kind dst lsl 1)

(* The memo entry for [key]; int keys compared as ints, and no option
   built on the hit path the executors take for every message. *)
let rec find_path key = function
  | [] -> raise Not_found
  | (k, path) :: rest -> if Int.equal k key then path else find_path key rest

let has_path key paths =
  match find_path key paths with _ -> true | exception Not_found -> false

(* The message's compiled datapath for one (src, dst) addressing pair,
   memoized on the message (plans — and their messages — are cached and
   recur on every loop iteration, so compilation is paid once per
   distinct layout pair and addressing combination).  The
   staging-vs-direct decision is made here, once per memoized message,
   never per step: a message is [Direct] — its runs may be copied
   payload to payload with no staging buffer — exactly when both
   endpoint buffers are reachable from one address space, i.e. it is a
   self-message ([m_from = m_to], both buffers live on that rank) or
   both sides are globally addressed ([Row_major], rank-invariant
   buffers).  Cross-rank messages between per-rank buffers stay
   [Staged]: a real SPMD runtime cannot write a remote payload
   directly.  [compile] builds the runs on a miss. *)
let datapath_memo ~src ~dst ~compile (m : message) =
  let key = path_key ~src ~dst in
  let rec probe () =
    let cur = Atomic.get m.m_paths in
    match find_path key cur with
    | path -> path
    | exception Not_found ->
      let runs = compile m in
      let direct =
        m.m_from = m.m_to
        || (addressing_kind src = 0 && addressing_kind dst = 0)
      in
      let path = if direct then Direct runs else Staged runs in
      (* a lost CAS means another domain filled the memo first; its entry
         is identical, so re-probe and use it *)
      if Atomic.compare_and_set m.m_paths cur ((key, path) :: cur) then path
      else probe ()
  in
  probe ()

let message_datapath ~src ~dst (m : message) =
  match find_path (path_key ~src ~dst) (Atomic.get m.m_paths) with
  | path -> path
  | exception Not_found ->
    datapath_memo ~src ~dst ~compile:(compile_runs ~src ~dst) m

let message_runs ~src ~dst (m : message) =
  match message_datapath ~src ~dst m with Direct runs | Staged runs -> runs

(* Fill the datapath memo of every message of [plan] for one addressing
   pair — the plan-level run compilation executors call before they move
   data.  Each (side, rank) addresser is built once for the whole plan,
   not once per message: an owner-local one delinearizes the rank and
   reads its local extents.  A plan whose memos are all filled costs one
   probe per message.  Parallel executors call this on the coordinator, before
   worker domains share the messages. *)
let precompile_runs ~src ~dst (plan : plan) =
  let key = path_key ~src ~dst in
  let missing (m : message) = not (has_path key (Atomic.get m.m_paths)) in
  if List.exists missing plan.locals || List.exists missing plan.moves then begin
    let per_rank addressing =
      let tbl = Array.make (Int.max 1 (nranks plan)) None in
      fun rank_lin ->
        match tbl.(rank_lin) with
        | Some a -> a
        | None ->
          let a = side_addresser addressing ~rank_lin in
          tbl.(rank_lin) <- Some a;
          a
    in
    let saddr = per_rank src and daddr = per_rank dst in
    let fill m =
      ignore
        (datapath_memo ~src ~dst ~compile:(compile_runs_with ~saddr ~daddr) m
          : datapath)
    in
    List.iter fill plan.locals;
    List.iter fill plan.moves
  end

(* Total number of contiguous segments a run array copies. *)
let nb_run_segments runs =
  Array.fold_left (fun acc r -> acc + r.r_count) 0 runs

(* Visit the pieces of a message's run walk covering elements
   [off, off + len) of its row-major payload order (= the staging-buffer
   order of the pack walk); [f src dst n] gets the absolute flat offsets
   and the length of each contiguous piece, in walk order.  The
   dynamic-slice primitive of the collective lowering: a window of the
   staged payload addressed without materializing the whole message. *)
let iter_run_slice (runs : run array) ~off ~len f =
  let stop = off + len in
  let pos = ref 0 in
  Array.iter
    (fun r ->
      let base = !pos in
      let total = r.r_len * r.r_count in
      if r.r_len > 0 && base < stop && base + total > off then begin
        (* jump straight to the repetitions whose [s0, s0 + r_len)
           window meets [off, stop); only the first and last of those
           can need clipping *)
        let i0 = if off <= base then 0 else (off - base) / r.r_len
        and i1 =
          if stop >= base + total then r.r_count - 1
          else (stop - base - 1) / r.r_len
        in
        let s0 = ref (base + (i0 * r.r_len))
        and sp = ref (r.r_src + (i0 * r.r_src_stride))
        and dp = ref (r.r_dst + (i0 * r.r_dst_stride)) in
        for _ = i0 to i1 do
          let lo = if !s0 > off then !s0 else off
          and hi =
            let e = !s0 + r.r_len in
            if e < stop then e else stop
          in
          if lo < hi then f (!sp + (lo - !s0)) (!dp + (lo - !s0)) (hi - lo);
          s0 := !s0 + r.r_len;
          sp := !sp + r.r_src_stride;
          dp := !dp + r.r_dst_stride
        done
      end;
      pos := base + total)
    runs

let pp_box ppf (b : box) =
  Fmt.pf ppf "%a"
    (Hpfc_base.Util.pp_list ~sep:" x " (fun ppf s ->
         Fmt.pf ppf "{%a}"
           (Hpfc_base.Util.pp_list (fun ppf (lo, hi) -> Fmt.pf ppf "[%d,%d)" lo hi))
           (Ivset.to_intervals s)))
    (Array.to_list b)

let pp_message ppf m =
  Fmt.pf ppf "P%d -> P%d : %d elements  %a" m.m_from m.m_to m.m_count pp_box
    m.m_box

(* Every cross-processor message of the plan, one per line. *)
let pp_moves ppf plan =
  List.iter (fun m -> Fmt.pf ppf "%a@." pp_message m) plan.moves

let pp_steps ppf plan =
  List.iteri
    (fun i s ->
      Fmt.pf ppf "step %d (%d msgs, %d elements):@." i (List.length s)
        (step_volume s);
      List.iter (fun m -> Fmt.pf ppf "  %a@." pp_message m) s)
    (step_program plan)

let phase_kind_name = function
  | All_to_all -> "all-to-all"
  | All_gather -> "all-gather"
  | Scatter -> "scatter"

let pp_phases ppf plan =
  let c = collective_program plan in
  Fmt.pf ppf "collective %s (slice cap %d, phase cap %d):@."
    (phase_kind_name c.c_kind) c.c_slice_cap c.c_phase_cap;
  List.iteri
    (fun i ph ->
      Fmt.pf ppf "phase %d (%d slices, %d elements):@." i (List.length ph)
        (phase_volume ph);
      List.iter
        (fun sl ->
          Fmt.pf ppf "  P%d -> P%d : [%d,%d) of %d@." sl.sl_msg.m_from
            sl.sl_msg.m_to sl.sl_off (sl.sl_off + sl.sl_len) sl.sl_msg.m_count)
        ph)
    c.c_phases

(* Sanity: a plan covers every element exactly once (modulo replication in
   the destination, where each element lands on several processors). *)
let covered plan = total_moved plan + local_total plan

let equal p1 p2 = pairs p1 = pairs p2 && local_pairs p1 = local_pairs p2

(* --- plan cache ------------------------------------------------------------ *)

(* Memoized plans keyed by the canonicalized (source layout, target layout,
   extents) triple.  Planning cost is O(procs^2) per remap even with the
   interval engine; inside loops the same layout pair recurs on every
   iteration (and across arrays and call frames), so the cache makes all
   but the first occurrence free.  The key strips everything
   [Layout.equal] ignores — grid names — and keeps everything it compares:
   extents, grid shapes, per-grid-dimension sources and per-array-dimension
   roles of both sides.

   The cache is sharded for the multi-tenant service: keys hash-stripe
   over independently locked shards, each an exact LRU over its slice of
   the capacity.  A hit takes no lock to *find* the plan — shards publish
   an immutable map through an [Atomic.t], and a generation stamp
   certifies the probed snapshot was not mutated under the reader — and
   only a brief shard-lock to move the entry to the front of the
   intrusive doubly-linked recency list (O(1), replacing the old
   O(capacity) eviction scan).  Misses compute under the shard lock, so
   one canonical key is never planned twice within a shard no matter how
   many tenants race on it.  Small caches collapse to a single shard, so
   the pre-sharding tests observe the identical exact-LRU sequence. *)
module Plan_cache = struct
  type side = {
    k_shape : int array;
    k_sources : Layout.source array;
    k_roles : Layout.dim_role array;
  }

  type key = { k_extents : int array; k_src : side; k_dst : side }

  let side (l : Layout.t) =
    {
      k_shape = l.Layout.procs.Procs.shape;
      k_sources = l.Layout.sources;
      k_roles = l.Layout.roles;
    }

  let key ~(src : Layout.t) ~(dst : Layout.t) =
    { k_extents = src.Layout.extents; k_src = side src; k_dst = side dst }

  module Kmap = Map.Make (struct
    type t = key

    (* keys are extents / shapes / source and role variants — plain data,
       safe under the polymorphic compare *)
    let compare = Stdlib.compare
  end)

  (* Entries sit both in the shard's published map and on an intrusive
     doubly-linked recency list ([e_prev] toward the MRU end); eviction
     pops the LRU tail in O(1) instead of scanning the whole table. *)
  type entry = {
    e_key : key;
    e_plan : plan;
    mutable e_prev : entry option;
    mutable e_next : entry option;
  }

  type shard = {
    lock : Mutex.t;
    map : entry Kmap.t Atomic.t;
        (* immutable snapshot, replaced wholesale under [lock]: lock-free
           readers always probe a self-consistent map, and the atomic
           publish carries every write made before it (the plan, its
           precompiled step program) to other domains *)
    gen : int Atomic.t;
        (* bumped on every map mutation (insert / evict / clear), never
           on a recency touch: a probe that reads the same generation on
           both sides of its map lookup saw a stable snapshot *)
    s_capacity : int;
    mutable mru : entry option;
    mutable lru : entry option;
    mutable s_size : int;
    mutable s_hits : int;
    mutable s_misses : int;
    mutable s_evictions : int;
  }

  type t = {
    shards : shard array;
    total_capacity : int;
    parent : t option;
        (* two-level lookup for the multi-tenant service: a per-tenant
           cache keeps solo-identical hit/miss/eviction accounting while
           plan *construction* is deduplicated in a shared parent — a
           tenant miss computes through [parent], so the same canonical
           key built by another tenant is shared, never rebuilt *)
  }

  let default_capacity = 512

  (* One shard per 64 plans of capacity, capped at 8: the default 512
     stripes 8 ways, while small test caches (capacity 2) stay a single
     exact LRU — sharding splits the capacity, so a sharded cache is
     LRU-exact per stripe, not globally. *)
  let default_shards capacity = max 1 (min 8 (capacity / 64))

  let create ?capacity ?shards ?parent () =
    let capacity =
      match capacity with Some c -> max 1 c | None -> default_capacity
    in
    let n =
      min
        (match shards with Some s -> max 1 s | None -> default_shards capacity)
        capacity
    in
    let shard i =
      {
        lock = Mutex.create ();
        map = Atomic.make Kmap.empty;
        gen = Atomic.make 0;
        s_capacity = (capacity / n) + (if i < capacity mod n then 1 else 0);
        mru = None;
        lru = None;
        s_size = 0;
        s_hits = 0;
        s_misses = 0;
        s_evictions = 0;
      }
    in
    { shards = Array.init n shard; total_capacity = capacity; parent }

  let shard_of c k =
    let n = Array.length c.shards in
    c.shards.(if n = 1 then 0 else Hashtbl.hash k mod n)

  (* Totals summed across shards.  Plain reads: exact when quiescent
     (every test and report point), advisory while writers race. *)
  let sum c f = Array.fold_left (fun acc s -> acc + f s) 0 c.shards
  let size c = sum c (fun s -> s.s_size)
  let capacity c = c.total_capacity
  let nshards c = Array.length c.shards
  let hits c = sum c (fun s -> s.s_hits)
  let misses c = sum c (fun s -> s.s_misses)
  let evictions c = sum c (fun s -> s.s_evictions)

  let clear c =
    Array.iter
      (fun s ->
        Mutex.lock s.lock;
        Atomic.set s.map Kmap.empty;
        Atomic.incr s.gen;
        s.mru <- None;
        s.lru <- None;
        s.s_size <- 0;
        s.s_hits <- 0;
        s.s_misses <- 0;
        s.s_evictions <- 0;
        Mutex.unlock s.lock)
      c.shards

  (* Recency-list surgery, all under the shard lock. *)
  let unlink s e =
    (match e.e_prev with
    | Some p -> p.e_next <- e.e_next
    | None -> s.mru <- e.e_next);
    (match e.e_next with
    | Some nx -> nx.e_prev <- e.e_prev
    | None -> s.lru <- e.e_prev);
    e.e_prev <- None;
    e.e_next <- None

  let push_front s e =
    e.e_prev <- None;
    e.e_next <- s.mru;
    (match s.mru with Some m -> m.e_prev <- Some e | None -> s.lru <- Some e);
    s.mru <- Some e

  let touch s e =
    match s.mru with
    | Some m when m == e -> ()
    | _ ->
      unlink s e;
      push_front s e

  (* Drop the least recently used entry: pop the list tail, O(1). *)
  let evict_lru s =
    match s.lru with
    | None -> ()
    | Some victim ->
      unlink s victim;
      Atomic.set s.map (Kmap.remove victim.e_key (Atomic.get s.map));
      Atomic.incr s.gen;
      s.s_size <- s.s_size - 1;
      s.s_evictions <- s.s_evictions + 1

  (* Look up the plan for (src, dst), calling [compute] on a miss.  Hit,
     miss and eviction totals go to the cache itself and, when given, to
     the [machine] — counter bumps plus a [Plan_lookup] trace event (the
     cache outlives machine resets, so per-run reports use the machine's
     view).

     Fast path: a generation-stamped lock-free probe.  Read the shard
     generation, probe the published snapshot, re-read the generation —
     if it moved, a mutation raced the probe and the locked path decides;
     if it held, the entry is current and only the O(1) recency touch
     takes the lock.  The miss path re-probes and computes *under* the
     shard lock, so concurrent tenants missing on one canonical key plan
     it exactly once. *)
  let rec find c ?machine ~src ~dst compute =
    let k = key ~src ~dst in
    let s = shard_of c k in
    let note hit =
      Option.iter
        (fun (m : Machine.t) ->
          let ct = m.Machine.counters in
          if hit then ct.Machine.plan_hits <- ct.Machine.plan_hits + 1
          else ct.Machine.plan_misses <- ct.Machine.plan_misses + 1;
          Machine.record m (Machine.Plan_lookup { hit }))
        machine
    in
    let hit e =
      Mutex.lock s.lock;
      s.s_hits <- s.s_hits + 1;
      (* the entry may have been evicted between probe and lock; its plan
         is still valid, and re-touching a detached entry would corrupt
         the list, so only touch what the current map holds *)
      (match Kmap.find_opt k (Atomic.get s.map) with
      | Some cur when cur == e -> touch s e
      | Some _ | None -> ());
      Mutex.unlock s.lock;
      note true;
      e.e_plan
    in
    let g = Atomic.get s.gen in
    match Kmap.find_opt k (Atomic.get s.map) with
    | Some e when Atomic.get s.gen = g -> hit e
    | _ -> (
      Mutex.lock s.lock;
      match Kmap.find_opt k (Atomic.get s.map) with
      | Some e ->
        s.s_hits <- s.s_hits + 1;
        touch s e;
        Mutex.unlock s.lock;
        note true;
        e.e_plan
      | None ->
        Fun.protect
          ~finally:(fun () -> Mutex.unlock s.lock)
          (fun () ->
            s.s_misses <- s.s_misses + 1;
            note false;
            let p =
              match c.parent with
              | None -> compute ()
              | Some parent -> find parent ~src ~dst compute
            in
            (* precompile both lowerings before publication, so other
               domains that pick the plan out of the shared snapshot never
               race the memos *)
            ignore (step_program p);
            ignore (collective_program p);
            if s.s_size >= s.s_capacity then begin
              evict_lru s;
              Option.iter
                (fun (m : Machine.t) ->
                  m.Machine.counters.Machine.plan_evictions <-
                    m.Machine.counters.Machine.plan_evictions + 1)
                machine
            end;
            let e = { e_key = k; e_plan = p; e_prev = None; e_next = None } in
            push_front s e;
            Atomic.set s.map (Kmap.add k e (Atomic.get s.map));
            Atomic.incr s.gen;
            s.s_size <- s.s_size + 1;
            p))
end

let pp ppf plan =
  Fmt.pf ppf "plan: %d messages, %d moved, %d local" (nb_messages plan)
    (total_moved plan) (local_total plan)
