(* Property tests for the redistribution engine and the stepped message
   scheduler: on random layout pairs — including replicated and
   constant-aligned layouts, which the interval engine now plans directly
   by constraining grid coordinates — the interval engine agrees with the
   per-element oracle, message boxes multiply out to their counts, the
   greedy edge-coloring partitions the plan into contention-free steps,
   and the stepped time every run is charged dominates the critical-path
   lower bound ([Redist.modeled_time], the cost of the whole plan as one
   unordered exchange: a reference bound, not an accounting mode — it
   catches a [step_time] that undercharges, which contention-freedom
   alone would not). *)

open Hpfc_mapping
open Hpfc_runtime

let procs n = Procs.linear "P" n

let layout_1d ?(n = 16) dist p =
  Layout.of_mapping ~extents:[| n |]
    (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| dist |]
       ~procs:(procs p))

(* A regular (axis-driven) 1-D layout; block sizes too small to cover the
   extent are widened to the default block. *)
let gen_regular ~n =
  QCheck2.Gen.(
    let* p = int_range 1 5 in
    let* fmt = Test_mapping.gen_fmt in
    let fmt =
      match fmt with
      | Dist.Block (Some k) when k * p < n -> Dist.Block None
      | f -> f
    in
    return (layout_1d ~n fmt p))

(* An irregular layout: the array is aligned with a rank-2 template whose
   second dimension is replicated (a copy at every grid coordinate) or
   constant (the whole array at one fixed coordinate).  Neither carries an
   array dimension, so the interval engine plans them by constraining
   which grid coordinates participate. *)
let gen_irregular ~n =
  QCheck2.Gen.(
    let* p = int_range 1 4 in
    let* r = int_range 1 3 in
    let* fmt = oneofl [ Dist.block; Dist.cyclic ] in
    let* second =
      oneof
        [
          return Align.Replicated;
          map (fun c -> Align.Const c) (int_range 0 (r - 1));
        ]
    in
    let t = Template.make "T" [| n; r |] in
    let align =
      [| Align.Axis { array_dim = 0; stride = 1; offset = 0 }; second |]
    in
    return
      (Layout.of_mapping ~extents:[| n |]
         (Mapping.v ~template:t ~align
            ~dist:[| fmt; Dist.block |]
            ~procs:(Procs.make "G" [| p; r |]))))

let gen_side ~n =
  QCheck2.Gen.(
    let* irregular = frequency [ (3, return false); (1, return true) ] in
    if irregular then gen_irregular ~n else gen_regular ~n)

let gen_pair =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    pair (gen_side ~n) (gen_side ~n))

(* A 1-D side aligned x -> stride*x + offset with a template larger than
   the array: stride in +-{1, 2, 3}, any valid offset within up to 12
   cells of slack, block or cyclic(k) on 1..5 processors.  [gen_pair]
   only makes the identity alignment. *)
let gen_aligned_side ?(max_p = 5) ~n () =
  QCheck2.Gen.(
    let* p = int_range 1 max_p in
    let* stride = oneofl [ 1; 2; 3; -1; -2; -3 ] in
    let* slack = int_range 0 12 in
    let* j = int_range 0 slack in
    let* fmt =
      oneof [ return Dist.block; map Dist.cyclic_sized (int_range 1 4) ]
    in
    let span = abs stride * (n - 1) in
    let offset = if stride > 0 then j else span + j in
    return
      (Test_mapping.aligned_layout ~n ~p ~textent:(span + 1 + slack) ~stride
         ~offset fmt))

let gen_aligned =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    pair (gen_aligned_side ~n ()) (gen_aligned_side ~n ()))

let print_pair (src, dst) =
  Fmt.str "src=%a dst=%a" Layout.pp src Layout.pp dst

(* --- engines agree ---------------------------------------------------------- *)

let prop_engines_agree_mixed =
  QCheck2.Test.make
    ~name:"plan_intervals = plan_naive on volume and per-pair counts"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let naive = Redist.plan_naive ~src ~dst in
      let fast = Redist.plan_intervals ~src ~dst in
      Redist.total_moved naive = Redist.total_moved fast
      && Redist.pairs naive = Redist.pairs fast
      && Redist.local_pairs naive = Redist.local_pairs fast)

let prop_engines_agree_aligned =
  QCheck2.Test.make
    ~name:"plan_intervals = plan_naive under strided and offset alignments"
    ~print:print_pair ~count:300 gen_aligned (fun (src, dst) ->
      Redist.equal (Redist.plan_naive ~src ~dst)
        (Redist.plan_intervals ~src ~dst))

(* --- the sweep table ------------------------------------------------- *)

(* The coordinate owning index [x] along array dimension [d] (0 for a
   collapsed dimension), and the x-period of the dimension's cyclic
   ownership. *)
let coord_along (l : Layout.t) d x =
  match l.Layout.roles.(d) with
  | Layout.Local -> 0
  | Layout.Dist pdim -> (
    match l.Layout.sources.(pdim) with
    | Layout.From_axis { stride; offset; fmt; _ } ->
      Layout.owner_of_cell ~nprocs:l.Layout.procs.Procs.shape.(pdim) fmt
        ((stride * x) + offset)
    | Layout.From_const _ | Layout.Replicated -> assert false)

(* Every entry of [Redist.dim_table] is {x | src owner c1, dst owner c2}
   along [d], represented as the pairwise intersection of owned sets
   would: [Periodic] with the lcm of both x-periods when both sides are
   periodic below the extent and so is the lcm, else [Finite]; sorted
   maximal intervals within one window. *)
let table_ok ~(src : Layout.t) ~(dst : Layout.t) d =
  let n = src.Layout.extents.(d) in
  let table = Redist.dim_table ~src ~dst d in
  let ncoords (l : Layout.t) =
    match l.Layout.roles.(d) with
    | Layout.Local -> 1
    | Layout.Dist pdim -> l.Layout.procs.Procs.shape.(pdim)
  in
  let window =
    match
      (Layout.x_period src ~array_dim:d, Layout.x_period dst ~array_dim:d)
    with
    | Some p1, Some p2 when Hpfc_base.Util.lcm p1 p2 < n ->
      Some (Hpfc_base.Util.lcm p1 p2)
    | _ -> None
  in
  Array.length table = ncoords src
  && Array.for_all (fun row -> Array.length row = ncoords dst) table
  && List.for_all
       (fun c1 ->
         List.for_all
           (fun c2 ->
             let set = table.(c1).(c2) in
             let members =
               List.filter
                 (fun x -> coord_along src d x = c1 && coord_along dst d x = c2)
                 (List.init n Fun.id)
             in
             Ivset.to_intervals set = Test_mapping.intervals_of_sorted members
             &&
             match (set, window) with
             | Ivset.Periodic { period; pattern; extent }, Some w ->
               period = w && extent = n
               && Test_mapping.maximal_within w pattern
             | Ivset.Finite ivs, None -> Test_mapping.maximal_within n ivs
             | (Ivset.Periodic _ | Ivset.Finite _), _ -> false)
           (List.init (ncoords dst) Fun.id))
       (List.init (ncoords src) Fun.id)

let prop_sweep_table =
  QCheck2.Test.make ~name:"sweep table entry = {x | src owner c1, dst owner c2}"
    ~print:print_pair ~count:300
    QCheck2.Gen.(oneof [ gen_pair; gen_aligned ])
    (fun (src, dst) -> table_ok ~src ~dst 0)

(* Exhaustively on small grids: extents <= 12, 1..3 processors a side,
   block and cyclic(1..3), strides 1, -1 and 2, two offsets each. *)
let test_sweep_table_small () =
  for n = 1 to 12 do
    let sides =
      List.concat_map
        (fun p ->
          List.concat_map
            (fun fmt ->
              List.concat_map
                (fun stride ->
                  let span = abs stride * (n - 1) in
                  List.map
                    (fun j ->
                      Test_mapping.aligned_layout ~n ~p ~textent:(span + 2)
                        ~stride
                        ~offset:(if stride > 0 then j else span + j)
                        fmt)
                    [ 0; 1 ])
                [ 1; -1; 2 ])
            Dist.[ block; cyclic; cyclic_sized 2; cyclic_sized 3 ])
        [ 1; 2; 3 ]
    in
    List.iter
      (fun src ->
        List.iter
          (fun dst ->
            if not (table_ok ~src ~dst 0) then
              Alcotest.failf "%s" (print_pair (src, dst)))
          sides)
      sides
  done

(* Every message's box multiplies out to its element count, and its
   per-dimension sets materialize to that many index vectors. *)
let prop_boxes_match_counts =
  QCheck2.Test.make ~name:"message boxes multiply out to their counts"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      List.for_all
        (fun (m : Redist.message) ->
          let walked = ref 0 in
          Redist.iter_box m.Redist.m_box (fun _ -> incr walked);
          Redist.box_size m.Redist.m_box = m.Redist.m_count
          && !walked = m.Redist.m_count)
        (plan.Redist.moves @ plan.Redist.locals))

(* --- step decomposition ------------------------------------------------------ *)

let triples ms =
  List.map (fun (m : Redist.message) -> (m.Redist.m_from, m.Redist.m_to, m.Redist.m_count)) ms

(* The first-fit coloring as it was first written, with one hash table
   of busy senders and one of busy receivers per step, kept as the oracle
   for the array-based [Redist.steps] the way [plan_naive] is kept. *)
let steps_reference (plan : Redist.plan) =
  let by_size =
    List.stable_sort
      (fun (a : Redist.message) (b : Redist.message) ->
        Int.compare b.Redist.m_count a.Redist.m_count)
      plan.Redist.moves
  in
  let slots = ref [] in
  let place (m : Redist.message) =
    let rec find = function
      | [] ->
        let slot = (Hashtbl.create 8, Hashtbl.create 8, ref []) in
        slots := !slots @ [ slot ];
        slot
      | ((senders, receivers, _) as slot) :: rest ->
        if Hashtbl.mem senders m.Redist.m_from
           || Hashtbl.mem receivers m.Redist.m_to
        then find rest
        else slot
    in
    let senders, receivers, msgs = find !slots in
    Hashtbl.replace senders m.Redist.m_from ();
    Hashtbl.replace receivers m.Redist.m_to ();
    msgs := m :: !msgs
  in
  List.iter place by_size;
  List.map
    (fun (_, _, msgs) ->
      List.sort
        (fun (a : Redist.message) (b : Redist.message) ->
          compare
            (a.Redist.m_from, a.Redist.m_to)
            (b.Redist.m_from, b.Redist.m_to))
        !msgs)
    !slots

let prop_steps_match_reference =
  QCheck2.Test.make ~name:"steps = reference hash-table first-fit coloring"
    ~print:print_pair ~count:300
    QCheck2.Gen.(oneof [ gen_pair; gen_aligned ])
    (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      List.map triples (Redist.steps plan)
      = List.map triples (steps_reference plan))

(* The steps partition the plan's moves exactly: same multiset of
   messages. *)
let prop_steps_partition =
  QCheck2.Test.make ~name:"steps partition the plan's moves exactly"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let flattened = triples (List.concat (Redist.steps plan)) in
      List.sort compare flattened = Redist.pairs plan)

(* Within a step, no processor sends twice and none receives twice. *)
let prop_steps_contention_free =
  QCheck2.Test.make ~name:"no processor twice on either side of a step"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      List.for_all
        (fun step ->
          let senders = List.map (fun (f, _, _) -> f) (triples step)
          and receivers = List.map (fun (_, t, _) -> t) (triples step) in
          List.length (List.sort_uniq compare senders) = List.length senders
          && List.length (List.sort_uniq compare receivers)
             = List.length receivers)
        (Redist.steps plan))

(* Every message carries something, and the recorded peak volume is the
   max over steps of the step volume. *)
let prop_steps_volumes =
  QCheck2.Test.make ~name:"step volumes are positive and peak is their max"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let steps = Redist.steps plan in
      List.for_all
        (fun s ->
          List.for_all (fun (m : Redist.message) -> m.Redist.m_count > 0) s
          && s <> [])
        steps
      && Redist.peak_step_volume steps
         = List.fold_left (fun acc s -> max acc (Redist.step_volume s)) 0 steps)

(* --- stepped time dominates the critical-path bound ------------------------- *)

let prop_stepped_dominates_burst =
  QCheck2.Test.make ~name:"stepped modeled time >= burst critical path"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let burst = Redist.modeled_time Machine.default_cost plan in
      let stepped = Redist.modeled_time_stepped Machine.default_cost plan in
      stepped >= burst -. 1e-6)

(* The greedy coloring never needs more than 2 * max degree - 1 steps
   (first-fit bound on bipartite edge coloring). *)
let prop_steps_bounded =
  QCheck2.Test.make ~name:"greedy coloring uses < 2 * max degree steps"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let degree =
        let tally = Hashtbl.create 16 in
        let bump k =
          Hashtbl.replace tally k
            (1 + Option.value (Hashtbl.find_opt tally k) ~default:0)
        in
        List.iter
          (fun (f, t, _) ->
            bump (`S f);
            bump (`R t))
          (Redist.pairs plan);
        Hashtbl.fold (fun _ n acc -> max n acc) tally 0
      in
      List.length (Redist.steps plan) <= max 0 ((2 * degree) - 1))

(* --- plan cache -------------------------------------------------------------- *)

(* The cache returns the plan computed on the first occurrence of a layout
   pair (physically, so cached plans are never recomputed), and the key
   canonicalization ignores grid names but distinguishes extents. *)
let prop_cache_memoizes =
  QCheck2.Test.make ~name:"plan cache memoizes on the canonical layout pair"
    ~print:print_pair ~count:300 gen_pair (fun (src, dst) ->
      let cache = Redist.Plan_cache.create () in
      let plan () = Redist.plan_intervals ~src ~dst in
      let p1 = Redist.Plan_cache.find cache ~src ~dst plan in
      let p2 = Redist.Plan_cache.find cache ~src ~dst plan in
      p1 == p2
      && Redist.Plan_cache.hits cache = 1
      && Redist.Plan_cache.misses cache = 1
      && Redist.Plan_cache.size cache = 1)

(* --- compiled addressing ------------------------------------------- *)

(* A rank-2 layout for the addresser property, extents <= 12 and at
   most 4 processors: array dim 0 aligned as [gen_aligned_side] makes it
   (strided, offset, reversed; block or cyclic(k)); array dim 1
   collapsed or distributed block/cyclic(k); and optionally one more
   template dim, constant-aligned or replicated, on its own grid dim. *)
let gen_addr_layout =
  QCheck2.Gen.(
    let* n0 = int_range 1 12 and* n1 = int_range 1 12 in
    let* side = gen_aligned_side ~max_p:4 ~n:n0 () in
    let p = Procs.size side.Layout.procs in
    let stride, offset, fmt0, textent =
      match side.Layout.sources.(0) with
      | Layout.From_axis { stride; offset; fmt; textent; _ } ->
        ( stride,
          offset,
          (match fmt with
          | Layout.FBlock k -> Dist.block_sized k
          | Layout.FCyclic k -> Dist.cyclic_sized k),
          textent )
      | Layout.From_const _ | Layout.Replicated -> assert false
    in
    let* dim1 =
      option
        (pair (oneofl [ 1; 2 ])
           (oneof [ return Dist.block; map Dist.cyclic_sized (int_range 1 3) ]))
    in
    let q1 = match dim1 with Some (q, _) when p * q <= 4 -> q | _ -> 1 in
    let* extra =
      option
        (let* r = int_range 1 3 in
         let* q = oneofl [ 1; 2 ] in
         let* a =
           oneof
             [
               return Align.Replicated;
               map (fun c -> Align.Const c) (int_range 0 (r - 1));
             ]
         in
         return (r, q, a))
    in
    let q2 =
      match extra with Some (_, q, _) when p * q1 * q <= 4 -> q | _ -> 1
    in
    let dims =
      [ (textent, Align.Axis { array_dim = 0; stride; offset }, fmt0, p) ]
      @ (match dim1 with
        | Some (_, f) ->
          [ (n1, Align.Axis { array_dim = 1; stride = 1; offset = 0 }, f, q1) ]
        | None -> [])
      @
      match extra with
      | Some (r, _, a) -> [ (r, a, Dist.block, q2) ]
      | None -> []
    in
    let col f = Array.of_list (List.map f dims) in
    return
      (Layout.of_mapping ~extents:[| n0; n1 |]
         (Mapping.v
            ~template:(Template.make "T" (col (fun (e, _, _, _) -> e)))
            ~align:(col (fun (_, a, _, _) -> a))
            ~dist:(col (fun (_, _, f, _) -> f))
            ~procs:(Procs.make "G" (col (fun (_, _, _, q) -> q))))))

(* [Layout.Addr] against the reference specification, on every element:
   owner rank and replica ranks ([owner], [owners]), local offset
   ([local_linear_index]), every processor's local extents, and the
   per-dimension index at every owned index and at every multiple of a
   cyclic x-period ([Ivset.count_below] of the owned set). *)
let prop_addresser_matches_reference =
  QCheck2.Test.make
    ~name:"Layout.Addr = owner/owners/local_linear_index, exhaustive"
    ~print:(Fmt.to_to_string Layout.pp) ~count:300 gen_addr_layout (fun l ->
      let a = Layout.Addr.make l in
      let procs = l.Layout.procs in
      let ok = ref true in
      let check b = if not b then ok := false in
      for p = 0 to Procs.size procs - 1 do
        let proc = Procs.delinearize procs p in
        check (Layout.Addr.local_extents a ~proc = Layout.local_extents l ~proc)
      done;
      let e = l.Layout.extents in
      for x0 = 0 to e.(0) - 1 do
        for x1 = 0 to e.(1) - 1 do
          let idx = [| x0; x1 |] in
          let base = Layout.Addr.owner_rank a idx in
          check (base = Procs.linearize procs (Layout.owner l idx));
          check
            (List.sort compare
               (Array.to_list (Array.map (( + ) base) (Layout.Addr.replicas a)))
            = List.sort compare
                (List.map (Procs.linearize procs) (Layout.owners l idx)));
          check (Layout.Addr.offset a idx = Layout.local_linear_index l idx)
        done
      done;
      Array.iteri
        (fun dim role ->
          match role with
          | Layout.Local ->
            for x = 0 to e.(dim) - 1 do
              check (Layout.Addr.index_along a ~dim ~coord:0 x = x)
            done
          | Layout.Dist pdim ->
            for coord = 0 to procs.Procs.shape.(pdim) - 1 do
              let set = Layout.owned_set l ~array_dim:dim ~coord in
              let on_period x =
                match Layout.x_period l ~array_dim:dim with
                | Some p -> x mod p = 0
                | None -> false
              in
              for x = 0 to e.(dim) - 1 do
                if coord_along l dim x = coord || on_period x then
                  check
                    (Layout.Addr.index_along a ~dim ~coord x
                    = Ivset.count_below set x)
              done
            done)
        l.Layout.roles;
      !ok)

let suite =
  [
    Qcheck_env.to_alcotest prop_engines_agree_mixed;
    Qcheck_env.to_alcotest prop_boxes_match_counts;
    Qcheck_env.to_alcotest prop_steps_partition;
    Qcheck_env.to_alcotest prop_steps_contention_free;
    Qcheck_env.to_alcotest prop_steps_volumes;
    Qcheck_env.to_alcotest prop_stepped_dominates_burst;
    Qcheck_env.to_alcotest prop_steps_bounded;
    Qcheck_env.to_alcotest prop_cache_memoizes;
    Qcheck_env.to_alcotest prop_engines_agree_aligned;
    Qcheck_env.to_alcotest prop_sweep_table;
    Alcotest.test_case "sweep table, exhaustive on small grids" `Quick
      test_sweep_table_small;
    Qcheck_env.to_alcotest prop_steps_match_reference;
    Qcheck_env.to_alcotest prop_addresser_matches_reference;
  ]
