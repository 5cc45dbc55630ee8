(* Properties of box-to-run compilation and the datapath: the compiled
   runs of every message must enumerate exactly the (source address,
   destination address) pairs the per-element walk produces, in the
   same row-major box order, under all four addressing combinations
   (global row-major / owner-local on either side); an end-to-end remap
   must leave every global value unchanged — the known answer — on both
   store backends and under both the sequential and the domain-parallel
   executor; and the modeled staging bill follows the per-message
   staging rule ([Redist.message_stages]) exactly. *)

open Hpfc_mapping
open Hpfc_runtime

let procs n = Procs.linear "P" n

let layout_nd ~extents dists p =
  Layout.of_mapping ~extents
    (Mapping.direct ~array_name:"a" ~extents ~dist:dists ~procs:(procs p))

(* The distributed backend's addressing of a copy under [l]. *)
let owner_local l = Redist.Owner_local (Layout.Addr.make l)

(* --- (a) run decomposition is exact ------------------------------------------- *)

(* The flat address of [index] on the side described by [addressing],
   for the rank the message touches on that side.  Owner-local
   addressing is rank-independent here: replicated grid dimensions do
   not change local extents, so every replica stores the element at the
   canonical owner's local linear index. *)
let oracle_address addressing extents index =
  match addressing with
  | Redist.Row_major _ -> Layout.global_linear_index extents index
  | Redist.Owner_local a ->
    Layout.local_linear_index (Layout.Addr.layout a) index

(* Expand a run array into the (src, dst) address pairs it copies, in
   copy order. *)
let expand_runs runs =
  List.concat_map
    (fun (r : Redist.run) ->
      List.concat_map
        (fun i ->
          List.map
            (fun j ->
              ( r.Redist.r_src + (i * r.Redist.r_src_stride) + j,
                r.Redist.r_dst + (i * r.Redist.r_dst_stride) + j ))
            (List.init r.Redist.r_len Fun.id))
        (List.init r.Redist.r_count Fun.id))
    runs

(* Every message of the plan, under every (src, dst) addressing
   combination: compiled runs = per-element walk, pairwise and in
   order. *)
let addressing_combos ~(src : Layout.t) ~(dst : Layout.t) =
  let extents = src.Layout.extents in
  [
    (Redist.Row_major extents, Redist.Row_major extents);
    (Redist.Row_major extents, owner_local dst);
    (owner_local src, Redist.Row_major extents);
    (owner_local src, owner_local dst);
  ]

(* The runs the executors read: compiled for the whole plan by the
   plan-level precompile, then served from the message's memo.  The memo
   list is unchanged by the lookup, so the runs are the precompiled
   ones, not a per-message fill. *)
let precompiled_runs plan (sa, da) (m : Redist.message) =
  Redist.precompile_runs ~src:sa ~dst:da plan;
  let memo = Atomic.get m.Redist.m_paths in
  let runs = Redist.message_runs ~src:sa ~dst:da m in
  if Atomic.get m.Redist.m_paths != memo then
    Alcotest.fail "message_runs missed the precompiled memo";
  runs

let runs_exact ~(src : Layout.t) ~(dst : Layout.t) =
  let plan = Redist.plan_intervals ~src ~dst in
  let extents = src.Layout.extents in
  List.for_all
    (fun (m : Redist.message) ->
      List.for_all
        (fun (sa, da) ->
          let expected = ref [] in
          Redist.iter_box m.Redist.m_box (fun index ->
              expected :=
                (oracle_address sa extents index, oracle_address da extents index)
                :: !expected);
          let runs = precompiled_runs plan (sa, da) m in
          expand_runs (Array.to_list runs) = List.rev !expected
          && Redist.nb_run_segments runs <= m.Redist.m_count
          && Array.fold_left
               (fun acc (r : Redist.run) ->
                 acc + (r.Redist.r_len * r.Redist.r_count))
               0 runs
             = m.Redist.m_count)
        (addressing_combos ~src ~dst))
    (plan.Redist.moves @ plan.Redist.locals)

let prop_runs_exact =
  QCheck2.Test.make
    ~name:"compiled runs = per-element walk under all four addressings"
    ~print:Test_redist_props.print_pair ~count:250 Test_redist_props.gen_pair
    (fun (src, dst) -> runs_exact ~src ~dst)

let prop_runs_exact_aligned =
  QCheck2.Test.make
    ~name:"compiled runs = per-element walk under strided alignments"
    ~print:Test_redist_props.print_pair ~count:250 Test_redist_props.gen_aligned
    (fun (src, dst) -> runs_exact ~src ~dst)

(* Deterministic corners the 1-D generators cannot reach: extent-1 and
   collapsed dimensions, multi-dimensional boxes, cyclic(1) against
   block-cyclic, a transposed 2-D grid, periodic boxes with a clipped
   last period, a negative stride. *)
let corner_pairs () =
  let grid_2d ~extents dists =
    Layout.of_mapping ~extents
      (Mapping.direct ~array_name:"a" ~extents ~dist:dists
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  let e2 = [| 8; 6 |] in
  let e1 = [| 1; 7 |] in
  let t = Template.make "T" [| 12; 2 |] in
  let repl =
    Layout.of_mapping ~extents:[| 12 |]
      (Mapping.v ~template:t
         ~align:
           [| Align.Axis { array_dim = 0; stride = 1; offset = 0 };
              Align.Replicated
           |]
         ~dist:[| Dist.block; Dist.block |]
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  [
    ( "2-D corner turn",
      layout_nd ~extents:e2 [| Dist.block; Dist.star |] 4,
      layout_nd ~extents:e2 [| Dist.star; Dist.block |] 4 );
    ( "2-D block -> cyclic both dims",
      grid_2d ~extents:e2 [| Dist.block; Dist.cyclic |],
      grid_2d ~extents:e2 [| Dist.cyclic; Dist.block_sized 3 |] );
    ( "extent-1 leading dimension",
      grid_2d ~extents:e1 [| Dist.block; Dist.cyclic |],
      grid_2d ~extents:e1 [| Dist.cyclic; Dist.block |] );
    ( "cyclic(1) -> cyclic(3)",
      layout_nd ~extents:[| 17 |] [| Dist.cyclic |] 4,
      layout_nd ~extents:[| 17 |] [| Dist.cyclic_sized 3 |] 4 );
    (* replicated target: every replica rank unpacks at the canonical
       owner's local addresses *)
    ( "block -> replicated",
      layout_nd ~extents:[| 12 |] [| Dist.cyclic |] 4,
      repl );
    ( "replicated -> cyclic(1)",
      repl,
      layout_nd ~extents:[| 12 |] [| Dist.cyclic |] 4 );
    (* lcm 60 < 100: periodic boxes with multi-interval patterns and a
       clipped last period *)
    ( "cyclic(3) -> cyclic(5), periodic box",
      layout_nd ~extents:[| 100 |] [| Dist.cyclic_sized 3 |] 4,
      layout_nd ~extents:[| 100 |] [| Dist.cyclic_sized 5 |] 4 );
    (* lcm 252 >= 50: the boxes are Finite *)
    ( "cyclic(7) -> cyclic(9), lcm past the extent",
      layout_nd ~extents:[| 50 |] [| Dist.cyclic_sized 7 |] 4,
      layout_nd ~extents:[| 50 |] [| Dist.cyclic_sized 9 |] 4 );
    (* single-interval periodic patterns: one strided run plus a tail *)
    ( "cyclic(4) -> cyclic(2), single-interval patterns",
      layout_nd ~extents:[| 101 |] [| Dist.cyclic_sized 4 |] 4,
      layout_nd ~extents:[| 101 |] [| Dist.cyclic_sized 2 |] 4 );
    ( "stride -1 cyclic(2) -> cyclic(3)",
      Test_mapping.aligned_layout ~n:30 ~p:4 ~textent:33 ~stride:(-1)
        ~offset:31 (Dist.cyclic_sized 2),
      layout_nd ~extents:[| 30 |] [| Dist.cyclic_sized 3 |] 4 );
    (* innermost periods 4 and 6, lcm 12 < 40 *)
    ( "2-D with a periodic innermost box",
      grid_2d ~extents:[| 6; 40 |] [| Dist.block; Dist.cyclic_sized 2 |],
      grid_2d ~extents:[| 6; 40 |] [| Dist.cyclic; Dist.cyclic_sized 3 |] );
  ]

let test_runs_exact_corners () =
  List.iter
    (fun (name, src, dst) ->
      Alcotest.(check bool) name true (runs_exact ~src ~dst))
    (corner_pairs ())

(* --- (a'') the run arrays are the list compiler's -------------------- *)

(* The list-of-tuple run compiler this library used before it compiled
   into an int buffer, kept as an oracle the way [plan_naive] is kept:
   the compiled run arrays must be structurally identical to its, not
   merely equivalent. *)
let reference_addresser addressing ~rank_lin =
  match addressing with
  | Redist.Row_major extents ->
    let str = Redist.row_major_strides extents in
    (str, fun d lo -> lo * str.(d))
  | Redist.Owner_local a ->
    let l = Layout.Addr.layout a in
    let coords = Procs.delinearize l.Layout.procs rank_lin in
    let str =
      Redist.row_major_strides (Layout.local_extents l ~proc:coords)
    in
    let sets =
      Array.mapi
        (fun d role ->
          match role with
          | Layout.Local -> None
          | Layout.Dist pdim ->
            Some (Layout.owned_set l ~array_dim:d ~coord:coords.(pdim)))
        l.Layout.roles
    in
    ( str,
      fun d lo ->
        (match sets.(d) with None -> lo | Some s -> Ivset.count_below s lo)
        * str.(d) )

let reference_runs ~src ~dst (m : Redist.message) =
  let box = m.Redist.m_box in
  let rank = Array.length box in
  if rank = 0 then [||]
  else begin
    let ivs = Array.map Ivset.to_runs box in
    let sstr, sbase = reference_addresser src ~rank_lin:m.Redist.m_from
    and dstr, dbase = reference_addresser dst ~rank_lin:m.Redist.m_to in
    let segs = ref [] in
    let rec walk d s0 d0 =
      if d = rank - 1 then
        List.iter
          (fun (lo, len) ->
            segs := (s0 + sbase d lo, d0 + dbase d lo, len) :: !segs)
          ivs.(d)
      else
        List.iter
          (fun (lo, len) ->
            let s1 = s0 + sbase d lo and d1 = d0 + dbase d lo in
            for i = 0 to len - 1 do
              walk (d + 1) (s1 + (i * sstr.(d))) (d1 + (i * dstr.(d)))
            done)
          ivs.(d)
    in
    walk 0 0 0;
    let segs =
      List.rev
        (List.fold_left
           (fun acc (s, t, len) ->
             match acc with
             | (ps, pt, plen) :: rest when ps + plen = s && pt + plen = t ->
               (ps, pt, plen + len) :: rest
             | _ -> (s, t, len) :: acc)
           [] (List.rev !segs))
    in
    let run s t len count ss ds =
      {
        Redist.r_src = s;
        r_dst = t;
        r_len = len;
        r_count = count;
        r_src_stride = ss;
        r_dst_stride = ds;
      }
    in
    let rec group = function
      | [] -> []
      | (s, t, len) :: rest -> (
        match rest with
        | (s2, t2, len2) :: tl when len2 = len && s2 <> s ->
          let ss = s2 - s and ds = t2 - t in
          let rec extend count = function
            | (s', t', len') :: tl'
              when len' = len && s' = s + (count * ss) && t' = t + (count * ds)
              ->
              extend (count + 1) tl'
            | tl' -> (count, tl')
          in
          let count, rest' = extend 2 tl in
          run s t len count ss ds :: group rest'
        | _ -> run s t len 1 0 0 :: group rest)
    in
    Array.of_list (group segs)
  end

let runs_match_reference ~src ~dst =
  let plan = Redist.plan_intervals ~src ~dst in
  List.for_all
    (fun (sa, da) ->
      List.for_all
        (fun (m : Redist.message) ->
          Redist.compile_runs ~src:sa ~dst:da m
          = reference_runs ~src:sa ~dst:da m)
        (plan.Redist.locals @ plan.Redist.moves))
    (addressing_combos ~src ~dst)

let prop_runs_match_reference =
  QCheck2.Test.make ~name:"compiled run arrays = reference list compiler"
    ~print:Test_redist_props.print_pair ~count:250
    QCheck2.Gen.(
      oneof [ Test_redist_props.gen_pair; Test_redist_props.gen_aligned ])
    (fun (src, dst) -> runs_match_reference ~src ~dst)

let test_runs_reference_corners () =
  List.iter
    (fun (name, src, dst) ->
      Alcotest.(check bool) name true (runs_match_reference ~src ~dst))
    (corner_pairs ())

(* --- (a') plan-level precompile = per-message compilation -------------------- *)

(* On a fresh plan, the precompile (addressers built once per side and
   rank) fills every message's memo with runs structurally equal to a
   fresh per-message [compile_runs], under all four addressings. *)
let precompile_matches ~src ~dst =
  let plan = Redist.plan_intervals ~src ~dst in
  List.for_all
    (fun (sa, da) ->
      List.for_all
        (fun (m : Redist.message) ->
          precompiled_runs plan (sa, da) m
          = Redist.compile_runs ~src:sa ~dst:da m)
        (plan.Redist.locals @ plan.Redist.moves))
    (addressing_combos ~src ~dst)

let prop_precompile_matches =
  QCheck2.Test.make
    ~name:"plan-level precompile = per-message compile_runs"
    ~print:Test_redist_props.print_pair ~count:250 Test_redist_props.gen_pair
    (fun (src, dst) -> precompile_matches ~src ~dst)

let test_precompile_corners () =
  List.iter
    (fun (name, src, dst) ->
      Alcotest.(check bool) name true (precompile_matches ~src ~dst))
    (corner_pairs ())


(* --- (b) a remap moves values, never changes them ----------------------------- *)

(* The known answer: a remap leaves every global value unchanged, so the
   target copy's global view equals the fill, whichever backend and
   executor ran it. *)
let moves_exactly ?executor ~backend (src, dst) =
  let _, _, d = Test_comm.remap ~backend ?executor ~src ~dst float_of_int in
  Store.to_global (Store.get_copy d 1)
  = Array.init (Array.fold_left ( * ) 1 src.Layout.extents) float_of_int

let prop_remap_exact =
  QCheck2.Test.make
    ~name:"remap leaves global values unchanged on both backends"
    ~print:Test_redist_props.print_pair ~count:80 Test_redist_props.gen_pair
    (fun (src, dst) ->
      List.for_all
        (fun backend -> moves_exactly ~backend (src, dst))
        [ Store.Canonical; Store.Distributed ])

let prop_remap_exact_par =
  QCheck2.Test.make ~name:"parallel remap leaves global values unchanged"
    ~print:Test_redist_props.print_pair ~count:40 Test_comm.gen_irregular_pair
    (fun (src, dst) ->
      moves_exactly ~backend:Store.Distributed
        ~executor:(Test_par.par_executor ()) (src, dst))

(* Self-message-rich remaps: identity layout pairs are all locals, so
   nothing is billed as staged — and must still move every value
   exactly. *)
let print_layout l = Fmt.str "%a" Layout.pp l

let prop_identity_exact =
  QCheck2.Test.make
    ~name:"identity remaps: values unchanged, direct path stages nothing"
    ~print:print_layout ~count:60
    (Test_redist_props.gen_side ~n:48)
    (fun l ->
      List.for_all
        (fun backend ->
          moves_exactly ~backend (l, l)
          &&
          let m, _, _ = Test_comm.remap ~backend ~src:l ~dst:l float_of_int in
          let c = m.Machine.counters in
          (* a replicated layout broadcasts even onto itself: only the
             cross-rank moves may be billed as staged, and a move-free
             identity remap bills nothing staged at all *)
          (backend = Store.Distributed || c.Machine.staged_bytes = 0)
          && (c.Machine.messages > 0
             || c.Machine.staged_bytes = 0
                && c.Machine.run_blits = 0)
          && (c.Machine.local_moves = 0 || c.Machine.zero_copy_runs > 0))
        [ Store.Canonical; Store.Distributed ])

(* Deterministic self-message-heavy corners, on both backends and both
   executors: a transpose remap on one rank (everything is a
   self-message) and block -> block over nested grids (shared owners
   keep most elements local). *)
let test_self_message_corners () =
  let check name pair =
    List.iter
      (fun (what, backend, executor) ->
        Alcotest.(check bool) (name ^ ", " ^ what) true
          (moves_exactly ?executor ~backend pair))
      [
        ("canonical", Store.Canonical, None);
        ("distributed", Store.Distributed, None);
        ("parallel", Store.Distributed, Some (Test_par.par_executor ()));
      ]
  in
  let e2 = [| 6; 8 |] in
  check "transpose on 1 rank"
    ( layout_nd ~extents:e2 [| Dist.block; Dist.star |] 1,
      layout_nd ~extents:e2 [| Dist.star; Dist.block |] 1 );
  check "block -> block with shared owners"
    ( layout_nd ~extents:[| 64 |] [| Dist.block |] 4,
      layout_nd ~extents:[| 64 |] [| Dist.block_sized 16 |] 4 );
  check "block p4 -> block p2 shared owners"
    ( layout_nd ~extents:[| 64 |] [| Dist.block |] 4,
      layout_nd ~extents:[| 64 |] [| Dist.block |] 2 )

(* Datapath accounting, charged from the memoized runs and decisions:
   locals and moves that would not stage charge zero_copy_runs, the rest
   blit twice and stage their bytes. *)
let prop_zero_copy_charged =
  QCheck2.Test.make
    ~name:"zero-copy accounting on both backends"
    ~print:Test_redist_props.print_pair ~count:60 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let extents = src.Layout.extents in
      (* canonical: both sides Row_major, no message would stage *)
      let m, s, d =
        Test_comm.remap ~backend:Store.Canonical ~src ~dst float_of_int
      in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let segs addressing =
        let a_src, a_dst = addressing in
        fun (msg : Redist.message) ->
          Redist.nb_run_segments
            (Redist.message_runs ~src:a_src ~dst:a_dst msg)
      in
      let sum f msgs = List.fold_left (fun a msg -> a + f msg) 0 msgs in
      let rm = (Redist.Row_major extents, Redist.Row_major extents) in
      let c = m.Machine.counters in
      let canonical_ok =
        c.Machine.run_blits = 0
        && c.Machine.staged_bytes = 0
        && c.Machine.zero_copy_runs
           = sum (segs rm) plan.Redist.locals + sum (segs rm) plan.Redist.moves
      in
      (* distributed: per-rank buffers, only self-messages would not
         stage, and those are exactly the plan's locals *)
      let m', s', d' =
        Test_comm.remap ~backend:Store.Distributed ~src ~dst float_of_int
      in
      let plan' = Store.plan_for s' d' ~src:0 ~dst:1 in
      let ol = (owner_local src, owner_local dst) in
      let c' = m'.Machine.counters in
      let distributed_ok =
        c'.Machine.zero_copy_runs = sum (segs ol) plan'.Redist.locals
        && c'.Machine.run_blits = 2 * sum (segs ol) plan'.Redist.moves
        && c'.Machine.staged_bytes = 8 * c'.Machine.volume
      in
      canonical_ok && distributed_ok)

(* --- (c) staging is billed, never performed ------------------------------ *)

(* A distributed cross-rank remap, under both executors and both
   lowerings: every message moves payload to payload, so nothing is
   staged for real (the always-0 pool counters the benchmark reads stay
   0), while the modeled bill is exactly its formula — every cross-rank
   message would pack and unpack its segments and stage 8 bytes per
   element, and [peak_bytes] is the lowering's peak round volume.
   Block -> cyclic on 4 ranks slices every message under the collective
   lowering (its slice cap is below the message size), so sliced
   messages move whole at their offset-zero slice. *)
let test_cross_rank_stages_nothing () =
  let src = layout_nd ~extents:[| 64 |] [| Dist.block |] 4
  and dst = layout_nd ~extents:[| 64 |] [| Dist.cyclic |] 4 in
  let ol = (owner_local src, owner_local dst) in
  List.iter
    (fun (what, executor) ->
      List.iter
        (fun (lname, lower) ->
          let ctx = what ^ ", " ^ lname in
          let m, s, d =
            Test_comm.remap ~backend:Store.Distributed ?executor ~lower ~src
              ~dst float_of_int
          in
          let c = m.Machine.counters in
          let plan = Store.plan_for s d ~src:0 ~dst:1 in
          let segments =
            List.fold_left
              (fun acc msg ->
                acc
                + Redist.nb_run_segments
                    (Redist.message_runs ~src:(fst ol) ~dst:(snd ol) msg))
              0 plan.Redist.moves
          in
          let peak =
            if lower = Exec.Collective then Redist.peak_collective_volume plan
            else Redist.peak_step_volume (Redist.step_program plan)
          in
          Alcotest.(check bool) (ctx ^ ": cross-rank messages") true
            (c.Machine.messages > 0);
          Alcotest.(check bool) (ctx ^ ": values moved") true
            (Store.to_global (Store.get_copy d 1)
            = Array.init 64 float_of_int);
          Alcotest.(check int) (ctx ^ ": no staging buffer taken") 0
            (c.Machine.pool_hits + c.Machine.pool_misses);
          Alcotest.(check int) (ctx ^ ": run_blits = 2 * segments")
            (2 * segments) c.Machine.run_blits;
          Alcotest.(check int) (ctx ^ ": staged_bytes = 8 * volume")
            (8 * c.Machine.volume) c.Machine.staged_bytes;
          Alcotest.(check int) (ctx ^ ": peak_bytes = 8 * peak round")
            (8 * peak) c.Machine.peak_bytes)
        [ ("p2p", Exec.P2p); ("collective", Exec.Collective) ])
    [ ("sequential", None); ("parallel", Some (Test_par.par_executor ())) ];
  let plan = Redist.plan_intervals ~src ~dst in
  Alcotest.(check bool) "collective slices every message" true
    (List.for_all
       (fun (msg : Redist.message) ->
         (Redist.collective_program plan).Redist.c_slice_cap
         < msg.Redist.m_count)
       plan.Redist.moves)

(* Zero-copy accounting: on the canonical backend no message would
   stage (both sides are globally addressed), so a remap bills nothing
   staged and charges zero_copy_runs instead. *)
let test_zero_copy_steady_state () =
  let src = layout_nd ~extents:[| 64 |] [| Dist.block |] 4
  and dst = layout_nd ~extents:[| 64 |] [| Dist.cyclic |] 4 in
  let m, _, _ =
    Test_comm.remap ~backend:Store.Canonical ~src ~dst float_of_int
  in
  let c = m.Machine.counters in
  Alcotest.(check bool) "plan has messages" true (c.Machine.messages > 0);
  Alcotest.(check int) "nothing staged" 0 c.Machine.staged_bytes;
  Alcotest.(check int) "no staged blits" 0 c.Machine.run_blits;
  Alcotest.(check bool) "direct copies charged" true
    (c.Machine.zero_copy_runs > 0)

(* --- (d) overlap safety of the direct path -------------------------------------- *)

(* An in-place remap exposes one payload wrapper to both endpoints of a
   self-message; the direct path must then copy with memmove semantics.
   The cyclic owned set of rank 1 compiles to a single strided run whose
   source and destination regions overlap on the shared buffer: the
   gather direction (global row-major -> owner-local) is only correct
   iterating forward, the scatter direction only iterating backward, so
   both directions regression-test the overtaking check.  (A staging
   copy would mask this class of bug — packing reads everything before
   any write — which is why the payload-to-payload path needs its own
   test.) *)
let test_direct_overlap_inplace () =
  let n = 16 in
  let l = layout_nd ~extents:[| n |] [| Dist.cyclic |] 2 in
  let endpoint buf addressing =
    { Comm.addressing; buffer = (fun ~rank:_ -> buf) }
  in
  (* rank 1 owns the odd elements: box = {1, 3, ..., 15} *)
  let message () =
    {
      Redist.m_from = 1;
      m_to = 1;
      m_count = n / 2;
      m_box =
        [| Ivset.Periodic { period = 2; pattern = [ (1, 2) ]; extent = n } |];
      m_paths = Atomic.make [];
    }
  in
  let fresh () = Buf.of_array (Array.init n float_of_int) in
  (* gather: buf[k] := buf[2k+1] — destination trails the source *)
  let buf = fresh () in
  Comm.run_direct
    ~src:(endpoint buf (Redist.Row_major [| n |]))
    ~dst:(endpoint buf (owner_local l))
    (message ());
  for k = 0 to (n / 2) - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "gather element %d" k)
      (float_of_int ((2 * k) + 1))
      (Buf.get buf k)
  done;
  (* scatter: buf[2k+1] := buf[k] — destination overtakes the source *)
  let buf = fresh () in
  Comm.run_direct
    ~src:(endpoint buf (owner_local l))
    ~dst:(endpoint buf (Redist.Row_major [| n |]))
    (message ());
  for k = 0 to (n / 2) - 1 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "scatter element %d" k)
      (float_of_int k)
      (Buf.get buf ((2 * k) + 1))
  done

(* --- (e) the run-copy kernel ------------------------------------------------- *)

(* [Buf.copy_run]'s reference: the per-element copy over distinct
   buffers, segments in order. *)
let copy_run_reference src spos sstride dst dpos dstride ~len ~count =
  for i = 0 to count - 1 do
    for j = 0 to len - 1 do
      Buf.set dst
        (dpos + (i * dstride) + j)
        (Buf.get src (spos + (i * sstride) + j))
    done
  done

(* Every segment of the run inside a buffer of [dim] elements?  (Empty
   runs copy nothing and are valid anywhere.) *)
let segments_in_bounds dim pos stride ~len ~count =
  List.for_all
    (fun i ->
      let p = pos + (i * stride) in
      p >= 0 && p + len <= dim)
    (List.init count Fun.id)

type run_case = {
  c_sdim : int;
  c_ddim : int;
  c_spos : int;
  c_sstride : int;
  c_dpos : int;
  c_dstride : int;
  c_len : int;
  c_count : int;
}

let print_run_case c =
  Printf.sprintf
    "src dim %d pos %d stride %d -> dst dim %d pos %d stride %d, len %d x %d"
    c.c_sdim c.c_spos c.c_sstride c.c_ddim c.c_dpos c.c_dstride c.c_len
    c.c_count

(* Mostly in-bounds runs over small buffers, with negative and zero
   strides and a share of runs that stick out of either buffer. *)
let gen_run_case =
  QCheck2.Gen.(
    let* c_len = int_range 0 6 and* c_count = int_range 0 6 in
    let* c_sstride = int_range (-9) 9 and* c_dstride = int_range (-9) 9 in
    let* c_sdim = int_range 0 48 and* c_ddim = int_range 0 48 in
    let* c_spos = int_range (-2) 50 and* c_dpos = int_range (-2) 50 in
    return
      { c_sdim; c_ddim; c_spos; c_sstride; c_dpos; c_dstride; c_len; c_count })

let prop_copy_run_reference =
  QCheck2.Test.make
    ~name:"Buf.copy_run = per-element copy; out of bounds raises, writes nothing"
    ~print:print_run_case ~count:2000 gen_run_case (fun c ->
      let src = Buf.of_array (Array.init c.c_sdim (fun i -> float_of_int (i + 1)))
      and dst = Buf.of_array (Array.init c.c_ddim (fun i -> -.float_of_int i)) in
      let before = Buf.to_array dst in
      let ok =
        c.c_len = 0 || c.c_count = 0
        || segments_in_bounds c.c_sdim c.c_spos c.c_sstride ~len:c.c_len
          ~count:c.c_count
        && segments_in_bounds c.c_ddim c.c_dpos c.c_dstride ~len:c.c_len
             ~count:c.c_count
      in
      match
        Buf.copy_run src c.c_spos c.c_sstride dst c.c_dpos c.c_dstride
          ~len:c.c_len ~count:c.c_count
      with
      | () ->
        let expected = Buf.of_array before in
        copy_run_reference src c.c_spos c.c_sstride expected c.c_dpos
          c.c_dstride ~len:c.c_len ~count:c.c_count;
        ok && Buf.to_array dst = Buf.to_array expected
      | exception Invalid_argument _ -> (not ok) && Buf.to_array dst = before)

(* Memmove semantics on shared storage: the result of an aliased run
   equals reading every source segment before writing any. *)
let check_aliased name ~src ~dst spos sstride dpos dstride ~len ~count =
  let snapshot = Buf.of_array (Buf.to_array src) in
  let expected = Buf.of_array (Buf.to_array dst) in
  copy_run_reference snapshot spos sstride expected dpos dstride ~len ~count;
  let expected = Buf.to_array expected in
  Buf.copy_run src spos sstride dst dpos dstride ~len ~count;
  Alcotest.(check (array (float 0.0))) name expected (Buf.to_array dst)

(* Overlap in both directions, contiguous and strided, on one buffer and
   on two sub views of one block (which the kernel cannot tell apart
   from distinct buffers by the wrappers alone). *)
let test_copy_run_overlap () =
  let fresh () = Buf.of_array (Array.init 40 float_of_int) in
  let one name spos sstride dpos dstride ~len ~count =
    let b = fresh () in
    check_aliased ("one buffer: " ^ name) ~src:b ~dst:b spos sstride
      dpos dstride ~len ~count
  and views name ~soff ~doff spos sstride dpos dstride ~len ~count =
    let b = fresh () in
    let src = Buf.sub b soff (40 - soff) and dst = Buf.sub b doff (40 - doff) in
    check_aliased ("sub views: " ^ name) ~src ~dst spos sstride dpos
      dstride ~len ~count
  in
  one "contiguous shift right" 0 0 3 0 ~len:20 ~count:1;
  one "contiguous shift left" 3 0 0 0 ~len:20 ~count:1;
  one "segments shift right" 0 4 2 4 ~len:4 ~count:8;
  one "segments shift left" 2 4 0 4 ~len:4 ~count:8;
  one "gather (dst trails)" 1 2 0 1 ~len:1 ~count:16;
  one "scatter (dst leads)" 0 1 1 2 ~len:1 ~count:16;
  one "gather blocks" 3 6 0 3 ~len:3 ~count:6;
  one "scatter blocks" 0 3 3 6 ~len:3 ~count:6;
  one "negative strides, dst trails" 36 (-4) 32 (-4) ~len:4 ~count:8;
  one "negative strides, dst leads" 32 (-4) 36 (-4) ~len:4 ~count:8;
  views "shift right" ~soff:0 ~doff:5 0 4 0 4 ~len:4 ~count:8;
  views "shift left" ~soff:5 ~doff:0 0 4 0 4 ~len:4 ~count:8;
  views "gather" ~soff:1 ~doff:0 0 2 0 1 ~len:1 ~count:16;
  views "scatter" ~soff:0 ~doff:1 0 1 0 2 ~len:1 ~count:16

(* Out-of-bounds runs raise before touching either buffer, whichever
   segment is the one that sticks out. *)
let test_copy_run_bounds () =
  let src = Buf.of_array (Array.init 16 float_of_int) in
  let dst = Buf.create 16 in
  let rejects name f =
    (match f () with
    | () -> Alcotest.failf "%s: no Invalid_argument" name
    | exception Invalid_argument _ -> ());
    Alcotest.(check (array (float 0.0)))
      (name ^ ": nothing written") (Array.make 16 0.0) (Buf.to_array dst)
  in
  rejects "last source segment past the end" (fun () ->
      Buf.copy_run src 0 5 dst 0 4 ~len:2 ~count:4);
  rejects "last destination segment past the end" (fun () ->
      Buf.copy_run src 0 4 dst 1 5 ~len:2 ~count:4);
  rejects "negative stride below zero" (fun () ->
      Buf.copy_run src 6 (-3) dst 0 2 ~len:2 ~count:4);
  rejects "negative start" (fun () ->
      Buf.copy_run src (-1) 1 dst 0 1 ~len:1 ~count:2);
  rejects "negative length" (fun () ->
      Buf.copy_run src 0 1 dst 0 1 ~len:(-1) ~count:2);
  rejects "huge stride" (fun () ->
      Buf.copy_run src 0 max_int dst 0 1 ~len:1 ~count:3);
  Buf.copy_run src 0 1 dst 0 1 ~len:0 ~count:5;
  Buf.copy_run src 99 1 dst 99 1 ~len:3 ~count:0;
  Alcotest.(check (array (float 0.0)))
    "empty runs copy nothing" (Array.make 16 0.0) (Buf.to_array dst)

(* The datapath allocates nothing per segment: executing a cached plan
   through [Comm.execute] allocates the same minor words at twice the
   array size, where every run has twice the segments.  (Block ->
   cyclic compiles each message to one strided run whose segment count
   grows with the extent; on the distributed backend every message,
   local or cross-rank, copies payload to payload.) *)
let test_execute_allocation () =
  let words ~n =
    let src = layout_nd ~extents:[| n |] [| Dist.block |] 4
    and dst = layout_nd ~extents:[| n |] [| Dist.cyclic |] 4 in
    let mach = Machine.create ~nprocs:4 ~lower:Exec.P2p () in
    let s = Store.create ~backend:Store.Distributed mach in
    let d =
      Store.add_descriptor s ~name:"a" ~extents:[| n |] ~nb_versions:2 ()
    in
    Store.alloc s d 0 src;
    Store.alloc s d 1 dst;
    let sep = Store.endpoint_of_copy (Store.get_copy d 0)
    and dep = Store.endpoint_of_copy (Store.get_copy d 1) in
    let plan = Redist.plan_intervals ~src ~dst in
    (* warm: run memos and step program *)
    Comm.execute mach ~src:sep ~dst:dep plan;
    Comm.execute mach ~src:sep ~dst:dep plan;
    let w0 = Gc.minor_words () in
    Comm.execute mach ~src:sep ~dst:dep plan;
    Gc.minor_words () -. w0
  in
  Alcotest.(check (float 0.0)) "minor words at 2x extent" (words ~n:4096)
    (words ~n:8192)

(* --- (d) Ivset.to_runs ----------------------------------------------------------- *)

let test_ivset_to_runs () =
  let p =
    Ivset.Periodic { period = 8; pattern = [ (1, 3); (6, 7) ]; extent = 20 }
  in
  Alcotest.(check (list (pair int int)))
    "periodic runs"
    [ (1, 2); (6, 1); (9, 2); (14, 1); (17, 2) ]
    (Ivset.to_runs p);
  Alcotest.(check (list (pair int int)))
    "finite runs" [ (0, 4) ]
    (Ivset.to_runs (Ivset.Finite [ (0, 2); (2, 4) ]));
  Alcotest.(check (list (pair int int))) "empty" [] (Ivset.to_runs (Ivset.Finite []))

let suite =
  [
    Qcheck_env.to_alcotest prop_runs_exact;
    Alcotest.test_case "run decomposition corners" `Quick
      test_runs_exact_corners;
    Qcheck_env.to_alcotest prop_remap_exact;
    Qcheck_env.to_alcotest prop_remap_exact_par;
    Qcheck_env.to_alcotest prop_identity_exact;
    Alcotest.test_case "self-message corners" `Quick test_self_message_corners;
    Qcheck_env.to_alcotest prop_zero_copy_charged;
    Alcotest.test_case "cross-rank remap stages nothing for real" `Quick
      test_cross_rank_stages_nothing;
    Alcotest.test_case "zero-copy steady state" `Quick
      test_zero_copy_steady_state;
    Alcotest.test_case "direct path in-place overlap" `Quick
      test_direct_overlap_inplace;
    Alcotest.test_case "Buf overlap semantics" `Quick test_copy_run_overlap;
    Qcheck_env.to_alcotest prop_copy_run_reference;
    Alcotest.test_case "Buf.copy_run bounds" `Quick test_copy_run_bounds;
    Alcotest.test_case "execute allocation independent of segments" `Quick
      test_execute_allocation;
    Qcheck_env.to_alcotest prop_precompile_matches;
    Alcotest.test_case "precompile corners" `Quick test_precompile_corners;
    Alcotest.test_case "Ivset.to_runs" `Quick test_ivset_to_runs;
    Qcheck_env.to_alcotest prop_runs_exact_aligned;
    Qcheck_env.to_alcotest prop_runs_match_reference;
    Alcotest.test_case "run arrays = reference on corners" `Quick
      test_runs_reference_corners;
  ]
