(* Runtime tests: redistribution plans (naive vs interval engines, coverage,
   symmetry), cost model, store descriptors, memory-pressure eviction. *)

open Hpfc_mapping
open Hpfc_runtime

let procs n = Procs.linear "P" n

let layout_1d ?(n = 16) dist p =
  Layout.of_mapping ~extents:[| n |]
    (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| dist |]
       ~procs:(procs p))

let layout_2d ?(n = 8) dists p =
  Layout.of_mapping ~extents:[| n; n |]
    (Mapping.direct ~array_name:"a" ~extents:[| n; n |]
       ~dist:(Array.of_list dists) ~procs:p)

(* --- plan basics --------------------------------------------------------- *)

let test_block_to_cyclic_plan () =
  let src = layout_1d Dist.block 4 and dst = layout_1d Dist.cyclic 4 in
  let plan = Redist.plan_naive ~src ~dst in
  (* 16 elements: each proc keeps exactly one element (e.g. proc 0 owns 0-3
     under block and 0,4,8,12 under cyclic: keeps 0) *)
  Alcotest.(check int) "local" 4 (Redist.covered plan - Redist.total_moved plan);
  Alcotest.(check int) "moved" 12 (Redist.total_moved plan);
  Alcotest.(check int) "messages" 12 (Redist.nb_messages plan)

let test_identity_plan_is_free () =
  let src = layout_1d Dist.block 4 in
  let plan = Redist.plan_naive ~src ~dst:src in
  Alcotest.(check int) "no messages" 0 (Redist.nb_messages plan);
  Alcotest.(check int) "all local" 16 (Redist.local_total plan)

let test_transpose_plan () =
  (* block-star -> star-block: classic 2-D FFT transpose remap; every
     processor keeps its diagonal block *)
  let src = layout_2d [ Dist.block; Dist.star ] (procs 4)
  and dst = layout_2d [ Dist.star; Dist.block ] (procs 4) in
  let plan = Redist.plan_intervals ~src ~dst in
  Alcotest.(check int) "messages" (4 * 3) (Redist.nb_messages plan);
  Alcotest.(check int) "local" (4 * 2 * 2) (Redist.local_total plan);
  Alcotest.(check int) "moved" (64 - 16) (Redist.total_moved plan)

let test_plan_cost_model () =
  let src = layout_1d Dist.block 4 and dst = layout_1d Dist.cyclic 4 in
  let plan = Redist.plan_intervals ~src ~dst in
  let t = Redist.modeled_time Machine.default_cost plan in
  (* each proc sends 3 messages of 1 element: 3*50 + 3*1 = 153 *)
  Alcotest.(check (float 1e-9)) "critical path" 153.0 t

(* --- naive == intervals --------------------------------------------------- *)

let gen_pair =
  QCheck2.Gen.(
    let* n = int_range 1 40 in
    let* p1 = int_range 1 5 in
    let* p2 = int_range 1 5 in
    let* f1 = Test_mapping.gen_fmt in
    let* f2 = Test_mapping.gen_fmt in
    let fix f p =
      match f with
      | Dist.Block (Some k) when k * p < n -> Dist.Block None
      | f -> f
    in
    return (layout_1d ~n (fix f1 p1) p1, layout_1d ~n (fix f2 p2) p2))

let prop_engines_agree =
  QCheck2.Test.make ~name:"interval engine matches naive oracle" ~count:300
    gen_pair (fun (src, dst) ->
      Redist.equal (Redist.plan_naive ~src ~dst) (Redist.plan_intervals ~src ~dst))

let prop_plan_covers_all =
  QCheck2.Test.make ~name:"plan covers every element once" ~count:300 gen_pair
    (fun (src, dst) ->
      Redist.covered (Redist.plan_intervals ~src ~dst)
      = src.Layout.extents.(0))

let gen_2d_pair =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* shape = oneofl [ [| 4 |]; [| 2; 2 |]; [| 3; 2 |] ] in
    let* d1 = oneofl [ `BS; `SB; `BB; `CS; `CC ] in
    let* d2 = oneofl [ `BS; `SB; `BB; `CS; `CC ] in
    let dists g = function
      | `BS -> ([ Dist.block; Dist.star ], Procs.make "P" [| Procs.size g |])
      | `SB -> ([ Dist.star; Dist.block ], Procs.make "P" [| Procs.size g |])
      | `BB when Array.length g.Procs.shape = 2 -> ([ Dist.block; Dist.block ], g)
      | `BB -> ([ Dist.block; Dist.block ], Procs.make "P" [| 2; 2 |])
      | `CS -> ([ Dist.cyclic; Dist.star ], Procs.make "P" [| Procs.size g |])
      | `CC when Array.length g.Procs.shape = 2 ->
        ([ Dist.cyclic_sized 2; Dist.cyclic ], g)
      | `CC -> ([ Dist.cyclic_sized 2; Dist.cyclic ], Procs.make "P" [| 2; 2 |])
    in
    let g = Procs.make "G" shape in
    let l1, p1 = dists g d1 and l2, p2 = dists g d2 in
    if Procs.size p1 <> Procs.size p2 then return None
    else return (Some (layout_2d ~n l1 p1, layout_2d ~n l2 p2)))

let prop_engines_agree_2d =
  QCheck2.Test.make ~name:"engines agree on 2-D layouts" ~count:200 gen_2d_pair
    (function
    | None -> true
    | Some (src, dst) ->
      Redist.equal (Redist.plan_naive ~src ~dst)
        (Redist.plan_intervals ~src ~dst))

(* --- store ---------------------------------------------------------------- *)

let test_store_alloc_copy () =
  let m = Machine.create ~nprocs:4 () in
  let s = Store.create m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| 16 |] ~nb_versions:2 () in
  Store.alloc s d 0 (layout_1d Dist.block 4);
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  for i = 0 to 15 do
    Store.write s ~name:"a" ~version:0 [| i |] (float_of_int i)
  done;
  Store.alloc s d 1 (layout_1d Dist.cyclic 4);
  Store.copy_version s d ~src:0 ~dst:1 ~with_data:true;
  d.Store.status <- Some 1;
  Store.set_live s d 1 true;
  Alcotest.(check (float 0.0)) "values preserved" 7.0
    (Store.read s ~name:"a" ~version:1 [| 7 |]);
  Alcotest.(check int) "one remap performed" 1
    m.Machine.counters.Machine.remaps_performed;
  Alcotest.(check int) "12 elements moved" 12 m.Machine.counters.Machine.volume

let test_store_version_check () =
  let m = Machine.create ~nprocs:4 () in
  let s = Store.create m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| 16 |] ~nb_versions:2 () in
  Store.alloc s d 0 (layout_1d Dist.block 4);
  d.Store.status <- Some 0;
  match Store.read s ~name:"a" ~version:1 [| 0 |] with
  | exception Hpfc_base.Error.Hpf_error (Runtime_fault, _) -> ()
  | _ -> Alcotest.fail "stale-version read must fault"

let test_store_eviction () =
  let m = Machine.create ~nprocs:4 ~memory_limit:40 () in
  let s = Store.create m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| 16 |] ~nb_versions:3 () in
  Store.alloc s d 0 (layout_1d Dist.block 4);
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.alloc s d 1 (layout_1d Dist.cyclic 4);
  Store.copy_version s d ~src:0 ~dst:1 ~with_data:true;
  d.Store.status <- Some 1;
  Store.set_live s d 1 true;
  (* 32 of 40 elements used; a third copy (16) must evict copy 0
     (live but not current) *)
  Store.alloc s d 2 (layout_1d (Dist.cyclic_sized 2) 4);
  Alcotest.(check int) "one eviction" 1 m.Machine.counters.Machine.evictions;
  Alcotest.(check bool) "copy 0 gone" false (Store.copy_exists d 0);
  Alcotest.(check bool) "copy 0 dead" false (Store.is_live d 0)

let test_plan_cache () =
  let m = Machine.create ~nprocs:4 () in
  let s = Store.create m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| 16 |] ~nb_versions:2 () in
  Store.alloc s d 0 (layout_1d Dist.block 4);
  Store.alloc s d 1 (layout_1d Dist.cyclic 4);
  let p1 = Store.plan_for s d ~src:0 ~dst:1 in
  let p2 = Store.plan_for s d ~src:0 ~dst:1 in
  Alcotest.(check bool) "same plan object" true (p1 == p2);
  Alcotest.(check int) "one miss" 1 m.Machine.counters.Machine.plan_misses;
  Alcotest.(check int) "one hit" 1 m.Machine.counters.Machine.plan_hits

(* The cache key is the canonical layout pair: a second array remapping
   between the same layouts hits the plan computed for the first. *)
let test_plan_cache_layout_keyed () =
  let m = Machine.create ~nprocs:4 () in
  let s = Store.create m in
  let da = Store.add_descriptor s ~name:"a" ~extents:[| 16 |] ~nb_versions:2 () in
  let db = Store.add_descriptor s ~name:"b" ~extents:[| 16 |] ~nb_versions:2 () in
  List.iter
    (fun d ->
      Store.alloc s d 0 (layout_1d Dist.block 4);
      Store.alloc s d 1 (layout_1d Dist.cyclic 4))
    [ da; db ];
  let p1 = Store.plan_for s da ~src:0 ~dst:1 in
  let p2 = Store.plan_for s db ~src:0 ~dst:1 in
  Alcotest.(check bool) "shared across arrays" true (p1 == p2);
  Alcotest.(check int) "one miss" 1 m.Machine.counters.Machine.plan_misses;
  Alcotest.(check int) "one hit" 1 m.Machine.counters.Machine.plan_hits

(* Changing the extents changes the key: no false hit. *)
let test_plan_cache_extents_miss () =
  let cache = Redist.Plan_cache.create () in
  let find n =
    Redist.Plan_cache.find cache ~src:(layout_1d ~n Dist.block 4)
      ~dst:(layout_1d ~n Dist.cyclic 4) (fun () ->
        Redist.plan_intervals ~src:(layout_1d ~n Dist.block 4)
          ~dst:(layout_1d ~n Dist.cyclic 4))
  in
  ignore (find 16 : Redist.plan);
  ignore (find 32 : Redist.plan);
  Alcotest.(check int) "two misses" 2 (Redist.Plan_cache.misses cache);
  Alcotest.(check int) "no hits" 0 (Redist.Plan_cache.hits cache);
  ignore (find 16 : Redist.plan);
  Alcotest.(check int) "then a hit" 1 (Redist.Plan_cache.hits cache);
  Alcotest.(check int) "two plans held" 2 (Redist.Plan_cache.size cache)

(* End-to-end on the ADI kernel: the loop-carried corner turns replan from
   the cache, and every data-carrying remap goes through it exactly once. *)
let test_plan_cache_adi () =
  let r =
    Hpfc_driver.Pipeline.run_source
      ~scalars:[ ("t", Hpfc_interp.Interp.VInt 4) ]
      (Hpfc_kernels.Apps.adi_src ~n:16 ())
  in
  let c = r.Hpfc_interp.Interp.machine.Machine.counters in
  Alcotest.(check int) "one lookup per data-carrying remap"
    c.Machine.remaps_performed
    (c.Machine.plan_hits + c.Machine.plan_misses);
  Alcotest.(check bool) "loop-carried remaps hit" true (c.Machine.plan_hits > 0);
  Alcotest.(check bool) "fewer plans than remaps" true
    (c.Machine.plan_misses < c.Machine.remaps_performed)

(* The cache is LRU-bounded: with capacity 2, touching A keeps it alive
   while B — least recently used — is the victim of the third insert. *)
let test_plan_cache_lru () =
  let cache = Redist.Plan_cache.create ~capacity:2 () in
  let pair d = (layout_1d d 4, layout_1d (Dist.cyclic_sized 3) 4) in
  let find (src, dst) =
    ignore
      (Redist.Plan_cache.find cache ~src ~dst (fun () ->
           Redist.plan_intervals ~src ~dst)
        : Redist.plan)
  in
  let a = pair Dist.block
  and b = pair Dist.cyclic
  and c = pair (Dist.cyclic_sized 2) in
  find a;
  find b;
  find a (* touch: b becomes least recently used *);
  find c (* third plan: evicts b *);
  Alcotest.(check int) "bounded at capacity" 2 (Redist.Plan_cache.size cache);
  Alcotest.(check int) "one eviction" 1 (Redist.Plan_cache.evictions cache);
  find a;
  Alcotest.(check int) "a survived (2 hits)" 2 (Redist.Plan_cache.hits cache);
  find b;
  Alcotest.(check int) "b was the victim (4th miss)" 4
    (Redist.Plan_cache.misses cache)

(* The trace ring buffer keeps exactly the newest [capacity] events and
   counts the overwritten ones. *)
let test_trace_ring_buffer () =
  let m = Machine.create ~nprocs:4 ~record_trace:true ~trace_capacity:8 () in
  for i = 0 to 19 do
    Machine.record m (Machine.Step_end { index = i; time = float_of_int i })
  done;
  Alcotest.(check int) "dropped = overflow" 12 (Machine.dropped_events m);
  let events = Machine.events m in
  Alcotest.(check int) "len = capacity" 8 (List.length events);
  Alcotest.(check bool) "newest events, oldest first" true
    (List.map
       (function Machine.Step_end { index; _ } -> index | _ -> -1)
       events
    = [ 12; 13; 14; 15; 16; 17; 18; 19 ]);
  let summary = Machine.trace_summary_json m in
  let contains needle =
    Astring.String.is_infix ~affix:needle summary
  in
  Alcotest.(check bool) "summary reports the drop" true
    (contains {|"dropped":12|} && contains {|"capacity":8|}
    && contains {|"complete":false|})

(* Under capacity nothing is dropped and the summary says complete. *)
let test_trace_ring_buffer_no_drop () =
  let m = Machine.create ~nprocs:4 ~record_trace:true ~trace_capacity:8 () in
  for i = 0 to 4 do
    Machine.record m (Machine.Step_end { index = i; time = 0.0 })
  done;
  Alcotest.(check int) "nothing dropped" 0 (Machine.dropped_events m);
  Alcotest.(check int) "all kept" 5 (List.length (Machine.events m));
  Alcotest.(check bool) "summary complete" true
    (Astring.String.is_infix ~affix:{|"complete":true|}
       (Machine.trace_summary_json m))

(* Machine.reset and fresh_counters must cover every counter — a stale
   field would leak state between the naive and optimized legs of
   compare_pipelines and void the differential soundness claims. *)
let test_counter_reset_coverage () =
  let m = Machine.create ~nprocs:4 () in
  let c = m.Machine.counters in
  c.Machine.messages <- 1;
  c.Machine.volume <- 2;
  c.Machine.local_moves <- 3;
  c.Machine.remaps_performed <- 4;
  c.Machine.remaps_skipped <- 5;
  c.Machine.live_reuses <- 6;
  c.Machine.dead_copies <- 7;
  c.Machine.allocs <- 8;
  c.Machine.frees <- 9;
  c.Machine.evictions <- 10;
  c.Machine.plan_hits <- 11;
  c.Machine.plan_misses <- 12;
  c.Machine.plan_evictions <- 13;
  c.Machine.steps <- 14;
  c.Machine.peak_step_volume <- 15;
  c.Machine.run_blits <- 16;
  c.Machine.zero_copy_runs <- 21;
  c.Machine.staged_bytes <- 22;
  c.Machine.pool_hits <- 17;
  c.Machine.pool_misses <- 18;
  c.Machine.time <- 19.0;
  c.Machine.wall_time <- 20.0;
  Machine.reset m;
  Alcotest.(check bool) "reset zeroes every field" true
    (c = Machine.fresh_counters ())

let suite =
  [
    Alcotest.test_case "block->cyclic plan" `Quick test_block_to_cyclic_plan;
    Alcotest.test_case "identity plan is free" `Quick test_identity_plan_is_free;
    Alcotest.test_case "2-D transpose plan" `Quick test_transpose_plan;
    Alcotest.test_case "alpha-beta cost" `Quick test_plan_cost_model;
    Qcheck_env.to_alcotest prop_engines_agree;
    Qcheck_env.to_alcotest prop_plan_covers_all;
    Qcheck_env.to_alcotest prop_engines_agree_2d;
    Alcotest.test_case "store alloc/copy" `Quick test_store_alloc_copy;
    Alcotest.test_case "store version check" `Quick test_store_version_check;
    Alcotest.test_case "store eviction" `Quick test_store_eviction;
    Alcotest.test_case "plan cache" `Quick test_plan_cache;
    Alcotest.test_case "plan cache keyed by layout" `Quick
      test_plan_cache_layout_keyed;
    Alcotest.test_case "plan cache misses on new extents" `Quick
      test_plan_cache_extents_miss;
    Alcotest.test_case "plan cache on ADI kernel" `Quick test_plan_cache_adi;
    Alcotest.test_case "plan cache LRU eviction" `Quick test_plan_cache_lru;
    Alcotest.test_case "trace ring buffer overflow" `Quick
      test_trace_ring_buffer;
    Alcotest.test_case "trace ring buffer under capacity" `Quick
      test_trace_ring_buffer_no_drop;
    Alcotest.test_case "counter reset covers every field" `Quick
      test_counter_reset_coverage;
  ]

(* --- rank-3 layouts ---------------------------------------------------------- *)

let test_3d_plan () =
  let mk dists =
    Layout.of_mapping ~extents:[| 8; 8; 4 |]
      (Mapping.direct ~array_name:"t3" ~extents:[| 8; 8; 4 |]
         ~dist:(Array.of_list dists) ~procs:(procs 4))
  in
  let src = mk [ Dist.block; Dist.star; Dist.star ] in
  let dst = mk [ Dist.star; Dist.block; Dist.star ] in
  let naive = Redist.plan_naive ~src ~dst in
  let fast = Redist.plan_intervals ~src ~dst in
  Alcotest.(check bool) "engines agree in 3-D" true (Redist.equal naive fast);
  (* transpose-like: each processor keeps its 2x2x4 diagonal block *)
  Alcotest.(check int) "local" (4 * 2 * 2 * 4) (Redist.local_total naive);
  Alcotest.(check int) "moved" ((8 * 8 * 4) - 64) (Redist.total_moved naive)

let test_3d_ownership_partition () =
  let l =
    Layout.of_mapping ~extents:[| 6; 5; 3 |]
      (Mapping.direct ~array_name:"x" ~extents:[| 6; 5; 3 |]
         ~dist:[| Dist.cyclic; Dist.block; Dist.star |]
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  let total = ref 0 in
  for p = 0 to 3 do
    total := !total + Layout.local_size l ~proc:(Procs.delinearize (Procs.make "G" [| 2; 2 |]) p)
  done;
  Alcotest.(check int) "partition" (6 * 5 * 3) !total

let suite =
  suite
  @ [
      Alcotest.test_case "3-D transpose plan" `Quick test_3d_plan;
      Alcotest.test_case "3-D ownership partition" `Quick test_3d_ownership_partition;
    ]

(* --- message boxes -------------------------------------------------------- *)

(* Every plan message carries an interval box whose dimensions multiply
   out to the message's element count. *)
let test_boxes_match_plan () =
  let src = layout_2d [ Dist.block; Dist.star ] (procs 4)
  and dst = layout_2d [ Dist.star; Dist.block ] (procs 4) in
  let plan = Redist.plan_naive ~src ~dst in
  Alcotest.(check int) "one box per message" (Redist.nb_messages plan)
    (List.length plan.Redist.moves);
  List.iter
    (fun (m : Redist.message) ->
      Alcotest.(check int) "box size" m.Redist.m_count
        (Redist.box_size m.Redist.m_box))
    plan.Redist.moves

let prop_box_sizes =
  QCheck2.Test.make ~name:"message boxes multiply out to plan counts"
    ~count:200 gen_pair (fun (src, dst) ->
      let plan = Redist.plan_naive ~src ~dst in
      List.for_all
        (fun (m : Redist.message) ->
          Redist.box_size m.Redist.m_box = m.Redist.m_count)
        (plan.Redist.moves @ plan.Redist.locals))

let find_move plan (p, q) =
  List.find_opt
    (fun (m : Redist.message) -> m.Redist.m_from = p && m.Redist.m_to = q)
    plan.Redist.moves

let test_box_contents () =
  (* block -> cyclic over 8 elements on 2 procs: proc 0 owns [0,4) then
     {0,2,4,6}; it keeps 0 and 2, sends 1 and 3 to proc 1 *)
  let src = layout_1d ~n:8 Dist.block 2 and dst = layout_1d ~n:8 Dist.cyclic 2 in
  let plan = Redist.plan_intervals ~src ~dst in
  (match find_move plan (0, 1) with
  | Some m ->
    Alcotest.(check (list (pair int int)))
      "P0->P1" [ (1, 2); (3, 4) ]
      (Ivset.to_intervals m.Redist.m_box.(0))
  | None -> Alcotest.fail "missing P0->P1");
  match find_move plan (1, 0) with
  | Some m ->
    Alcotest.(check (list (pair int int)))
      "P1->P0" [ (4, 5); (6, 7) ]
      (Ivset.to_intervals m.Redist.m_box.(0))
  | None -> Alcotest.fail "missing P1->P0"

let suite =
  suite
  @ [
      Alcotest.test_case "boxes match plan" `Quick test_boxes_match_plan;
      Qcheck_env.to_alcotest prop_box_sizes;
      Alcotest.test_case "box contents" `Quick test_box_contents;
    ]

(* --- replication (broadcast) plans --------------------------------------------- *)

let test_broadcast_plan () =
  (* distribute A(block) on 4 procs -> replicate A along a grid column:
     every element fans out to the extra replicas *)
  let src = layout_1d ~n:8 Dist.block 4 in
  let t = Template.make "T" [| 8; 2 |] in
  let align =
    [| Align.Axis { array_dim = 0; stride = 1; offset = 0 }; Align.Replicated |]
  in
  let dst =
    Layout.of_mapping ~extents:[| 8 |]
      (Mapping.v ~template:t ~align
         ~dist:[| Dist.block; Dist.block |]
         ~procs:(Procs.make "G" [| 4; 2 |]))
  in
  let plan = Redist.plan_naive ~src ~dst in
  (* destination holds 2 replicas of each element: 16 placements total *)
  Alcotest.(check int) "placements" 16 (Redist.covered plan);
  Alcotest.(check bool) "fan-out moved data" true (Redist.total_moved plan > 0)

(* Strided/reversed alignments in 2-D: engines agree. *)
let gen_strided_pair =
  QCheck2.Gen.(
    let* n = int_range 2 12 in
    let* s1 = oneofl [ 1; 2; -1 ] in
    let* s2 = oneofl [ 1; 2; -1 ] in
    let mk stride =
      let textent = (abs stride * (n - 1)) + 1 in
      let offset = if stride < 0 then textent - 1 else 0 in
      let t = Template.make "T" [| textent; n |] in
      let align =
        [| Align.Axis { array_dim = 0; stride; offset };
           Align.Axis { array_dim = 1; stride = 1; offset = 0 } |]
      in
      Layout.of_mapping ~extents:[| n; n |]
        (Mapping.v ~template:t ~align
           ~dist:[| Dist.cyclic; Dist.star |]
           ~procs:(procs 4))
    in
    return (mk s1, mk s2))

let prop_strided_engines_agree =
  QCheck2.Test.make ~name:"engines agree under strided/reversed alignments"
    ~count:100 gen_strided_pair (fun (src, dst) ->
      Redist.equal (Redist.plan_naive ~src ~dst) (Redist.plan_intervals ~src ~dst))

let suite =
  suite
  @ [
      Alcotest.test_case "broadcast plan" `Quick test_broadcast_plan;
      Qcheck_env.to_alcotest prop_strided_engines_agree;
    ]
