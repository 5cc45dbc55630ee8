(* Properties of the shared-memory parallel backend (lib/par): running
   the step program on real OCaml domains must be observationally
   equivalent to the sequential [Comm.execute] loop — same final
   per-rank buffers, same modeled counters, same traced message
   multiset — on arbitrary layout pairs including irregular
   (replicated / constant-aligned) ones.  The pool is deliberately
   created with more domains than this container has cores and fewer
   domains than the grid has ranks, so every run exercises rank
   multiplexing and real interleaving. *)

open Hpfc_mapping
open Hpfc_runtime

(* One pool shared by the whole suite: 3 worker domains regardless of
   core count.  Ranks multiplex onto it per job, so it serves any grid
   the generators produce.  Alcotest runs suites in-process, so the pool
   is torn down by at_exit rather than per-test. *)
let pool =
  lazy
    (let p = Hpfc_par.Par.create ~ndomains:3 () in
     at_exit (fun () -> Hpfc_par.Par.destroy p);
     p)

let par_executor () = Hpfc_par.Par.executor (Lazy.force pool)

(* [lower] pins the plan lowering for lowering-specific tests; left out,
   it follows the environment's configuration ([Exec.default]), so the
   generic properties run under whichever lowering the environment
   forces. *)
let remap_par ?lower ~src ~dst fill =
  Test_comm.remap ~backend:Store.Distributed ~executor:(par_executor ())
    ?lower ~src ~dst fill

let remap_seq ?lower ~src ~dst fill =
  Test_comm.remap ~backend:Store.Distributed ?lower ~src ~dst fill

(* --- (a) parallel == sequential, element-wise ---------------------------------- *)

let prop_par_equals_seq =
  QCheck2.Test.make
    ~name:"parallel backend = sequential distributed backend element-wise"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((13 * k) + 5) in
      let run (_, _, d) = Store.to_global (Store.get_copy d 1) in
      let par = run (remap_par ~src ~dst fill)
      and seq = run (remap_seq ~src ~dst fill) in
      let n = src.Layout.extents.(0) in
      par = seq && par = Array.init n fill)

let prop_par_equals_seq_irregular =
  QCheck2.Test.make
    ~name:"parallel backend handles irregular/replicated layouts"
    ~print:Test_redist_props.print_pair ~count:120 Test_comm.gen_irregular_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((7 * k) + 3) in
      let run (_, _, d) = Store.to_global (Store.get_copy d 1) in
      run (remap_par ~src ~dst fill) = run (remap_seq ~src ~dst fill))

(* --- (b) the parallel trace is still the plan ---------------------------------- *)

let prop_par_trace_matches_plan =
  QCheck2.Test.make
    ~name:"parallel traced message multiset = plan, modeled counters match"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective trace lists slices, not messages *)
      let m, s, d = remap_par ~lower:Exec.P2p ~src ~dst float_of_int in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let c = m.Machine.counters in
      List.sort compare (Test_comm.traced_messages m) = Redist.pairs plan
      && c.Machine.messages = Redist.nb_messages plan
      && c.Machine.volume = Redist.total_moved plan
      && c.Machine.local_moves = Redist.local_total plan)

let prop_par_trace_replays_schedule =
  QCheck2.Test.make
    ~name:"stepped parallel trace replays the schedule, one wall per step"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective replays its phase program instead *)
      let m, s, d = remap_par ~lower:Exec.P2p ~src ~dst float_of_int in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let prog = Redist.step_program plan in
      let events = Machine.events m in
      (* wall events do not disturb the step bracketing checker *)
      match Test_comm.steps_of_trace events with
      | None -> false
      | Some groups ->
        let walls =
          List.filter_map
            (function
              | Machine.Wall_step { index; wall } -> Some (index, wall)
              | _ -> None)
            events
        and remap_walls =
          List.filter_map
            (function
              | Machine.Wall_remap { steps; wall } -> Some (steps, wall)
              | _ -> None)
            events
        in
        List.map (fun (i, _, _) -> i) groups
        = List.init (List.length prog) (fun i -> i)
        && List.map (fun (_, ms, _) -> ms) groups
           = List.map
               (List.map (fun (msg : Redist.message) ->
                    (msg.Redist.m_from, msg.Redist.m_to, msg.Redist.m_count)))
               prog
        (* exactly one measured wall clock per step, in step order *)
        && List.map fst walls = List.init (List.length prog) (fun i -> i)
        && List.for_all (fun (_, w) -> w >= 0.0) walls
        (* and one whole-remap wall covering all the steps *)
        && (match remap_walls with
           | [ (steps, wall) ] -> steps = List.length prog && wall >= 0.0
           | _ -> false)
        && m.Machine.counters.Machine.wall_time > 0.0)

(* --- (c) modeled counters are identical par vs seq ------------------------------ *)

let prop_par_counters_equal_seq =
  QCheck2.Test.make
    ~name:"parallel modeled counters = sequential (wall and pool excluded)"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let scrub (m : Machine.t) = Machine.scrub ~varying:[ Par ] m.counters in
      let mp, _, _ = remap_par ~src ~dst float_of_int
      and ms, _, _ = remap_seq ~src ~dst float_of_int in
      scrub mp = scrub ms)

(* --- deterministic spot checks -------------------------------------------------- *)

(* A pool reused across many remaps with different grid sizes keeps
   working: the same pool serves a 2-rank and an 8-rank job. *)
let test_pool_reuse () =
  let procs p = Procs.linear "P" p in
  let layout ~n p d =
    Layout.of_mapping ~extents:[| n |]
      (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| d |]
         ~procs:(procs p))
  in
  List.iter
    (fun p ->
      let src = layout ~n:64 p Dist.block and dst = layout ~n:64 p Dist.cyclic in
      let _, _, d = remap_par ~src ~dst float_of_int in
      Alcotest.(check bool)
        (Printf.sprintf "corner turn on %d ranks" p)
        true
        (Store.to_global (Store.get_copy d 1) = Array.init 64 float_of_int))
    [ 2; 3; 4; 8 ]

let test_destroyed_pool_faults () =
  let p = Hpfc_par.Par.create ~ndomains:2 () in
  Hpfc_par.Par.destroy p;
  Hpfc_par.Par.destroy p (* idempotent *);
  let procs = Procs.linear "P" 4 in
  let layout d =
    Layout.of_mapping ~extents:[| 16 |]
      (Mapping.direct ~array_name:"a" ~extents:[| 16 |] ~dist:[| d |] ~procs)
  in
  Alcotest.check_raises "execute after destroy faults"
    (Hpfc_base.Error.Hpf_error
       (Hpfc_base.Error.Runtime_fault, "parallel pool used after destroy"))
    (fun () ->
      ignore
        (Test_comm.remap ~backend:Store.Distributed
           ~executor:(Hpfc_par.Par.executor p)
           ~src:(layout Dist.block) ~dst:(layout Dist.cyclic) float_of_int))

(* A worker that raises must not hang the team: with the destination
   endpoint's buffer raising on rank 2, the worker hosting it dies
   mid-job while its siblings wait on a barrier.  The job aborts, the
   fault reaches the caller, and the same pool then executes the plan
   correctly. *)
let test_worker_fault_released () =
  let p = Hpfc_par.Par.create ~ndomains:3 () in
  let faulty (e : Comm.endpoint) =
    {
      e with
      Comm.buffer =
        (fun ~rank ->
          if rank = 2 then failwith "injected fault" else e.buffer ~rank);
    }
  in
  let src = Test_redist_props.layout_1d ~n:64 Dist.block 4
  and dst = Test_redist_props.layout_1d ~n:64 Dist.cyclic 4 in
  let remap dst_of =
    Test_comm.remap ~backend:Store.Distributed
      ~executor:(fun m ~src ~dst plan ->
        Hpfc_par.Par.execute p m ~src ~dst:(dst_of dst) plan)
      ~src ~dst float_of_int
  in
  Fun.protect
    ~finally:(fun () -> Hpfc_par.Par.destroy p)
    (fun () ->
      Alcotest.check_raises "the fault reaches the caller"
        (Failure "injected fault")
        (fun () -> ignore (remap faulty));
      let _, _, d = remap Fun.id in
      Alcotest.(check bool) "the pool still remaps correctly" true
        (Store.to_global (Store.get_copy d 1) = Array.init 64 float_of_int))

(* Cycle remaps through more distinct layout pairs than the plan cache
   holds, on the live pool: every lookup misses, the LRU bound evicts
   continuously, and the evicted plans' memoized runs — still referenced
   by the remap that submitted them — must keep moving correct data. *)
let test_lru_race () =
  let n = 48 and p = 3 in
  let procs = Procs.linear "P" p in
  let layout d =
    Layout.of_mapping ~extents:[| n |]
      (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| d |] ~procs)
  in
  let layouts =
    [| layout Dist.block; layout Dist.cyclic;
       layout (Dist.cyclic_sized 2); layout (Dist.cyclic_sized 4) |]
  in
  let nv = Array.length layouts in
  let m = Machine.create ~nprocs:p () in
  let s =
    Store.create ~backend:Store.Distributed ~executor:(par_executor ())
      ~plans:(Redist.Plan_cache.create ~capacity:2 ())
      m
  in
  let d =
    Store.add_descriptor s ~name:"a" ~extents:[| n |] ~nb_versions:nv ()
  in
  let fill k = float_of_int ((3 * k) + 1) in
  Array.iteri (fun v l -> Store.alloc s d v l) layouts;
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.fill_copy (Store.get_copy d 0) fill;
  let expected = Array.init n fill in
  for round = 0 to (4 * nv) - 1 do
    let src = round mod nv and dst = (round + 1) mod nv in
    Store.copy_version s d ~src ~dst ~with_data:true;
    d.Store.status <- Some dst;
    Alcotest.(check bool)
      (Printf.sprintf "values intact after round %d" round)
      true
      (Store.to_global (Store.get_copy d dst) = expected)
  done;
  Alcotest.(check bool) "LRU bound evicted plans while the pool was live"
    true
    (m.Machine.counters.Machine.plan_evictions > 0)

let suite =
  [
    Qcheck_env.to_alcotest prop_par_equals_seq;
    Qcheck_env.to_alcotest prop_par_equals_seq_irregular;
    Qcheck_env.to_alcotest prop_par_trace_matches_plan;
    Qcheck_env.to_alcotest prop_par_trace_replays_schedule;
    Qcheck_env.to_alcotest prop_par_counters_equal_seq;
    Alcotest.test_case "pool reuse across grid sizes" `Quick test_pool_reuse;
    Alcotest.test_case "raising worker aborts the job, pool survives" `Quick
      test_worker_fault_released;
    Alcotest.test_case "destroyed pool faults cleanly" `Quick
      test_destroyed_pool_faults;
    Alcotest.test_case "plan-cache LRU eviction vs stepped remaps" `Quick
      test_lru_race;
  ]
