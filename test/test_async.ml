(* Properties of the async dependency-driven executor (--sched=async /
   HPFC_FORCE_ASYNC): delivering staged messages out of step order, with
   per-message completion flags instead of a barrier per step, must be
   observationally equivalent to the stepped parallel and the sequential
   executors — same final per-rank buffers, same modeled counters, same
   replayed schedule trace — while holding at most 2 staging leases per
   rank (double buffering) and completing every staged message exactly
   once (the torn-completion regression).  The pool deliberately has
   more domains than this container has cores and fewer than the grids
   have ranks, so every run exercises rank interleaving for real. *)

open Hpfc_mapping
open Hpfc_runtime

(* One pool shared by the whole suite (same shape as test_par's); torn
   down by at_exit because alcotest runs suites in-process. *)
let pool =
  lazy
    (let p = Hpfc_par.Par.create ~ndomains:3 () in
     at_exit (fun () -> Hpfc_par.Par.destroy p);
     p)

(* The discipline is pinned on the executor, not read from the
   environment: these tests are async-specific (and their stepped
   baselines stepped-specific) regardless of HPFC_FORCE_ASYNC. *)
let async_executor () = Hpfc_par.Par.executor ~async:true (Lazy.force pool)
let stepped_executor () = Hpfc_par.Par.executor ~async:false (Lazy.force pool)

let remap_async ?(sched = Machine.Stepped) ?lower ~src ~dst fill =
  Test_comm.remap ~backend:Store.Distributed ~sched
    ~executor:(async_executor ()) ?lower ~src ~dst fill

let remap_stepped ?(sched = Machine.Stepped) ?lower ~src ~dst fill =
  Test_comm.remap ~backend:Store.Distributed ~sched
    ~executor:(stepped_executor ()) ?lower ~src ~dst fill

let remap_seq ?(sched = Machine.Stepped) ?lower ~src ~dst fill =
  Test_comm.remap ~backend:Store.Distributed ~sched ?lower ~src ~dst fill

(* --- (a) async == sequential, element-wise -------------------------------------- *)

let prop_async_equals_seq =
  QCheck2.Test.make ~name:"async executor = sequential element-wise"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((17 * k) + 11) in
      let run (_, _, d) = Store.to_global (Store.get_copy d 1) in
      let asy = run (remap_async ~src ~dst fill)
      and seq = run (remap_seq ~src ~dst fill) in
      let n = src.Layout.extents.(0) in
      asy = seq && asy = Array.init n fill)

let prop_async_equals_seq_irregular =
  QCheck2.Test.make
    ~name:"async executor handles irregular/replicated layouts"
    ~print:Test_redist_props.print_pair ~count:120 Test_comm.gen_irregular_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((5 * k) + 2) in
      let run (_, _, d) = Store.to_global (Store.get_copy d 1) in
      run (remap_async ~src ~dst fill) = run (remap_seq ~src ~dst fill))

(* --- (b) the replayed trace is still the plan ------------------------------------ *)

let prop_async_trace_matches_plan =
  QCheck2.Test.make
    ~name:"async traced message multiset = plan, schedule replay intact"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective trace lists slices, not messages *)
      let m, s, d = remap_async ~lower:Exec.P2p ~src ~dst float_of_int in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let prog = Redist.step_program plan in
      let c = m.Machine.counters in
      List.sort compare (Test_comm.traced_messages m) = Redist.pairs plan
      && c.Machine.messages = Redist.nb_messages plan
      && c.Machine.volume = Redist.total_moved plan
      && c.Machine.local_moves = Redist.local_total plan
      (* the trace replays the stepped schedule even though delivery was
         out of step order: same bracketing, same step contents *)
      &&
      match Test_comm.steps_of_trace (Machine.events m) with
      | None -> false
      | Some groups ->
        List.map (fun (_, ms, _) -> ms) groups
        = List.map
            (List.map (fun (msg : Redist.message) ->
                 (msg.Redist.m_from, msg.Redist.m_to, msg.Redist.m_count)))
            prog)

(* --- (c) modeled counters identical async vs stepped vs sequential --------------- *)

let prop_async_counters_equal_stepped_and_seq =
  QCheck2.Test.make
    ~name:"async modeled counters = stepped par = sequential"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* wall time is measured, pool splits are executor history, and
         async completions exist only under async: everything else must
         be byte-identical across the three executors *)
      let scrub (m : Machine.t) =
        {
          m.Machine.counters with
          Machine.wall_time = 0.0;
          Machine.pool_hits = 0;
          Machine.pool_misses = 0;
          Machine.pool_lease_peak = 0;
          Machine.async_completions = 0;
        }
      in
      (* p2p-specific: under the collective the async executor completes
         slices, so the completion count is the slice count instead *)
      let ma, _, _ = remap_async ~lower:Exec.P2p ~src ~dst float_of_int
      and mp, _, _ =
        remap_stepped ~lower:Exec.P2p ~src ~dst float_of_int
      and ms, _, _ = remap_seq ~lower:Exec.P2p ~src ~dst float_of_int in
      scrub ma = scrub mp
      && scrub ma = scrub ms
      (* on the distributed backend every cross-rank message stages, so
         async completes exactly the message count, the others none *)
      && ma.Machine.counters.Machine.async_completions
         = ma.Machine.counters.Machine.messages
      && mp.Machine.counters.Machine.async_completions = 0
      && ms.Machine.counters.Machine.async_completions = 0)

(* --- (d) the double-buffer lease bound ------------------------------------------- *)

let prop_async_lease_bound =
  QCheck2.Test.make
    ~name:"no rank ever holds more than 2 staging leases (double buffer)"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let m, _, _ = remap_async ~src ~dst float_of_int in
      let peak = Hpfc_par.Par.last_max_leases (Lazy.force pool) in
      peak <= 2
      (* and the window actually opens when there is something to send *)
      && (m.Machine.counters.Machine.messages = 0 || peak >= 1))

(* --- (e) torn-completion regression ---------------------------------------------- *)

(* Every staged message is completed exactly once: the Wall_msg multiset
   equals the plan's cross-rank (from, to) multiset, one event per
   message, each with a sane wall clock.  A duplicated delivery or a
   dropped completion flag (e.g. acking per step instead of per message)
   shows up as a surplus or missing Wall_msg. *)
let prop_async_completions_exactly_once =
  QCheck2.Test.make ~name:"every staged message completes exactly once"
    ~print:Test_redist_props.print_pair ~count:150 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective completes one Wall_msg per slice *)
      let m, s, d = remap_async ~lower:Exec.P2p ~src ~dst float_of_int in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let walls =
        List.filter_map
          (function
            | Machine.Wall_msg { from_rank; to_rank; wall } ->
              Some ((from_rank, to_rank), wall)
            | _ -> None)
          (Machine.events m)
      in
      List.sort compare (List.map fst walls)
      = List.sort compare
          (List.map (fun (f, t, _) -> (f, t)) (Redist.pairs plan))
      && List.for_all (fun (_, w) -> w >= 0.0) walls
      && List.length walls = m.Machine.counters.Machine.async_completions)

(* --- (f) plan-cache LRU eviction under parallel executors ------------------------- *)

(* Cycle remaps through more distinct layout pairs than the plan cache
   holds, on the live pool: every lookup misses, the LRU bound evicts
   continuously, and the evicted plans' memoized runs — still referenced
   by the remap that submitted them — must keep moving correct data.
   Checked under both disciplines. *)
let lru_race_with_executor ~name executor =
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
  let m = Machine.create ~nprocs:p ~sched:Machine.Stepped () in
  let s =
    Store.create ~backend:Store.Distributed ~executor
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
      (Printf.sprintf "%s: values intact after round %d" name round)
      true
      (Store.to_global (Store.get_copy d dst) = expected)
  done;
  Alcotest.(check bool)
    (name ^ ": LRU bound evicted plans while the pool was live")
    true
    (m.Machine.counters.Machine.plan_evictions > 0)

let test_lru_race_async () =
  lru_race_with_executor ~name:"async" (async_executor ())

let test_lru_race_stepped () =
  lru_race_with_executor ~name:"stepped" (stepped_executor ())

let suite =
  [
    Qcheck_env.to_alcotest prop_async_equals_seq;
    Qcheck_env.to_alcotest prop_async_equals_seq_irregular;
    Qcheck_env.to_alcotest prop_async_trace_matches_plan;
    Qcheck_env.to_alcotest prop_async_counters_equal_stepped_and_seq;
    Qcheck_env.to_alcotest prop_async_lease_bound;
    Qcheck_env.to_alcotest prop_async_completions_exactly_once;
    Alcotest.test_case "plan-cache LRU eviction vs async remaps" `Quick
      test_lru_race_async;
    Alcotest.test_case "plan-cache LRU eviction vs stepped remaps" `Quick
      test_lru_race_stepped;
  ]
