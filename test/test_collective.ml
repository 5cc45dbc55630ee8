(* The collective lowering (Exec.Collective): a plan's step
   program recompiled into ring-shift-classed, budget-sliced phases.

   The bar: the phase program moves exactly the elements the
   point-to-point step program moves (element-wise identical final
   arrays on every backend and executor), its executed trace replays the
   phase program step-bracketed and contention-free, its modeled
   counters match across executors modulo the usual executor-history
   scrub, and its peak staging volume never exceeds the p2p peak — with
   strict improvement on a balanced corner turn, the case the slicing
   exists for. *)

open Hpfc_mapping
open Hpfc_runtime

let final (_, _, d) = Store.to_global (Store.get_copy d 1)

(* --- (a) collective = p2p element-wise ------------------------------------------ *)

let prop_equals_p2p_seq =
  QCheck2.Test.make
    ~name:"collective = p2p element-wise (both backends, sequential)"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((11 * k) + 2) in
      List.for_all
        (fun backend ->
          let run lower =
            final (Test_comm.remap ~backend ~lower ~src ~dst fill)
          in
          run Exec.P2p = run Exec.Collective)
        [ Store.Canonical; Store.Distributed ])

(* Irregular (replicated / constant-aligned) layouts through the
   parallel backend: the sliced packets must reassemble exactly what
   sequential p2p delivers. *)
let prop_equals_p2p_par =
  QCheck2.Test.make
    ~name:"collective = p2p on irregular layouts (parallel executor)"
    ~print:Test_redist_props.print_pair ~count:60 Test_comm.gen_irregular_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((7 * k) + 3) in
      let seq = final (Test_par.remap_seq ~lower:Exec.P2p ~src ~dst fill) in
      let par =
        final (Test_par.remap_par ~lower:Exec.Collective ~src ~dst fill)
      in
      par = seq)

(* --- (b) the phase program is a valid schedule ---------------------------------- *)

let all_slices (cp : Redist.collective) = List.concat cp.Redist.c_phases

(* Every message is covered exactly: its slices, sorted by offset, tile
   [0, m_count) contiguously. *)
let slices_partition_messages (plan : Redist.plan) cp =
  let slices = all_slices cp in
  List.for_all
    (fun (m : Redist.message) ->
      let mine =
        List.filter (fun (sl : Redist.slice) -> sl.Redist.sl_msg == m) slices
      in
      let sorted =
        List.sort
          (fun (a : Redist.slice) b -> compare a.Redist.sl_off b.Redist.sl_off)
          mine
      in
      let rec cover off = function
        | [] -> off = m.Redist.m_count
        | (sl : Redist.slice) :: rest ->
          sl.Redist.sl_off = off && sl.Redist.sl_len > 0
          && cover (off + sl.Redist.sl_len) rest
      in
      cover 0 sorted)
    plan.Redist.moves

(* Within one phase: distinct senders, distinct receivers, at most one
   slice per message. *)
let phases_contention_free cp =
  List.for_all
    (fun ph ->
      let senders = List.map (fun sl -> sl.Redist.sl_msg.Redist.m_from) ph
      and receivers = List.map (fun sl -> sl.Redist.sl_msg.Redist.m_to) ph in
      List.length (List.sort_uniq compare senders) = List.length ph
      && List.length (List.sort_uniq compare receivers) = List.length ph)
    cp.Redist.c_phases

let prop_phase_program_valid =
  QCheck2.Test.make
    ~name:"phase program: exact partition, contention-free, budget-capped"
    ~print:Test_redist_props.print_pair ~count:200 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let cp = Redist.collective_program plan in
      let p2p_peak = Redist.peak_step_volume (Redist.step_program plan) in
      slices_partition_messages plan cp
      && phases_contention_free cp
      && List.for_all
           (fun (sl : Redist.slice) -> sl.Redist.sl_len <= cp.Redist.c_slice_cap)
           (all_slices cp)
      && List.for_all
           (fun ph -> Redist.phase_volume ph <= cp.Redist.c_phase_cap)
           cp.Redist.c_phases
      (* the lowering's contract: bounded peak staging volume *)
      && Redist.peak_collective_volume plan <= p2p_peak)

(* --- (c) the executed trace replays the phase program --------------------------- *)

let prop_trace_replays_phases =
  QCheck2.Test.make
    ~name:"collective trace: step-bracketed phases, counters match the plan"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let m, s, d =
        Test_comm.remap ~backend:Store.Distributed ~lower:Exec.Collective
          ~src ~dst float_of_int
      in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let cp = Redist.collective_program plan in
      let c = m.Machine.counters in
      match Test_comm.steps_of_trace (Machine.events m) with
      | None -> false
      | Some groups ->
        (* one bracketed group per phase, in order, each listing
           exactly the phase's slices *)
        List.map (fun (i, _, _) -> i) groups
        = List.init (Redist.nb_phases cp) (fun i -> i)
        && List.map (fun (_, ms, _) -> ms) groups
           = List.map
               (List.map (fun (sl : Redist.slice) ->
                    ( sl.Redist.sl_msg.Redist.m_from,
                      sl.Redist.sl_msg.Redist.m_to,
                      sl.Redist.sl_len )))
               cp.Redist.c_phases
        (* counters still describe the plan, not the slicing *)
        && c.Machine.messages = Redist.nb_messages plan
        && c.Machine.volume = Redist.total_moved plan
        && c.Machine.steps = Redist.nb_phases cp
        && c.Machine.peak_step_volume = Redist.peak_collective_volume plan)

(* --- (d) modeled counters identical across executors ---------------------------- *)

let prop_par_counters_equal_seq =
  QCheck2.Test.make
    ~name:"collective modeled counters: parallel = sequential"
    ~print:Test_redist_props.print_pair ~count:80 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let scrub (m : Machine.t) = Machine.scrub ~varying:[ Par ] m.counters in
      let mp, _, _ =
        Test_par.remap_par ~lower:Exec.Collective ~src ~dst float_of_int
      and ms, _, _ =
        Test_par.remap_seq ~lower:Exec.Collective ~src ~dst float_of_int
      in
      scrub mp = scrub ms)

(* --- (e) peak staging memory ---------------------------------------------------- *)

let corner_turn ~n p =
  ( Test_redist_props.layout_1d ~n Dist.block p,
    Test_redist_props.layout_1d ~n Dist.cyclic p )

(* Block -> cyclic(3): every rank exchanges with every other, the
   all-to-all the slicing exists for.  At every grid size the collective
   peak staging bytes stay at or below p2p's; P = 1 degenerates to no
   messages and zero staging on both lowerings. *)
let test_peak_bound_at_p () =
  List.iter
    (fun p ->
      let n = 672 (* divisible by 2, 7, and 3*p for every p below *) in
      let src = Test_redist_props.layout_1d ~n Dist.block p
      and dst = Test_redist_props.layout_1d ~n (Dist.Cyclic 3) p in
      let peak lower =
        let m, _, _ =
          Test_comm.remap ~backend:Store.Distributed ~lower ~src ~dst
            float_of_int
        in
        m.Machine.counters.Machine.peak_bytes
      in
      let p2p = peak Exec.P2p and coll = peak Exec.Collective in
      Alcotest.(check bool)
        (Printf.sprintf "P=%d: collective peak_bytes %d <= p2p %d" p coll p2p)
        true (coll <= p2p);
      if p = 1 then
        Alcotest.(check int) "P=1: nothing staged" 0 coll)
    [ 1; 2; 7 ]

(* On a balanced corner turn with fan-out P-1 = 7 the bound is strict:
   p2p stages whole messages per step while the collective slices them
   across P^2-budgeted phases. *)
let test_corner_turn_strict () =
  let src, dst = corner_turn ~n:6400 8 in
  let plan = Redist.plan_intervals ~src ~dst in
  let coll = Redist.peak_collective_volume plan
  and p2p = Redist.peak_step_volume (Redist.step_program plan) in
  Alcotest.(check bool)
    (Printf.sprintf "collective peak %d < p2p peak %d" coll p2p)
    true (coll < p2p);
  (* and the executed machines charge exactly 8x those volumes *)
  let peak lower =
    let m, _, _ =
      Test_comm.remap ~backend:Store.Distributed ~lower ~src ~dst
        float_of_int
    in
    m.Machine.counters.Machine.peak_bytes
  in
  Alcotest.(check int) "collective peak_bytes" (8 * coll)
    (peak Exec.Collective);
  Alcotest.(check int) "p2p peak_bytes" (8 * p2p) (peak Exec.P2p)

(* --- (f) the auto rule ---------------------------------------------------------- *)

let prop_auto_deterministic =
  QCheck2.Test.make
    ~name:"auto lowering: deterministic cost-model rule"
    ~print:Test_redist_props.print_pair ~count:120 Test_redist_props.gen_pair
    (fun (src, dst) ->
      let plan = Redist.plan_intervals ~src ~dst in
      let m = Machine.create ~nprocs:4 ~lower:Exec.Auto () in
      let expected =
        plan.Redist.moves <> []
        && Redist.modeled_time_collective m.Machine.cost plan
           <= Redist.modeled_time_stepped m.Machine.cost plan
      in
      Comm.collective_chosen m plan = expected
      && Comm.collective_chosen m plan = Comm.collective_chosen m plan)

let suite =
  [
    Qcheck_env.to_alcotest prop_equals_p2p_seq;
    Qcheck_env.to_alcotest prop_equals_p2p_par;
    Qcheck_env.to_alcotest prop_phase_program_valid;
    Qcheck_env.to_alcotest prop_trace_replays_phases;
    Qcheck_env.to_alcotest prop_par_counters_equal_seq;
    Alcotest.test_case "peak bound at P in {1, 2, 7}" `Quick
      test_peak_bound_at_p;
    Alcotest.test_case "balanced corner turn: strictly lower peak" `Quick
      test_corner_turn_strict;
    Qcheck_env.to_alcotest prop_auto_deterministic;
  ]
