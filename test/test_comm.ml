(* End-to-end properties of the plan / schedule / execute pipeline: a
   real remap through the store and the communication executor leaves a
   trace whose [Message] multiset is exactly the plan, whose step
   structure replays the schedule in order and contention-free, and
   whose stepped [Step_end] times sum to the clock charged.  On top of
   that, the canonical backend replays the identical message stream
   against the global payload, so both backends must agree element-wise
   even on irregular (replicated / constant-aligned) layouts. *)

open Hpfc_mapping
open Hpfc_runtime

(* Run one data-carrying remap src -> dst on a fresh traced machine and
   return the machine, the store and the descriptor for inspection.
   [executor] swaps in an alternative communication executor (the
   domain-parallel backend in test_par.ml).  [lower] pins the machine's
   plan lowering for lowering-specific tests (the p2p trace-shape laws
   here, the collective ones in test_collective.ml); left out, the
   machine takes the environment's, so the generic properties run under
   whichever setting the environment forces. *)
let remap ?(backend = Store.Canonical) ?(sched = Machine.Burst) ?executor
    ?lower ~src ~dst fill =
  let m = Machine.create ~nprocs:4 ~sched ?lower ~record_trace:true () in
  let s = Store.create ~backend ?executor m in
  let d =
    Store.add_descriptor s ~name:"a" ~extents:src.Layout.extents ~nb_versions:2
      ()
  in
  Store.alloc s d 0 src;
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.fill_copy (Store.get_copy d 0) fill;
  Store.alloc s d 1 dst;
  Store.copy_version s d ~src:0 ~dst:1 ~with_data:true;
  d.Store.status <- Some 1;
  (m, s, d)

let traced_messages m =
  List.filter_map
    (function
      | Machine.Message { from_rank; to_rank; count } ->
        Some (from_rank, to_rank, count)
      | _ -> None)
    (Machine.events m)

(* --- (a) the trace is the plan ----------------------------------------------- *)

let prop_trace_matches_plan =
  QCheck2.Test.make
    ~name:"traced message multiset = plan pairs, counters match"
    ~print:Test_redist_props.print_pair ~count:200 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective trace lists slices, not messages *)
      let m, s, d = remap ~lower:Exec.P2p ~src ~dst float_of_int in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let c = m.Machine.counters in
      List.sort compare (traced_messages m) = Redist.pairs plan
      && c.Machine.messages = Redist.nb_messages plan
      && c.Machine.volume = Redist.total_moved plan
      && c.Machine.local_moves = Redist.local_total plan
      && c.Machine.remaps_performed = 1)

(* --- (b) the trace replays the schedule --------------------------------------- *)

(* Fold the event stream into (step index, messages, step-end time)
   groups, failing on malformed bracketing (message outside a step,
   mismatched indices). *)
let steps_of_trace events =
  let rec go acc cur = function
    | [] -> if cur = None then Some (List.rev acc) else None
    | Machine.Step_begin { index; _ } :: rest ->
      if cur = None then go acc (Some (index, [])) rest else None
    | Machine.Step_end { index; time } :: rest -> (
      match cur with
      | Some (i, ms) when i = index ->
        go ((i, List.rev ms, time) :: acc) None rest
      | _ -> None)
    | Machine.Message { from_rank; to_rank; count } :: rest -> (
      match cur with
      | Some (i, ms) -> go acc (Some (i, (from_rank, to_rank, count) :: ms)) rest
      | None -> None)
    | _ :: rest -> go acc cur rest
  in
  go [] None events

let contention_free ms =
  let senders = List.map (fun (f, _, _) -> f) ms
  and receivers = List.map (fun (_, t, _) -> t) ms in
  List.length (List.sort_uniq compare senders) = List.length senders
  && List.length (List.sort_uniq compare receivers) = List.length receivers

let prop_trace_replays_schedule =
  QCheck2.Test.make
    ~name:"stepped trace = step program in order, contention-free"
    ~print:Test_redist_props.print_pair ~count:200 Test_redist_props.gen_pair
    (fun (src, dst) ->
      (* p2p-specific: the collective replays its phase program instead *)
      let m, s, d =
        remap ~sched:Machine.Stepped ~lower:Exec.P2p ~src ~dst
          float_of_int
      in
      let plan = Store.plan_for s d ~src:0 ~dst:1 in
      let prog = Redist.step_program plan in
      match steps_of_trace (Machine.events m) with
      | None -> false
      | Some groups ->
        List.map (fun (i, _, _) -> i) groups
        = List.init (List.length prog) (fun i -> i)
        && List.map (fun (_, ms, _) -> ms) groups
           = List.map
               (List.map (fun (msg : Redist.message) ->
                    (msg.Redist.m_from, msg.Redist.m_to, msg.Redist.m_count)))
               prog
        && List.for_all (fun (_, ms, _) -> contention_free ms) groups
        (* in stepped mode the traced step times sum to the clock *)
        && abs_float
             (List.fold_left (fun acc (_, _, t) -> acc +. t) 0.0 groups
             -. m.Machine.counters.Machine.time)
           < 1e-6)

(* --- (c) canonical replay == distributed execution ----------------------------- *)

let gen_irregular_pair =
  QCheck2.Gen.(
    let* n = int_range 1 24 in
    let* swap = bool in
    let* a = Test_redist_props.gen_irregular ~n in
    let* b = Test_redist_props.gen_side ~n in
    return (if swap then (b, a) else (a, b)))

let prop_backends_agree_irregular =
  QCheck2.Test.make
    ~name:"canonical replay = distributed execution on irregular layouts"
    ~print:Test_redist_props.print_pair ~count:150 gen_irregular_pair
    (fun (src, dst) ->
      let fill k = float_of_int ((7 * k) + 3) in
      let run backend =
        let _, _, d = remap ~backend ~src ~dst fill in
        Store.to_global (Store.get_copy d 1)
      in
      let canonical = run Store.Canonical
      and distributed = run Store.Distributed in
      let n = src.Layout.extents.(0) in
      canonical = distributed
      (* and the remap actually delivered every element *)
      && canonical = Array.init n fill)

(* --- deterministic spot checks -------------------------------------------------- *)

(* The remap trace brackets correctly and the cache probe lands between
   begin and end. *)
let test_trace_shape () =
  let procs p = Procs.linear "P" p in
  let layout d =
    Layout.of_mapping ~extents:[| 16 |]
      (Mapping.direct ~array_name:"a" ~extents:[| 16 |] ~dist:[| d |]
         ~procs:(procs 4))
  in
  let m, _, _ =
    remap ~sched:Machine.Stepped ~src:(layout Dist.block)
      ~dst:(layout Dist.cyclic) float_of_int
  in
  match Machine.events m with
  | Machine.Remap_begin { array = "a"; src = Some 0; dst = 1 }
    :: Machine.Plan_lookup { hit = false }
    :: rest -> (
    match List.rev rest with
    | Machine.Remap_end { array = "a"; volume = 12; _ } :: _ -> ()
    | _ -> Alcotest.fail "last event must be Remap_end with volume 12")
  | _ -> Alcotest.fail "trace must open with Remap_begin, Plan_lookup"

let suite =
  [
    Qcheck_env.to_alcotest prop_trace_matches_plan;
    Qcheck_env.to_alcotest prop_trace_replays_schedule;
    Qcheck_env.to_alcotest prop_backends_agree_irregular;
    Alcotest.test_case "remap trace shape" `Quick test_trace_shape;
  ]
