(* Experiment harness: regenerates every figure artifact of the paper and
   runs the quantitative experiments of EXPERIMENTS.md.

     dune exec bench/main.exe            -- everything
     dune exec bench/main.exe SECTION    -- one section (fig11, q1_adi, ...)

   The paper has no performance tables; the FIG sections reproduce its
   analysis artifacts, and the Q sections quantify the savings the paper
   claims qualitatively, on the simulated machine (see DESIGN.md for the
   substitution argument).  Wall-clock performance is measured by the
   repository benchmark (perfbench/), not here. *)

module I = Hpfc_interp.Interp
module Machine = Hpfc_runtime.Machine
module Redist = Hpfc_runtime.Redist
module Layout = Hpfc_mapping.Layout
module Mapping = Hpfc_mapping.Mapping
module Dist = Hpfc_mapping.Dist
module Procs = Hpfc_mapping.Procs
module Align = Hpfc_mapping.Align
module Template = Hpfc_mapping.Template
module Apps = Hpfc_kernels.Apps
module Figures = Hpfc_kernels.Figures
module Pipeline = Hpfc_driver.Pipeline
module Report = Hpfc_driver.Report

let section name descr = Fmt.pr "@.=== %s: %s ===@." name descr

let counters (r : I.result) = r.I.machine.Machine.counters

let compare_pl ?scalars ?entry src =
  Pipeline.compare_pipelines ?scalars ?entry src

let row fmt = Fmt.pr fmt

(* --- FIG experiments: one per paper figure ------------------------------- *)

let fig_sections () =
  List.map
    (fun (id, claim, text) ->
      ( id,
        claim,
        fun () ->
          section id claim;
          Fmt.pr "%s" text ))
    (Report.figure_reports ())

(* --- Q1: ADI -------------------------------------------------------------- *)

let q1_adi () =
  section "q1_adi" "ADI sweeps: remappings and volume, naive vs optimized";
  row "%6s %5s | %8s %10s | %8s %10s %8s | %6s@." "n" "steps" "remaps_n"
    "volume_n" "remaps_o" "volume_o" "reuses" "agree";
  List.iter
    (fun (n, steps) ->
      let c = compare_pl ~scalars:[ ("t", I.VInt steps) ] (Apps.adi_src ~n ()) in
      let cn = counters c.Pipeline.naive
      and co = counters c.Pipeline.optimized in
      row "%6d %5d | %8d %10d | %8d %10d %8d | %6b@." n steps
        cn.Machine.remaps_performed cn.Machine.volume
        co.Machine.remaps_performed co.Machine.volume co.Machine.live_reuses
        c.Pipeline.values_agree)
    [ (16, 2); (32, 4); (64, 4) ];
  row
    "shape: optimized keeps the 2 U corner-turns per sweep; RHS moves once \
     then reuses live copies (volume ratio -> ~1/2).@."

(* --- Q2: 2-D FFT ----------------------------------------------------------- *)

let q2_fft () =
  section "q2_fft" "2-D FFT corner turn: transpose volume and trailing remap";
  row "%6s | %8s %10s | %8s %10s | %10s@." "n" "remaps_n" "volume_n"
    "remaps_o" "volume_o" "ideal_move";
  List.iter
    (fun n ->
      let c = compare_pl (Apps.fft2d_src ~n ()) in
      let cn = counters c.Pipeline.naive
      and co = counters c.Pipeline.optimized in
      (* one transpose moves n^2 - n^2/p elements *)
      let ideal = (n * n) - (n * n / 4) in
      row "%6d | %8d %10d | %8d %10d | %10d@." n cn.Machine.remaps_performed
        cn.Machine.volume co.Machine.remaps_performed co.Machine.volume ideal)
    [ 16; 32; 64 ];
  row
    "shape: both compilations need the two corner turns (they carry live \
     data); dropping the final touch removes the trailing remap (fig1-like \
     merge).@."

(* --- Q3: consecutive calls -------------------------------------------------- *)

let q3_calls () =
  section "q3_calls" "k consecutive same-callee calls (Fig. 4 at scale)";
  row "%4s | %8s %8s | %8s %8s | %6s@." "k" "remaps_n" "msgs_n" "remaps_o"
    "msgs_o" "agree";
  List.iter
    (fun k ->
      let c = compare_pl ~entry:"calls" (Apps.calls_src ~n:64 ~k) in
      let cn = counters c.Pipeline.naive
      and co = counters c.Pipeline.optimized in
      row "%4d | %8d %8d | %8d %8d | %6b@." k cn.Machine.remaps_performed
        cn.Machine.messages co.Machine.remaps_performed co.Machine.messages
        c.Pipeline.values_agree)
    [ 1; 2; 4; 8 ];
  row
    "shape: naive pays 2k argument remappings; optimized pays 2 (one in, one \
     out) for any k.@."

(* --- Q4: redistribution engines ---------------------------------------------- *)

let timed_runs = 5

(* One warm-up call, then the median wall time of [timed_runs] calls, each
   started on a collected heap so no call pays for an earlier one's
   garbage; the result is the warm-up's. *)
let time_of f =
  let r = f () in
  let once () =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    ignore (f ());
    Unix.gettimeofday () -. t0
  in
  let times = Array.init timed_runs (fun _ -> once ()) in
  Array.sort Float.compare times;
  (r, times.(timed_runs / 2))

let q4_redist () =
  section "q4_redist"
    "redistribution plan construction: naive vs interval engine";
  row "times: median of %d calls per engine after one warm-up call@."
    timed_runs;
  let mk_direct n p dist =
    Layout.of_mapping ~extents:[| n |]
      (Mapping.direct ~array_name:"a" ~extents:[| n |] ~dist:[| dist |]
         ~procs:(Procs.linear "P" p))
  in
  row "%8s %4s %4s | %10s %13s %8s | %8s %8s@." "n" "k" "P" "naive(ms)"
    "intervals(ms)" "speedup" "msgs" "moved";
  List.iter
    (fun (n, k, p) ->
      let src = mk_direct n p Dist.block
      and dst = mk_direct n p (Dist.cyclic_sized k) in
      let p1, t1 = time_of (fun () -> Redist.plan_naive ~src ~dst) in
      let p2, t2 = time_of (fun () -> Redist.plan_intervals ~src ~dst) in
      assert (Redist.equal p1 p2);
      row "%8d %4d %4d | %10.3f %13.3f %7.0fx | %8d %8d@." n k p (t1 *. 1e3)
        (t2 *. 1e3)
        (t1 /. Float.max 1e-9 t2)
        (Redist.nb_messages p2) (Redist.total_moved p2))
    [
      (1_000, 1, 4);
      (10_000, 1, 4);
      (100_000, 1, 4);
      (100_000, 4, 4);
      (100_000, 16, 4);
      (100_000, 1, 16);
      (100_000, 16, 16);
    ];
  (* irregular targets: the second template dimension carries no array
     dimension (a replica at every grid coordinate, or the whole array
     pinned to one constant coordinate).  These used to force the
     per-element walk; the interval engine now plans them directly by
     constraining which grid coordinates participate. *)
  let mk_irregular n r second fmt =
    let t = Template.make "T" [| n; r |] in
    let align =
      [| Align.Axis { array_dim = 0; stride = 1; offset = 0 }; second |]
    in
    Layout.of_mapping ~extents:[| n |]
      (Mapping.v ~template:t ~align ~dist:[| fmt; Dist.block |]
         ~procs:(Procs.make "G" [| 4; r |]))
  in
  row "@.block -> cyclic onto a 4 x r grid with an array-free dimension:@.";
  row "%8s %4s %11s | %10s %13s %8s | %8s %8s@." "n" "r" "grid dim 2"
    "naive(ms)" "intervals(ms)" "speedup" "msgs" "moved";
  List.iter
    (fun (n, r, label, second) ->
      let src = mk_direct n 4 Dist.block
      and dst = mk_irregular n r second Dist.cyclic in
      let p1, t1 = time_of (fun () -> Redist.plan_naive ~src ~dst) in
      let p2, t2 = time_of (fun () -> Redist.plan_intervals ~src ~dst) in
      assert (Redist.equal p1 p2);
      row "%8d %4d %11s | %10.3f %13.3f %7.0fx | %8d %8d@." n r label
        (t1 *. 1e3) (t2 *. 1e3)
        (t1 /. Float.max 1e-9 t2)
        (Redist.nb_messages p2) (Redist.total_moved p2))
    [
      (10_000, 4, "replicated", Align.Replicated);
      (100_000, 4, "replicated", Align.Replicated);
      (100_000, 4, "const 0", Align.Const 0);
      (100_000, 2, "const 1", Align.Const 1);
    ];
  row
    "shape: identical plans; the interval engine never falls back to a \
     per-element walk — replicated and constant-aligned grid dimensions \
     only select which coordinates send or receive, and one sweep per \
     dimension costs the pieces it outputs, so planning never costs \
     O(n * replicas).@."

(* --- Q5: live copies and memory pressure -------------------------------------- *)

let q5_live () =
  section "q5_live" "live-copy reuse under memory pressure (Fig. 13 pattern)";
  (* A cycles through three mappings, read-only: with room for all three
     copies every revisit is free; a two-copy cap forces the runtime to
     evict a live copy and regenerate it later with communication.  A cap
     below two copies is infeasible (a remapping transiently needs source
     and destination) and the runtime reports it. *)
  let src =
    {|
subroutine pressure(t)
  integer t, i
  real p
  real A(64)
!hpf$ processors P(4)
!hpf$ dynamic A
!hpf$ distribute A(block) onto P
  A = 1.0
  do i = 1, t
!hpf$ redistribute A(cyclic)
    p = A(1)
!hpf$ redistribute A(cyclic(2))
    p = A(3)
!hpf$ redistribute A(block)
    p = A(2)
  enddo
end subroutine
|}
  in
  row "%12s | %8s %8s %8s %10s@." "memory cap" "remaps" "reuses" "evicts"
    "volume";
  List.iter
    (fun (label, limit) ->
      let machine = Machine.create ~nprocs:4 ?memory_limit:limit () in
      let r = Pipeline.run_source ~machine ~scalars:[ ("t", I.VInt 8) ] src in
      let c = counters r in
      row "%12s | %8d %8d %8d %10d@." label c.Machine.remaps_performed
        c.Machine.live_reuses c.Machine.evictions c.Machine.volume)
    [ ("unbounded", None); ("3 copies", Some 192); ("2 copies", Some 128) ];
  row
    "shape: with room for all copies, every remap after the first cycle \
     reuses a live copy; a tight cap forces eviction and regeneration with \
     communication (Sec. 5.2).@."

(* --- Q6: application cross-checks ---------------------------------------------- *)

let q6_apps () =
  section "q6_apps" "solver phase change, SAR pipeline, Fig. 4 executable";
  List.iter
    (fun (name, entry, scalars, src) ->
      let c = compare_pl ~entry ~scalars src in
      let cn = counters c.Pipeline.naive
      and co = counters c.Pipeline.optimized in
      row
        "%10s: naive remaps=%d volume=%d | optimized remaps=%d volume=%d \
         reuses=%d | agree=%b@."
        name cn.Machine.remaps_performed cn.Machine.volume
        co.Machine.remaps_performed co.Machine.volume co.Machine.live_reuses
        c.Pipeline.values_agree)
    [
      ("solver32", "solver", [], Apps.solver_src ~n:32);
      ("sar32x3", "sar", [ ("t", I.VInt 3) ], Apps.sar_src ~n:32);
      ("fig4exec", "fig4main", [], Figures.fig4_exec_src);
      ("tensor16", "tensor", [], Apps.tensor_src ~n:16);
    ]

(* --- Q7: ablation of the paper's refinements --------------------------------- *)

let q7_ablation () =
  section "q7_ablation"
    "which optimization buys what (ADI 32x4 and Fig. 10, m2=3)";
  let configs =
    [
      ("naive", I.naive_pipeline);
      ( "+removal",
        {
          I.naive_pipeline with
          I.remove_useless = true;
        } );
      ( "+use info",
        {
          I.naive_pipeline with
          I.remove_useless = true;
          I.codegen = { Hpfc_codegen.Gen.use_use_info = true; use_live_copies = false };
        } );
      ("+live copies (full)", { I.full_pipeline with I.hoist = false });
      ("+hoist (full)", I.full_pipeline);
    ]
  in
  let run_with name scalars src =
    row "%s@." name;
    row "  %-22s %8s %8s %8s %10s@." "pipeline" "remaps" "reuses" "dead"
      "volume";
    List.iter
      (fun (label, pl) ->
        let r = Pipeline.run_source ~pipeline:pl ~scalars src in
        let c = counters r in
        row "  %-22s %8d %8d %8d %10d@." label c.Machine.remaps_performed
          c.Machine.live_reuses c.Machine.dead_copies c.Machine.volume)
      configs
  in
  run_with "ADI 32x4" [ ("t", I.VInt 4) ] (Apps.adi_src ~n:32 ());
  run_with "Fig. 10 (m2=3)" [ ("m2", I.VInt 3) ] Figures.fig10_src;
  row
    "shape: removal cuts never-referenced copies; use info adds D \
     short-cuts; live copies remove read-only round-trip traffic; hoisting \
     removes in-loop invariant remappings.@."

(* --- Q9: processor-count scaling -------------------------------------------------- *)

let q9_scaling () =
  section "q9_scaling"
    "corner-turn volume vs processor count (ADI n=64, FFT n=64)";
  row "%4s | %12s %12s | %12s %12s@." "P" "adi vol (opt)" "adi time"
    "fft vol" "fft time";
  List.iter
    (fun p ->
      let adi =
        Pipeline.run_source
          ~machine:(Machine.create ~nprocs:p ())
          ~scalars:[ ("t", I.VInt 2) ]
          (Apps.adi_src ~p ~n:64 ())
      in
      let fft =
        Pipeline.run_source
          ~machine:(Machine.create ~nprocs:p ())
          (Apps.fft2d_src ~p ~n:64 ())
      in
      let ca = counters adi and cf = counters fft in
      row "%4d | %12d %12.0f | %12d %12.0f@." p ca.Machine.volume
        ca.Machine.time cf.Machine.volume cf.Machine.time)
    [ 2; 4; 8; 16 ];
  row
    "shape: a corner turn moves n^2 (1 - 1/P) elements, so volume grows \
     toward n^2 with P; the time columns are the stepped time, equal to \
     the per-processor critical path on these balanced corner turns: it \
     first shrinks (~1/P bandwidth term) and then rises again when the \
     P-1 message startups (alpha) dominate — the classic redistribution \
     crossover.@."

(* --- Q8: advanced calling convention (Sec. 2.2) --------------------------------- *)

let q8_sharing () =
  section "q8_sharing"
    "passing live copies along call arguments (Sec. 2.2 extension)";
  let src =
    {|
subroutine shmain(t)
  integer t, i
  real Y(64)
!hpf$ processors P(4)
!hpf$ dynamic Y
!hpf$ distribute Y(block) onto P
  interface
    subroutine phase(X)
      real X(64)
      intent(in) X
!hpf$ distribute X(cyclic)
    end subroutine
  end interface
  Y = 1.0
  do i = 1, t
    call phase(Y)
  enddo
  Y(0) = Y(0) + 1.0
end subroutine

subroutine phase(X)
  real X(64)
  real p
  intent(in) X
!hpf$ processors Q(4)
!hpf$ dynamic X
!hpf$ distribute X(cyclic) onto Q
!hpf$ redistribute X(block)
  p = X(3)
end subroutine
|}
  in
  row "%6s | %10s %10s | %10s %10s@." "calls" "volume" "reuses"
    "volume+shr" "reuses+shr";
  List.iter
    (fun t ->
      let base =
        Pipeline.run_source ~entry:"shmain" ~scalars:[ ("t", I.VInt t) ] src
      in
      let shared =
        Pipeline.run_source
          ~pipeline:{ I.full_pipeline with I.share_live_args = true }
          ~entry:"shmain" ~scalars:[ ("t", I.VInt t) ] src
      in
      let cb = counters base and cs = counters shared in
      row "%6d | %10d %10d | %10d %10d@." t cb.Machine.volume
        cb.Machine.live_reuses cs.Machine.volume cs.Machine.live_reuses)
    [ 1; 2; 4; 8 ];
  row
    "shape: the callee's internal block phase reuses the caller's live \
     block copy; its remapping volume disappears entirely.@."

(* --- main -------------------------------------------------------------------------- *)

let sections () =
  List.map (fun (id, _claim, f) -> (id, f)) (fig_sections ())
  @ [
      ("q1_adi", q1_adi);
      ("q2_fft", q2_fft);
      ("q3_calls", q3_calls);
      ("q4_redist", q4_redist);
      ("q5_live", q5_live);
      ("q6_apps", q6_apps);
      ("q7_ablation", q7_ablation);
      ("q8_sharing", q8_sharing);
      ("q9_scaling", q9_scaling);
    ]

let () =
  let all = sections () in
  match Sys.argv with
  | [| _ |] -> List.iter (fun (_, f) -> f ()) all
  | [| _; name |] -> (
    match List.assoc_opt name all with
    | Some f -> f ()
    | None ->
      Fmt.epr "unknown section %s; known: %a@." name
        (Hpfc_base.Util.pp_list Fmt.string)
        (List.map fst all);
      exit 1)
  | _ ->
    Fmt.epr "usage: %s [section]@." Sys.argv.(0);
    exit 1
