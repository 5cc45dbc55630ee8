(* Loop-invariant motion edge cases and driver/report coverage. *)

module Hoist = Hpfc_opt.Hoist
module Pipeline = Hpfc_driver.Pipeline
module Report = Hpfc_driver.Report
module I = Hpfc_interp.Interp
module Machine = Hpfc_runtime.Machine
open Hpfc_lang

let parse = Hpfc_parser.Parser.parse_routine_string

(* --- hoisting ------------------------------------------------------------------ *)

(* Nested loops: the trailing remap hoists out of the inner loop, then out
   of the outer loop too (both guards hold). *)
let test_hoist_two_levels () =
  let r =
    parse
      {|
subroutine s(t)
  integer t, i, j
  real A(16)
!hpf$ processors P(4)
!hpf$ dynamic A
!hpf$ distribute A(block) onto P
  A = 1.0
  do i = 0, t
    do j = 0, t
!hpf$ redistribute A(cyclic)
      A(0) = A(0) + 1.0
!hpf$ redistribute A(block)
    enddo
  enddo
  A(2) = A(2) + 1.0
end subroutine
|}
  in
  let r', hoisted = Hoist.run r in
  Alcotest.(check int) "hoisted twice" 2 hoisted;
  (* the trailing redistribute now follows the outer loop *)
  let top_kinds =
    List.map (fun (s : Ast.stmt) ->
        match s.Ast.skind with
        | Ast.Do _ -> "do"
        | Ast.Redistribute _ -> "redistribute"
        | Ast.Full_assign _ -> "full"
        | Ast.Assign _ -> "assign"
        | _ -> "other")
      r'.Ast.r_body
  in
  Alcotest.(check (list string)) "structure"
    [ "full"; "do"; "redistribute"; "assign" ] top_kinds

(* Executing the two-level hoist preserves semantics and pays the heading
   remap only once. *)
let test_hoist_two_levels_runtime () =
  let src =
    {|
subroutine s(t)
  integer t, i, j
  real A(16)
!hpf$ processors P(4)
!hpf$ dynamic A
!hpf$ distribute A(block) onto P
  A = 1.0
  do i = 0, t
    do j = 0, t
!hpf$ redistribute A(cyclic)
      A(0) = A(0) + 1.0
!hpf$ redistribute A(block)
    enddo
  enddo
  A(2) = A(2) + 1.0
end subroutine
|}
  in
  let c = Pipeline.compare_pipelines ~scalars:[ ("t", I.VInt 2) ] src in
  Alcotest.(check bool) "values agree" true c.Pipeline.values_agree;
  (* 9 inner iterations: naive pays 18 copies; optimized pays 2 *)
  Alcotest.(check int) "naive copies" 18
    c.Pipeline.naive.I.machine.Machine.counters.Machine.remaps_performed;
  Alcotest.(check int) "optimized copies" 2
    c.Pipeline.optimized.I.machine.Machine.counters.Machine.remaps_performed

(* A remap trailing the loop for one array but not the other hoists only
   when legal for all remapped arrays of the statement. *)
let test_hoist_template_pair () =
  let r =
    parse
      {|
subroutine s(t)
  integer t, i
  real A(16), B(16)
!hpf$ processors P(4)
!hpf$ template T(16)
!hpf$ dynamic A, B
!hpf$ align A with T
!hpf$ align B with T
!hpf$ distribute T(block) onto P
  A = 1.0
  B = 2.0
  do i = 0, t
!hpf$ redistribute T(cyclic)
    A(0) = A(0) + B(1)
!hpf$ redistribute T(block)
  enddo
  A(2) = B(3)
end subroutine
|}
  in
  let _, hoisted = Hoist.run r in
  Alcotest.(check int) "hoisted once" 1 hoisted

(* --- driver/report ----------------------------------------------------------------- *)

let test_analyze_reports () =
  let r = parse Hpfc_kernels.Figures.fig10_src in
  let _, report = Pipeline.analyze r in
  Alcotest.(check int) "G_R vertices" 7 report.Pipeline.gr_vertices;
  Alcotest.(check int) "removed" 6 report.Pipeline.removed;
  Alcotest.(check bool) "operations dropped" true
    (report.Pipeline.remappings_after < report.Pipeline.remappings_before);
  Alcotest.(check (list (pair string int))) "copies"
    [ ("a", 4); ("b", 4); ("c", 4) ]
    (List.sort compare report.Pipeline.versions)

let test_figure_reports_all_render () =
  let reports = Report.figure_reports () in
  Alcotest.(check int) "14 figures" 14 (List.length reports);
  List.iter
    (fun (id, claim, text) ->
      Alcotest.(check bool) (id ^ " has claim") true (String.length claim > 0);
      Alcotest.(check bool) (id ^ " renders") true (String.length text > 0))
    reports

let test_verdicts () =
  Alcotest.(check string) "fig6 accepted" "accepted"
    (Report.verdict Hpfc_kernels.Figures.fig6_src);
  Alcotest.(check bool) "fig5 rejected" true
    (Astring.String.is_prefix ~affix:"rejected" (Report.verdict Hpfc_kernels.Figures.fig5_src))

let test_compare_pipelines_shape () =
  let c =
    Pipeline.compare_pipelines ~entry:"calls"
      (Hpfc_kernels.Apps.calls_src ~n:32 ~k:3)
  in
  Alcotest.(check bool) "values agree" true c.Pipeline.values_agree;
  let printed = Fmt.str "%a" Pipeline.pp_comparison c in
  Alcotest.(check bool) "table printed" true
    (Astring.String.is_infix ~affix:"optimized" printed)

(* The --compare table's layout: a 10-column label, then 12-column
   fields, so every row's first number (the header's "naive") ends in
   column 22. *)
let test_compare_columns_align () =
  let c =
    Pipeline.compare_pipelines ~entry:"calls"
      (Hpfc_kernels.Apps.calls_src ~n:32 ~k:3)
  in
  let rows =
    String.split_on_char '\n' (Fmt.str "%a" Pipeline.pp_comparison c)
    |> List.filter (fun l ->
           l <> "" && not (Astring.String.is_prefix ~affix:"values" l))
  in
  Alcotest.(check bool) "rows printed" true (List.length rows >= 10);
  List.iter
    (fun l ->
      let first_end =
        let rec skip i = if l.[i] = ' ' then skip (i + 1) else token i
        and token i =
          if i < String.length l && l.[i] <> ' ' then token (i + 1) else i
        in
        skip 10
      in
      Alcotest.(check int) ("first number ends in column 22: " ^ l) 22
        first_end)
    rows

(* --- one G_R per routine: pre-check, handoff, route rule ----------------- *)

module Graph = Hpfc_remap.Graph
module Construct = Hpfc_remap.Construct
module Figures = Hpfc_kernels.Figures
module Apps = Hpfc_kernels.Apps
module FG = Hpfc_fuzz.Gen

let error_of f =
  match f () with
  | _ -> None
  | exception Hpfc_base.Error.Hpf_error (k, m) ->
    Some (Hpfc_base.Error.kind_to_string k ^ ": " ^ m)

(* The graph [Interp.optimize] hands to code generation prints exactly
   as a fresh build of the hoisted routine (followed by useless-remapping
   removal when the pass is on); rejected routines are rejected alike. *)
let handoff_agrees (r : Ast.routine) =
  List.for_all
    (fun remove_useless ->
      let p = { I.full_pipeline with I.remove_useless } in
      let fresh () =
        let g = Construct.build (fst (Hoist.run r)) in
        if remove_useless then ignore (Hpfc_opt.Remove_useless.run g);
        Graph.to_string g
      in
      match (I.optimize p r, fresh ()) with
      | o, g -> String.equal (Graph.to_string o.I.graph) g
      | exception Hpfc_base.Error.Hpf_error _ ->
        error_of (fun () -> I.optimize p r) = error_of fresh)
    [ false; true ]

let kernel_sources =
  List.map snd Figures.all
  @ [
      Apps.adi_src ~n:16 ();
      Apps.fft2d_src ~n:16 ();
      Apps.fft2d_src ~sweeps:3 ~n:16 ();
      Apps.solver_src ~n:16;
      Apps.sar_src ~n:16;
      Apps.calls_src ~n:32 ~k:3;
      Apps.tensor_src ~n:8;
    ]

let test_handoff_kernels () =
  List.iteri
    (fun i src ->
      List.iter
        (fun (r : Ast.routine) ->
          Alcotest.(check bool)
            (Printf.sprintf "source %d, %s" i r.Ast.r_name)
            true (handoff_agrees r))
        (Hpfc_parser.Parser.parse_program src).Ast.routines)
    kernel_sources

let prop_handoff_generated =
  QCheck2.Test.make ~name:"pipeline graph = fresh build of hoisted routine"
    ~count:100 ~print:FG.print_case FG.gen_case (fun c ->
      List.for_all handoff_agrees c.FG.program.Ast.routines)

(* No loop body ends in a remapping: the routine comes back untouched and
   no graph is built, whatever else the routine contains. *)
let test_precheck_no_candidate () =
  let r =
    parse
      {|
subroutine s(t, c)
  integer t, c, i
  real A(16)
!hpf$ processors P(4)
!hpf$ dynamic A
!hpf$ distribute A(block) onto P
  A = 1.0
  do i = 0, t
!hpf$ redistribute A(cyclic)
    A(0) = A(0) + 1.0
  enddo
  if (c > 0) then
!hpf$ redistribute A(block)
  endif
  A(2) = A(2) + 1.0
end subroutine
|}
  in
  let r', hoisted = Hoist.run r in
  Alcotest.(check bool) "physically equal" true (r' == r);
  Alcotest.(check int) "nothing hoisted" 0 hoisted;
  let _, _, g = Hoist.run_graph r in
  Alcotest.(check bool) "no graph built" true (Option.is_none g);
  (* the pre-check looks inside IF branches, as the search does *)
  let r =
    parse
      {|
subroutine s(t, c)
  integer t, c, i
  real A(16)
!hpf$ processors P(4)
!hpf$ dynamic A
!hpf$ distribute A(block) onto P
  A = 1.0
  if (c > 0) then
    A(1) = 2.0
  else
    do i = 0, t
!hpf$ redistribute A(cyclic)
      A(0) = A(0) + 1.0
!hpf$ redistribute A(block)
    enddo
  endif
  A(2) = A(2) + 1.0
end subroutine
|}
  in
  let _, hoisted, g = Hoist.run_graph r in
  Alcotest.(check int) "candidate in an else branch hoisted" 1 hoisted;
  Alcotest.(check bool) "graph handed over" true (Option.is_some g)

(* The first graph build of a routine moved from hoisting into the
   pipeline for routines without a candidate: rejections still read the
   same (messages pinned from before the move). *)
let test_rejections_unchanged () =
  let compile_error prog = error_of (fun () -> I.compile prog) in
  let generated seed =
    (QCheck2.Gen.generate1 ~rand:(Random.State.make [| seed |]) FG.gen_case)
      .FG.program
  in
  Alcotest.(check (option string)) "fig5"
    (Some
       "ambiguous mapping: array a is referenced at stmt#6 under 2 possible \
        mappings")
    (compile_error (Hpfc_parser.Parser.parse_program Figures.fig5_src));
  (* generator seed 0 has no hoist candidate, seed 27 has one *)
  Alcotest.(check (option string)) "generated, no candidate"
    (Some
       "invalid directive: template $a dim 0: block(4) on 4 procs cannot \
        cover extent 22")
    (compile_error (generated 0));
  Alcotest.(check (option string)) "generated, with candidate"
    (Some
       "invalid directive: template $d dim 0: block(5) on 2 procs cannot \
        cover extent 15")
    (compile_error (generated 27))

(* The fuzzer's repro (test/corpus/fuzz-2344f6967502.hpf): hoisting the
   trailing [redistribute a(block)] out of the outer loop would make the
   call's implicit remapping start from cyclic on later iterations — a
   cyclic -> cyclic(3) route the unhoisted code never takes. *)
let route_repro =
  {|
subroutine main(a)
  integer i
  integer j
  real a(9)
  intent(inout) a
!hpf$ dynamic a
!hpf$ processors q(4)
!hpf$ distribute a(block) onto q
  interface
    subroutine stage(x)
      real x(9)
      intent(inout) x
!hpf$ distribute x(cyclic(3))
    end subroutine
  end interface
  a = 0.0
  do i = 0, 1
    do j = 0, 1
      call stage(a)
    enddo
!hpf$ redistribute a(cyclic) onto q
!hpf$ redistribute a(block) onto q
  enddo
end subroutine
|}

let test_route_rule () =
  let r = parse route_repro in
  let r', hoisted = Hoist.run r in
  Alcotest.(check int) "repro: motion refused" 0 hoisted;
  Alcotest.(check bool) "repro: routine untouched" true (r' == r);
  (* the refused motion, made by hand, does add a route *)
  let moved =
    match r.Ast.r_body with
    | [ init; ({ Ast.skind = Ast.Do d; _ } as s) ] -> (
      match List.rev d.body with
      | last :: rest ->
        [ init; { s with Ast.skind = Ast.Do { d with body = List.rev rest } };
          last ]
      | [] -> Alcotest.fail "empty loop body")
    | _ -> Alcotest.fail "unexpected repro shape"
  in
  Alcotest.(check bool) "repro: new route" false
    (Hoist.keeps_routes ~before:(Construct.build r)
       ~after:(Construct.build { r with Ast.r_body = moved }));
  (* Fig. 16 -> 17 takes no new route and still hoists *)
  let f16 = parse Figures.fig16_src in
  let f17, hoisted = Hoist.run f16 in
  Alcotest.(check int) "fig16: hoisted" 1 hoisted;
  Alcotest.(check bool) "fig16 -> 17 keeps routes" true
    (Hoist.keeps_routes ~before:(Construct.build f16)
       ~after:(Construct.build f17))

(* [hpfc compile]'s report for every figure, pinned byte for byte from
   before G_R was built once per routine. *)
let figure_report_text src =
  String.concat ""
    (List.map
       (fun r ->
         match Pipeline.analyze r with
         | _, rep -> Fmt.str "%a" Pipeline.pp_report rep
         | exception Hpfc_base.Error.Hpf_error (k, m) ->
           Fmt.str "%s: %s@." (Hpfc_base.Error.kind_to_string k) m)
       (Hpfc_parser.Parser.parse_program src).Ast.routines)

let pinned_reports =
  let report name vertices edges copies hoisted removed noops before after =
    Printf.sprintf
      "routine %s:\n\
      \  G_R: %d vertices, %d edges\n\
      \  copies: %s\n\
      \  hoisted %d, removed %d useless + %d no-ops\n\
      \  remapping operations: %d -> %d\n"
      name vertices edges copies hoisted removed noops before after
  in
  [
    ("fig1", report "fig1" 4 4 "a:3, b:2" 0 3 0 5 2);
    ("fig2", report "fig2" 4 4 "b:1, c:2" 0 1 1 4 2);
    ("fig3", report "fig3" 3 2 "a:2, b:2, c:2, d:2, e:2" 0 3 0 10 7);
    ("fig4", report "fig4" 8 7 "y:3" 0 2 1 7 4);
    ( "fig5",
      "ambiguous mapping: array a is referenced at stmt#6 under 2 possible \
       mappings\n" );
    ("fig6", report "fig6" 4 4 "a:2" 0 0 0 3 3);
    ("fig10", report "remap" 7 11 "a:4, b:4, c:4" 0 6 0 15 9);
    ("fig13", report "fig13" 5 5 "a:3" 0 0 0 4 4);
    ("fig15", report "fig15" 5 5 "a:3" 0 1 0 4 3);
    ("fig16", report "fig16" 4 5 "a:2" 1 0 0 3 3);
    ("fig21", report "fig21" 4 4 "a:4" 0 0 0 3 3);
  ]

let test_figure_reports_pinned () =
  Alcotest.(check (list string)) "figures covered"
    (List.map fst pinned_reports) (List.map fst Figures.all);
  List.iter
    (fun (id, src) ->
      Alcotest.(check string) id (List.assoc id pinned_reports)
        (figure_report_text src))
    Figures.all

let suite =
  [
    Alcotest.test_case "hoist two levels" `Quick test_hoist_two_levels;
    Alcotest.test_case "hoist two levels runtime" `Quick test_hoist_two_levels_runtime;
    Alcotest.test_case "hoist aligned pair" `Quick test_hoist_template_pair;
    Alcotest.test_case "analyze report" `Quick test_analyze_reports;
    Alcotest.test_case "figure reports render" `Quick test_figure_reports_all_render;
    Alcotest.test_case "verdicts" `Quick test_verdicts;
    Alcotest.test_case "compare pipelines" `Quick test_compare_pipelines_shape;
    Alcotest.test_case "compare table columns align" `Quick
      test_compare_columns_align;
    Alcotest.test_case "graph handoff: kernels" `Quick test_handoff_kernels;
    Qcheck_env.to_alcotest prop_handoff_generated;
    Alcotest.test_case "hoist pre-check: no candidate" `Quick
      test_precheck_no_candidate;
    Alcotest.test_case "rejections unchanged" `Quick test_rejections_unchanged;
    Alcotest.test_case "hoist route rule" `Quick test_route_rule;
    Alcotest.test_case "figure reports pinned" `Quick
      test_figure_reports_pinned;
  ]
