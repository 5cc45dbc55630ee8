(* Additional deterministic coverage: lexer, pretty-printer goldens, the
   version registry, propagation state operations, graph helpers and dot
   output, machine traces, store payload round-trips, and interpreter
   expression semantics. *)

module L = Hpfc_parser.Lexer
module Version = Hpfc_remap.Version
module State = Hpfc_remap.State
module Graph = Hpfc_remap.Graph
module Machine = Hpfc_runtime.Machine
module Store = Hpfc_runtime.Store
module Buf = Hpfc_runtime.Buf
module I = Hpfc_interp.Interp
module Figures = Hpfc_kernels.Figures
open Hpfc_mapping
open Hpfc_lang

let parse = Hpfc_parser.Parser.parse_routine_string

(* --- lexer ------------------------------------------------------------------- *)

let toks src = List.map (fun l -> l.L.tok) (L.tokenize src)

let test_lexer_operators () =
  Alcotest.(check bool) "operators" true
    (toks "a + b - c * d / e == f /= g < h <= i > j >= k"
    = [
        L.IDENT "a"; L.PLUS; L.IDENT "b"; L.MINUS; L.IDENT "c"; L.STAR;
        L.IDENT "d"; L.SLASH; L.IDENT "e"; L.EQEQ; L.IDENT "f"; L.NE;
        L.IDENT "g"; L.LT; L.IDENT "h"; L.LE; L.IDENT "i"; L.GT;
        L.IDENT "j"; L.GE; L.IDENT "k"; L.NEWLINE; L.EOF;
      ])

let test_lexer_logic_and_numbers () =
  Alcotest.(check bool) "dots and numbers" true
    (toks "x .and. y .or. .not. z 3 2.5 1e3"
    = [
        L.IDENT "x"; L.DOT_AND; L.IDENT "y"; L.DOT_OR; L.DOT_NOT;
        L.IDENT "z"; L.INT 3; L.FLOAT 2.5; L.FLOAT 1000.0; L.NEWLINE; L.EOF;
      ])

let test_lexer_directive_vs_comment () =
  Alcotest.(check bool) "directive kept, comment dropped" true
    (toks "!hpf$ dynamic a\n! plain comment\nx = 1"
    = [
        L.DIRECTIVE; L.IDENT "dynamic"; L.IDENT "a"; L.NEWLINE; L.IDENT "x";
        L.ASSIGN; L.INT 1; L.NEWLINE; L.EOF;
      ])

let test_lexer_case_folding () =
  Alcotest.(check bool) "identifiers lowercased" true
    (toks "SubRoutine FOO" = [ L.IDENT "subroutine"; L.IDENT "foo"; L.NEWLINE; L.EOF ])

let test_lexer_bad_char () =
  match L.tokenize "x = #" with
  | exception Hpfc_base.Error.Hpf_error (Parse_error, msg) ->
    Alcotest.(check bool) "line reported" true
      (Astring.String.is_infix ~affix:"line 1" msg)
  | _ -> Alcotest.fail "expected a lexing error"

(* --- printer goldens ----------------------------------------------------------- *)

let pp_expr_to_string e = Fmt.str "%a" Pp_ast.pp_expr e

let test_pp_expr_precedence () =
  let e =
    Ast.Binop
      (Ast.Mul, Ast.Binop (Ast.Add, Ast.Int 1, Ast.Int 2), Ast.Int 3)
  in
  Alcotest.(check string) "parens kept" "(1 + 2) * 3" (pp_expr_to_string e);
  let e2 =
    Ast.Binop
      (Ast.Add, Ast.Int 1, Ast.Binop (Ast.Mul, Ast.Int 2, Ast.Int 3))
  in
  Alcotest.(check string) "no spurious parens" "1 + 2 * 3" (pp_expr_to_string e2)

let test_pp_align_spec () =
  let spec =
    Build.align ~rank:2 ~target:"t"
      [ Build.sub 1; Build.sub ~stride:2 ~offset:1 0 ]
  in
  Alcotest.(check string) "align printing" "a(i, j) with t(j, 2*i+1)"
    (Fmt.str "%a" Pp_ast.pp_align_spec ("a", spec))

let test_pp_dist_spec () =
  Alcotest.(check string) "dist printing" "t(block, cyclic(3), *) onto p"
    (Fmt.str "%a" Pp_ast.pp_dist_spec
       ("t", Build.dist ~onto:"p" Dist.[ block; cyclic_sized 3; star ]))

(* --- version registry ------------------------------------------------------------ *)

let test_registry_layout_collapse () =
  let reg = Version.create ~extents_of:(fun _ -> [| 16 |]) in
  let t1 = Template.make "T1" [| 16 |] and t2 = Template.make "T2" [| 16 |] in
  let mk t =
    Mapping.v ~template:t ~align:(Align.identity 1) ~dist:[| Dist.block |]
      ~procs:(Procs.linear "P" 4)
  in
  let v1 = Version.of_mapping reg "a" (mk t1) in
  let v2 = Version.of_mapping reg "a" (mk t2) in
  (* same layout through different templates: same version *)
  Alcotest.(check int) "same version" v1 v2;
  Alcotest.(check int) "count 1" 1 (Version.count reg "a");
  let v3 =
    Version.of_mapping reg "a"
      (Mapping.direct ~array_name:"a" ~extents:[| 16 |]
         ~dist:[| Dist.cyclic |] ~procs:(Procs.linear "P" 4))
  in
  Alcotest.(check int) "new version" 1 v3;
  Alcotest.(check bool) "nth retrieval" true
    (Layout.equal
       (Version.layout_of reg "a" 1)
       (Layout.of_mapping ~extents:[| 16 |]
          (Mapping.direct ~array_name:"a" ~extents:[| 16 |]
             ~dist:[| Dist.cyclic |] ~procs:(Procs.linear "P" 4))));
  match Version.nth reg "a" 5 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "nth out of range must raise"

(* --- state operations -------------------------------------------------------------- *)

let test_state_ops () =
  let m1 =
    Mapping.direct ~array_name:"a" ~extents:[| 8 |] ~dist:[| Dist.block |]
      ~procs:(Procs.linear "P" 4)
  in
  let m2 =
    Mapping.direct ~array_name:"a" ~extents:[| 8 |] ~dist:[| Dist.cyclic |]
      ~procs:(Procs.linear "P" 4)
  in
  let st = State.set_mappings State.empty "a" [ m1; m2; m1 ] in
  Alcotest.(check int) "dedup on set" 2 (List.length (State.mappings st "a"));
  let st = State.set_mappings st (State.save_key 7 "a") [ m1 ] in
  Alcotest.(check int) "save key stored" 1
    (List.length (State.mappings st (State.save_key 7 "a")));
  let st' =
    State.map_mappings st (fun _ m ->
        Mapping.redistribute m ~dist:[| Dist.cyclic |]
          ~procs:(Procs.linear "P" 4))
  in
  (* both m1 and m2 collapse to cyclic *)
  Alcotest.(check int) "map + dedup" 1 (List.length (State.mappings st' "a"));
  let removed = State.remove_array st (State.save_key 7 "a") in
  Alcotest.(check int) "save key removed" 0
    (List.length (State.mappings removed (State.save_key 7 "a")))

(* --- graph helpers ------------------------------------------------------------------- *)

let test_graph_helpers () =
  let g = Hpfc_remap.Construct.build (parse Figures.fig10_src) in
  Alcotest.(check int) "vertices" 7 (Graph.nb_vertices g);
  Alcotest.(check bool) "edges nonempty" true (Graph.nb_edges g > 0);
  Alcotest.(check bool) "remappings counted" true (Graph.nb_remappings g >= 14);
  (* succs/preds are inverse *)
  List.iter
    (fun vid ->
      List.iter
        (fun a ->
          List.iter
            (fun s ->
              Alcotest.(check bool) "pred inverse" true
                (List.mem vid (Graph.preds_for g s a)))
            (Graph.succs_for g vid a))
        (Graph.arrays_at g vid))
    (Graph.vertex_ids g);
  let dot = Graph.to_dot g in
  Alcotest.(check bool) "dot has digraph" true
    (Astring.String.is_infix ~affix:"digraph remapping_graph" dot);
  Alcotest.(check bool) "dot has edges" true
    (Astring.String.is_infix ~affix:" -> " dot)

(* --- machine trace ---------------------------------------------------------------------- *)

let test_trace_events () =
  let machine = Machine.create ~nprocs:4 ~record_trace:true () in
  let r =
    Hpfc_driver.Pipeline.run_source ~machine
      ~scalars:[ ("c", I.VInt 0) ]
      Figures.fig13_src
  in
  let events = Machine.events r.I.machine in
  let is_copy = function Machine.Remap_end _ -> true | _ -> false
  and is_reuse = function Machine.Live_reuse _ -> true | _ -> false in
  (* else path: one real copy to cyclic(2), then the block restore is a
     live reuse *)
  Alcotest.(check bool) "has a copy" true (List.exists is_copy events);
  Alcotest.(check bool) "has a reuse" true (List.exists is_reuse events);
  (* the copy precedes the reuse *)
  let rec before l =
    match l with
    | e :: rest when is_copy e -> List.exists is_reuse rest
    | _ :: rest -> before rest
    | [] -> false
  in
  Alcotest.(check bool) "copy before reuse" true (before events);
  (* every remap brackets correctly: begin, then end on the same array *)
  let begins =
    List.length (List.filter (function Machine.Remap_begin _ -> true | _ -> false) events)
  and ends = List.length (List.filter is_copy events) in
  Alcotest.(check int) "balanced remap begin/end" begins ends

let test_trace_disabled_by_default () =
  let machine = Machine.create ~nprocs:4 () in
  let r =
    Hpfc_driver.Pipeline.run_source ~machine
      ~scalars:[ ("c", I.VInt 0) ]
      Figures.fig13_src
  in
  Alcotest.(check int) "no events recorded" 0
    (List.length (Machine.events r.I.machine))

(* --- store payloads ------------------------------------------------------------------------ *)

(* The payload layouts: cyclic rows, block rows, cyclic(8), a strided
   reversing alignment, and a replicated grid dimension (two copies of
   every element on a 2x2 grid). *)
let payload_layouts () =
  let direct extents dist =
    Layout.of_mapping ~extents
      (Mapping.direct ~array_name:"a" ~extents ~dist
         ~procs:(Procs.linear "P" 4))
  in
  let strided =
    (* x -> 40 - 2x on a 41-cell template, cyclic(3) *)
    Layout.of_mapping ~extents:[| 21 |]
      (Mapping.v
         ~template:(Template.make "T" [| 41 |])
         ~align:[| Align.Axis { array_dim = 0; stride = -2; offset = 40 } |]
         ~dist:[| Dist.cyclic_sized 3 |]
         ~procs:(Procs.linear "P" 4))
  in
  let replicated =
    Layout.of_mapping ~extents:[| 10; 3 |]
      (Mapping.v
         ~template:(Template.make "T" [| 10; 2 |])
         ~align:
           [|
             Align.Axis { array_dim = 0; stride = 1; offset = 0 };
             Align.Replicated;
           |]
         ~dist:[| Dist.block; Dist.block |]
         ~procs:(Procs.make "G" [| 2; 2 |]))
  in
  [
    ("cyclic rows", direct [| 6; 4 |] [| Dist.cyclic; Dist.star |]);
    ("block rows", direct [| 9; 5 |] [| Dist.block; Dist.star |]);
    ("cyclic(8)", direct [| 40 |] [| Dist.cyclic_sized 8 |]);
    ("strided", strided);
    ("replicated", replicated);
  ]

(* Row-major index vector of global position [k], written into [idx]. *)
let set_index extents idx k =
  let k = ref k in
  for d = Array.length extents - 1 downto 0 do
    idx.(d) <- !k mod extents.(d);
    k := !k / extents.(d)
  done

(* Minor words allocated by 10 000 read-increment-write steps of [step]
   over positions [0, n). *)
let minor_words_of_steps n step =
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    step (i mod n)
  done;
  Gc.minor_words () -. before

(* Every payload round-trips through fill_copy/to_global under both
   backends.  On distributed copies, 10 000 copy_get + copy_set pairs
   allocate no more than the same steps on one raw buffer: nothing in an
   optimized build, and only the boxing of the float that crosses each
   out-of-line call when cross-module inlining is off (the dev
   profile's -opaque).  One word per call of address arithmetic would
   read >= 10 000 more.  Every replica of every element stays equal. *)
let test_fill_to_global_roundtrip () =
  List.iter
    (fun (name, layout) ->
      let extents = layout.Layout.extents in
      let n = Layout.nb_elements layout in
      List.iter
        (fun backend ->
          let m = Machine.create ~nprocs:4 () in
          let s = Store.create ~backend m in
          let d = Store.add_descriptor s ~name:"a" ~extents ~nb_versions:1 () in
          Store.alloc s d 0 layout;
          let c = Store.get_copy d 0 in
          Store.fill_copy c (fun k -> float_of_int (k * 3));
          let expected = Array.init n (fun k -> float_of_int (k * 3)) in
          if backend = Store.Distributed then begin
            let idx = Array.make (Array.length extents) 0 in
            let raw = Buf.create n in
            let floor =
              minor_words_of_steps n (fun k ->
                  Buf.set raw k (Buf.get raw k +. 1.0))
            in
            let words =
              minor_words_of_steps n (fun k ->
                  set_index extents idx k;
                  Store.copy_set c idx (Store.copy_get c idx +. 1.0))
            in
            Alcotest.(check bool)
              (Fmt.str "%s: 10 000 get+set allocate %.0f words, raw buffer %.0f"
                 name words floor)
              true
              (words <= floor +. 100.0);
            for i = 0 to 9_999 do
              let k = i mod n in
              expected.(k) <- expected.(k) +. 1.0
            done;
            let ep = Store.endpoint_of_copy c in
            for k = 0 to n - 1 do
              set_index extents idx k;
              List.iter
                (fun coords ->
                  let rank = Procs.linearize layout.Layout.procs coords in
                  Alcotest.(check (float 0.0))
                    (Fmt.str "%s: elem %d on rank %d" name k rank)
                    expected.(k) (ep.read ~rank idx))
                (Layout.owners layout idx)
            done
          end;
          let g = Store.to_global c in
          Alcotest.(check int) (name ^ ": size") n (Array.length g);
          Array.iteri
            (fun k v ->
              Alcotest.(check (float 0.0))
                (Fmt.str "%s: elem %d" name k)
                expected.(k) v)
            g)
        [ Store.Canonical; Store.Distributed ])
    (payload_layouts ())

(* --- interpreter expression semantics ------------------------------------------------------- *)

let run_scalars src scalars =
  let prog = { Ast.routines = [ parse src ] } in
  let compiled = I.compile prog in
  I.run compiled ~entry:"s" ~scalars ()

let scalar r name =
  match List.assoc_opt name r.I.final_scalars with
  | Some (I.VInt i) -> float_of_int i
  | Some (I.VFloat f) -> f
  | None -> Alcotest.failf "scalar %s missing" name

let test_expression_semantics () =
  let r =
    run_scalars
      {|
subroutine s()
  x = 17 mod 5
  y = -7 mod 3
  z = 7 / 2
  w = 7.0 / 2
  b1 = 1 > 0 .and. .not. (2 == 3)
  b2 = 0 > 1 .or. 0 /= 0
  m = (1 + 2) * (3 - 1)
end subroutine
|}
      []
  in
  Alcotest.(check (float 0.0)) "mod" 2.0 (scalar r "x");
  Alcotest.(check (float 0.0)) "euclidean mod" 2.0 (scalar r "y");
  Alcotest.(check (float 0.0)) "int division" 3.0 (scalar r "z");
  Alcotest.(check (float 0.0)) "float promotion" 3.5 (scalar r "w");
  Alcotest.(check (float 0.0)) "and/not" 1.0 (scalar r "b1");
  Alcotest.(check (float 0.0)) "or false" 0.0 (scalar r "b2");
  Alcotest.(check (float 0.0)) "parens" 6.0 (scalar r "m")

let test_loop_semantics () =
  let r =
    run_scalars
      {|
subroutine s()
  integer i, j
  acc = 0
  do i = 1, 4
    do j = 0, i - 1
      acc = acc + 1
    enddo
  enddo
  do i = 5, 4
    acc = acc + 100
  enddo
end subroutine
|}
      []
  in
  (* 1+2+3+4 inner iterations; the second loop is zero-trip *)
  Alcotest.(check (float 0.0)) "triangular count" 10.0 (scalar r "acc")

let test_fig2_zero_communication () =
  (* both C remappings are useless: the optimized run moves no C data *)
  let prog = { Ast.routines = [ parse Figures.fig2_src ] } in
  let compiled = I.compile prog in
  let r = I.run compiled ~entry:"fig2" () in
  Alcotest.(check int) "no volume at all" 0
    r.I.machine.Machine.counters.Machine.volume

let test_fig3_only_two_remap () =
  let prog = { Ast.routines = [ parse Figures.fig3_src ] } in
  let compiled = I.compile prog in
  let r = I.run compiled ~entry:"fig3" () in
  Alcotest.(check int) "exactly two copies" 2
    r.I.machine.Machine.counters.Machine.remaps_performed

let suite =
  [
    Alcotest.test_case "lexer operators" `Quick test_lexer_operators;
    Alcotest.test_case "lexer logic/numbers" `Quick test_lexer_logic_and_numbers;
    Alcotest.test_case "lexer directive vs comment" `Quick test_lexer_directive_vs_comment;
    Alcotest.test_case "lexer case folding" `Quick test_lexer_case_folding;
    Alcotest.test_case "lexer bad char" `Quick test_lexer_bad_char;
    Alcotest.test_case "pp expression precedence" `Quick test_pp_expr_precedence;
    Alcotest.test_case "pp align spec" `Quick test_pp_align_spec;
    Alcotest.test_case "pp dist spec" `Quick test_pp_dist_spec;
    Alcotest.test_case "registry layout collapse" `Quick test_registry_layout_collapse;
    Alcotest.test_case "state operations" `Quick test_state_ops;
    Alcotest.test_case "graph helpers + dot" `Quick test_graph_helpers;
    Alcotest.test_case "trace events" `Quick test_trace_events;
    Alcotest.test_case "trace off by default" `Quick test_trace_disabled_by_default;
    Alcotest.test_case "payload fill/to_global" `Quick test_fill_to_global_roundtrip;
    Alcotest.test_case "expression semantics" `Quick test_expression_semantics;
    Alcotest.test_case "loop semantics" `Quick test_loop_semantics;
    Alcotest.test_case "fig2: zero communication" `Quick test_fig2_zero_communication;
    Alcotest.test_case "fig3: exactly two copies" `Quick test_fig3_only_two_remap;
  ]
