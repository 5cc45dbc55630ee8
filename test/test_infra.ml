(* Infrastructure tests: utilities, the generic dataflow solver, CFG
   construction (zero-trip edges, call bracketing, loop membership),
   per-vertex effects, and environment resolution errors. *)

module Util = Hpfc_base.Util
module Solver = Hpfc_dataflow.Solver
module Cfg = Hpfc_cfg.Cfg
module U = Hpfc_effects.Use_info
module Effects = Hpfc_effects.Effects
open Hpfc_lang

let parse = Hpfc_parser.Parser.parse_routine_string

(* --- util ---------------------------------------------------------------- *)

let test_arith () =
  Alcotest.(check int) "gcd" 6 (Util.gcd 54 24);
  Alcotest.(check int) "gcd 0" 7 (Util.gcd 0 7);
  Alcotest.(check int) "lcm" 36 (Util.lcm 12 18);
  Alcotest.(check int) "cdiv" 4 (Util.cdiv 13 4);
  Alcotest.(check int) "cdiv exact" 3 (Util.cdiv 12 4);
  Alcotest.(check int) "fdiv neg" (-4) (Util.fdiv (-13) 4);
  Alcotest.(check int) "emod neg" 3 (Util.emod (-13) 4)

let test_list_sets () =
  Alcotest.(check (list int)) "dedup" [ 1; 2; 3 ] (Util.dedup_stable ( = ) [ 1; 2; 1; 3; 2 ]);
  Alcotest.(check bool) "set equal" true (Util.list_equal_as_sets ( = ) [ 1; 2 ] [ 2; 1 ]);
  Alcotest.(check bool) "set unequal" false (Util.list_equal_as_sets ( = ) [ 1 ] [ 1; 2 ]);
  Alcotest.(check (list int)) "union stable" [ 3; 1; 2 ] (Util.union_stable ( = ) [ 3; 1 ] [ 1; 2 ]);
  Alcotest.(check (list int)) "diff" [ 3 ] (Util.diff ( = ) [ 3; 1 ] [ 1; 2 ])

(* --- dataflow solver ------------------------------------------------------ *)

(* Reaching definitions on a diamond: 0 -> {1,2} -> 3, each vertex defines
   its own id. *)
let test_solver_forward_diamond () =
  let succs = function 0 -> [ 1; 2 ] | 1 -> [ 3 ] | 2 -> [ 3 ] | _ -> [] in
  let preds = function 3 -> [ 1; 2 ] | 1 -> [ 0 ] | 2 -> [ 0 ] | _ -> [] in
  let graph = { Solver.nb_vertices = 4; succs; preds } in
  let lattice = Solver.list_set_lattice ( = ) in
  let s =
    Solver.solve ~direction:Solver.Forward ~graph ~lattice
      ~init:(fun _ -> [])
      ~transfer:(fun vid incoming -> Util.union_stable ( = ) incoming [ vid ])
  in
  Alcotest.(check (list int)) "in(3)" [ 0; 1; 2 ]
    (List.sort compare s.Solver.value_in.(3));
  Alcotest.(check (list int)) "out(3)" [ 0; 1; 2; 3 ]
    (List.sort compare s.Solver.value_out.(3))

(* Backward liveness on a loop: 0 -> 1 -> 2 -> 1, 1 -> 3. *)
let test_solver_backward_loop () =
  let succs = function 0 -> [ 1 ] | 1 -> [ 2; 3 ] | 2 -> [ 1 ] | _ -> [] in
  let preds = function 1 -> [ 0; 2 ] | 2 -> [ 1 ] | 3 -> [ 1 ] | _ -> [] in
  let graph = { Solver.nb_vertices = 4; succs; preds } in
  let lattice = Solver.list_set_lattice ( = ) in
  let s =
    Solver.solve ~direction:Solver.Backward ~graph ~lattice
      ~init:(fun _ -> [])
      ~transfer:(fun vid after ->
        if vid = 3 then Util.union_stable ( = ) after [ 99 ] else after)
  in
  (* the "use" at 3 is live throughout the loop *)
  Alcotest.(check (list int)) "live at 0" [ 99 ] s.Solver.value_in.(0);
  Alcotest.(check (list int)) "live at 2" [ 99 ] s.Solver.value_in.(2)

(* --- CFG ------------------------------------------------------------------- *)

let cfg_of src = Cfg.of_routine (parse src)

let kinds cfg =
  Array.to_list cfg.Cfg.vertices |> List.map (fun v -> v.Cfg.kind)

let test_cfg_linear () =
  let cfg = cfg_of "subroutine s()\n  real A(8)\n  A = 1.0\n  A(0) = 2.0\nend subroutine\n" in
  (* v_c, v_0, two stmts, v_e *)
  Alcotest.(check int) "vertices" 5 (Cfg.nb_vertices cfg);
  Alcotest.(check bool) "v_c -> v_0" true
    (List.mem cfg.Cfg.entry (Cfg.succs cfg cfg.Cfg.call_context))

let test_cfg_if_join () =
  let cfg =
    cfg_of
      "subroutine s(c)\n  integer c\n  real A(8)\n  if (c > 0) then\n    A = \
       1.0\n  else\n    A = 2.0\n  endif\n  A(0) = 3.0\nend subroutine\n"
  in
  (* the join statement has both branch statements as predecessors *)
  let join =
    Array.to_list cfg.Cfg.vertices
    |> List.find (fun v ->
         match v.Cfg.kind with
         | Cfg.V_stmt { skind = Ast.Assign _; _ } -> true
         | _ -> false)
  in
  Alcotest.(check int) "two predecessors" 2 (List.length join.Cfg.preds)

let test_cfg_zero_trip () =
  let cfg =
    cfg_of
      "subroutine s(t)\n  integer t, i\n  real A(8)\n  do i = 0, t\n    A(0) \
       = 1.0\n  enddo\n  A(1) = 2.0\nend subroutine\n"
  in
  let head =
    Array.to_list cfg.Cfg.vertices
    |> List.find (fun v ->
         match v.Cfg.kind with Cfg.V_loop_head _ -> true | _ -> false)
  in
  (* the head reaches both the body and the loop continuation *)
  Alcotest.(check int) "head out-degree" 2 (List.length head.Cfg.succs);
  (* back edge: body statement -> head *)
  Alcotest.(check bool) "back edge" true
    (List.exists (fun p -> p <> cfg.Cfg.entry && p <> cfg.Cfg.call_context) head.Cfg.preds);
  Alcotest.(check int) "one loop" 1 (Array.length cfg.Cfg.loops)

let test_cfg_call_bracketing () =
  let cfg =
    cfg_of
      "subroutine s()\n  real A(8)\n!hpf$ distribute A(block)\n  interface\n\
      \    subroutine f(X)\n      real X(8)\n!hpf$ distribute X(cyclic)\n\
      \    end subroutine\n  end interface\n  call f(A)\nend subroutine\n"
  in
  let ks = kinds cfg in
  let has p = List.exists p ks in
  Alcotest.(check bool) "before vertex" true
    (has (function Cfg.V_call_before _ -> true | _ -> false));
  Alcotest.(check bool) "after vertex" true
    (has (function Cfg.V_call_after _ -> true | _ -> false))

let test_cfg_nested_loop_membership () =
  let cfg =
    cfg_of
      "subroutine s(t)\n  integer t, i, j\n  real A(8)\n  do i = 0, t\n    do \
       j = 0, t\n      A(0) = 1.0\n    enddo\n  enddo\nend subroutine\n"
  in
  let stmt =
    Array.to_list cfg.Cfg.vertices
    |> List.find (fun v ->
         match v.Cfg.kind with
         | Cfg.V_stmt { skind = Ast.Assign _; _ } -> true
         | _ -> false)
  in
  Alcotest.(check int) "inside two loops" 2 (List.length stmt.Cfg.in_loops)

(* --- effects ------------------------------------------------------------------ *)

let env_of src = Env.of_routine (parse src)

let test_effects_statements () =
  let src =
    "subroutine s()\n  real A(8), B(8)\n!hpf$ distribute A(block)\n!hpf$ \
     distribute B(block)\n  A = 1.0\nend subroutine\n"
  in
  let env = env_of src in
  let stmt k = Cfg.V_stmt { Ast.sid = 99; skind = k } in
  let check what k expected_a expected_b =
    let m = Effects.of_vertex env (stmt k) in
    Alcotest.(check string) (what ^ " A") (U.to_string expected_a)
      (U.to_string (Effects.find m "a"));
    Alcotest.(check string) (what ^ " B") (U.to_string expected_b)
      (U.to_string (Effects.find m "b"))
  in
  check "full define" (Ast.Full_assign { array = "a"; rhs = Ast.Float 1.0 }) U.D U.N;
  check "full define reading other"
    (Ast.Full_assign { array = "a"; rhs = Ast.Ref ("b", []) })
    U.D U.R;
  check "self-reading full assign"
    (Ast.Full_assign
       { array = "a"; rhs = Ast.Binop (Ast.Add, Ast.Ref ("a", []), Ast.Float 1.0) })
    U.W U.N;
  check "element assign"
    (Ast.Assign { array = "a"; indices = [ Ast.Int 0 ]; rhs = Ast.Float 1.0 })
    U.W U.N;
  check "kill" (Ast.Kill "a") U.D U.N;
  check "scalar read"
    (Ast.Scalar_assign ("p", Ast.Ref ("b", [ Ast.Int 1 ])))
    U.N U.R

let test_use_info_lattice () =
  Alcotest.(check string) "D join R = W" "W" (U.to_string (U.join U.D U.R));
  Alcotest.(check string) "R join D = W" "W" (U.to_string (U.join U.R U.D));
  Alcotest.(check string) "N join D = D" "D" (U.to_string (U.join U.N U.D));
  Alcotest.(check string) "R join W = W" "W" (U.to_string (U.join U.R U.W));
  Alcotest.(check bool) "N preserves" true (U.preserves_copies U.N);
  Alcotest.(check bool) "R preserves" true (U.preserves_copies U.R);
  Alcotest.(check bool) "D kills" false (U.preserves_copies U.D);
  Alcotest.(check bool) "D needs no data" false (U.needs_data U.D);
  Alcotest.(check bool) "R needs data" true (U.needs_data U.R)

(* --- env negatives -------------------------------------------------------------- *)

let expect_error kind src =
  match Hpfc_remap.Construct.build (parse src) with
  | exception Hpfc_base.Error.Hpf_error (k, _) when k = kind -> ()
  | exception e -> Alcotest.failf "wrong error: %s" (Hpfc_base.Error.to_string e)
  | _ -> Alcotest.fail "expected an error"

let test_env_unknown_align_target () =
  expect_error Hpfc_base.Error.Unknown_entity
    "subroutine s()\n  real A(8)\n!hpf$ align A with NOSUCH\n!hpf$ distribute \
     A(block)\n  A = 1.0\nend subroutine\n"

let test_env_rank_mismatch () =
  (* the template side must have exactly the template's rank; note that an
     unused array dummy (collapsed dimension) is legal *)
  expect_error Hpfc_base.Error.Rank_mismatch
    "subroutine s()\n  real A(8, 8)\n!hpf$ template T(8)\n!hpf$ align A(i, \
     j) with T(i, j)\n!hpf$ distribute T(block)\n  A = 1.0\nend subroutine\n"

let test_env_undistributed_template () =
  expect_error Hpfc_base.Error.Invalid_directive
    "subroutine s()\n  real A(8)\n!hpf$ template T(8)\n!hpf$ align A with \
     T\n  A = 1.0\nend subroutine\n"

let test_env_call_arity () =
  expect_error Hpfc_base.Error.Rank_mismatch
    "subroutine s()\n  real A(8), B(8)\n!hpf$ distribute A(block)\n!hpf$ \
     distribute B(block)\n  interface\n    subroutine f(X)\n      real \
     X(8)\n!hpf$ distribute X(cyclic)\n    end subroutine\n  end interface\n\
    \  call f(A, B)\nend subroutine\n"

let test_env_call_shape_mismatch () =
  expect_error Hpfc_base.Error.Rank_mismatch
    "subroutine s()\n  real A(16)\n!hpf$ distribute A(block)\n  interface\n\
    \    subroutine f(X)\n      real X(8)\n!hpf$ distribute X(cyclic)\n    \
     end subroutine\n  end interface\n  call f(A)\nend subroutine\n"

let suite =
  [
    Alcotest.test_case "util arithmetic" `Quick test_arith;
    Alcotest.test_case "util list sets" `Quick test_list_sets;
    Alcotest.test_case "solver forward diamond" `Quick test_solver_forward_diamond;
    Alcotest.test_case "solver backward loop" `Quick test_solver_backward_loop;
    Alcotest.test_case "cfg linear" `Quick test_cfg_linear;
    Alcotest.test_case "cfg if join" `Quick test_cfg_if_join;
    Alcotest.test_case "cfg zero-trip loop" `Quick test_cfg_zero_trip;
    Alcotest.test_case "cfg call bracketing" `Quick test_cfg_call_bracketing;
    Alcotest.test_case "cfg nested loops" `Quick test_cfg_nested_loop_membership;
    Alcotest.test_case "effects per statement" `Quick test_effects_statements;
    Alcotest.test_case "use-info lattice" `Quick test_use_info_lattice;
    Alcotest.test_case "env: unknown align target" `Quick test_env_unknown_align_target;
    Alcotest.test_case "env: rank mismatch" `Quick test_env_rank_mismatch;
    Alcotest.test_case "env: undistributed template" `Quick test_env_undistributed_template;
    Alcotest.test_case "env: call arity" `Quick test_env_call_arity;
    Alcotest.test_case "env: argument shape" `Quick test_env_call_shape_mismatch;
  ]

(* --- CLI schedule parsing --------------------------------------------------- *)

(* --sched=<unknown> must be a usage error naming the valid values, not
   silently accepted; the CLI converter is a thin wrapper over
   [Exec.sched_of_string], so the contract is tested here. *)
let test_sched_of_string () =
  let module E = Hpfc_runtime.Exec in
  let ok s spec =
    match E.sched_of_string s with
    | Ok got ->
      Alcotest.(check string) ("parse " ^ s) (E.sched_name spec)
        (E.sched_name got)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "burst" E.Burst;
  ok "stepped" E.Stepped;
  ok "STEPPED" E.Stepped;
  (* the removed async schedule is rejected like any unknown value *)
  List.iter
    (fun bad ->
      match E.sched_of_string bad with
      | Ok _ -> Alcotest.failf "%s schedule accepted" bad
      | Error msg ->
        List.iter
          (fun valid ->
            Alcotest.(check bool)
              (Printf.sprintf "error names %S" valid)
              true
              (Astring.String.is_infix ~affix:valid msg))
          [ bad; "burst | stepped" ])
    [ "bogus"; "async" ]

(* --lower=<unknown> must be a usage error naming the valid values; the
   CLI converter wraps [Exec.lower_of_string], mirroring --sched. *)
let test_lower_of_string () =
  let module E = Hpfc_runtime.Exec in
  let ok s spec =
    match E.lower_of_string s with
    | Ok got ->
      Alcotest.(check string) ("parse " ^ s) (E.lower_name spec)
        (E.lower_name got)
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "p2p" E.P2p;
  ok "collective" E.Collective;
  ok "coll" E.Collective;
  ok "auto" E.Auto;
  ok "AUTO" E.Auto;
  match E.lower_of_string "bogus" with
  | Ok _ -> Alcotest.fail "bogus lowering accepted"
  | Error msg ->
    List.iter
      (fun valid ->
        Alcotest.(check bool)
          (Printf.sprintf "error names %S" valid)
          true
          (Astring.String.is_infix ~affix:valid msg))
      [ "bogus"; "p2p"; "collective"; "auto" ]

(* --plan-cache=<not a positive int> must be a usage error too; same
   contract shape as --sched. *)
let test_plan_cache_of_string () =
  let module P = Hpfc_driver.Pipeline in
  let ok s n =
    match P.plan_cache_of_string s with
    | Ok got -> Alcotest.(check int) ("parse " ^ s) n got
    | Error msg -> Alcotest.failf "%s rejected: %s" s msg
  in
  ok "1" 1;
  ok "512" 512;
  ok " 64 " 64 (* whitespace tolerated *);
  List.iter
    (fun s ->
      match P.plan_cache_of_string s with
      | Ok n -> Alcotest.failf "%S accepted as %d" s n
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S quotes the input" s)
          true
          (Astring.String.is_infix ~affix:s msg))
    [ "0"; "-3"; "many"; "" ]

(* intent(in) dummies are read-only. *)
let test_intent_in_write_rejected () =
  expect_error Hpfc_base.Error.Invalid_directive
    "subroutine s(X)\n  real X(8)\n  intent(in) X\n!hpf$ distribute \
     X(block)\n  X(0) = 1.0\nend subroutine\n"

(* Every figure source compiles through the full pipeline (construction +
   optimization + code generation), except the deliberately rejected
   ones. *)
let test_all_figures_compile () =
  List.iter
    (fun (id, src) ->
      if id <> "fig5" then begin
        let r = parse src in
        match Hpfc_driver.Pipeline.analyze r with
        | _, report ->
          Alcotest.(check bool) (id ^ " has a graph") true
            (report.Hpfc_driver.Pipeline.gr_vertices > 0)
        | exception Hpfc_base.Error.Hpf_error (Multiple_leaving_mappings, _)
          when id = "fig21" ->
          ()
      end)
    Hpfc_kernels.Figures.all

let suite =
  suite
  @ [
      Alcotest.test_case "intent(in) write rejected" `Quick test_intent_in_write_rejected;
      Alcotest.test_case "all figures compile" `Quick test_all_figures_compile;
      Alcotest.test_case "--sched value parsing" `Quick test_sched_of_string;
      Alcotest.test_case "--lower value parsing" `Quick test_lower_of_string;
      Alcotest.test_case "--plan-cache value parsing" `Quick
        test_plan_cache_of_string;
    ]
