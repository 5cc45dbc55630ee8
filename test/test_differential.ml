(* Differential and metamorphic testing on randomly generated programs.

   A generator builds random (possibly ambiguous) dynamic-mapping programs
   over two arrays; programs the front end rejects are discarded, every
   accepted one is:

   - executed under the naive and the fully optimized pipeline with both
     truth values of the branch scalar: final values must agree and the
     optimized run must not move more data (soundness + profitability of
     Appendix C/D);
   - checked against a path-enumeration oracle for Theorem 1: after
     optimization, copy c reaches vertex v for array A iff some G_R path
     from a vertex leaving c reaches v with only removed (U = N) vertices
     in between. *)

open Hpfc_lang
module B = Build
module I = Hpfc_interp.Interp
module Machine = Hpfc_runtime.Machine
module Graph = Hpfc_remap.Graph
module D = Hpfc_mapping.Dist

(* --- random program generator ------------------------------------------- *)

let dist_pool = [ D.block; D.cyclic; D.cyclic_sized 2; D.cyclic_sized 5 ]

let gen_dist = QCheck2.Gen.oneofl dist_pool

(* Whole-array (elementwise) right-hand sides, for A = ... statements. *)
let gen_rhs arr =
  QCheck2.Gen.oneofl
    [
      B.flt 1.0;
      B.(whole arr + flt 1.0);
      B.(whole "a" + whole "b");
      B.(ref_ arr [ int 3 ] * flt 0.5);
    ]

(* Scalar right-hand sides, for element assignments. *)
let gen_elt_rhs arr =
  QCheck2.Gen.oneofl
    [
      B.flt 1.0;
      B.(ref_ arr [ int 3 ] * flt 0.5);
      B.(ref_ "a" [ int 2 ] + ref_ "b" [ int 5 ]);
    ]

(* 2-D statements over the template-aligned array m(8,8). *)
let gen_2d_stmt =
  QCheck2.Gen.(
    oneofl
      [
        B.full_assign "m" (B.flt 4.0);
        B.full_assign "m" B.(whole "m" * flt 0.5);
        B.assign "m" [ B.int 2; B.int 5 ] (B.flt 9.0);
        B.scalar_assign "p" (B.ref_ "m" [ B.int 1; B.int 3 ]);
        B.realign "m" (B.align_transpose ~target:"t");
        B.realign "m" (B.align_id ~rank:2 ~target:"t");
        B.redistribute "t" (B.dist [ D.block; D.star ]);
        B.redistribute "t" (B.dist [ D.star; D.block ]);
        B.redistribute "t" (B.dist [ D.block; D.block ]);
        B.redistribute "t" (B.dist [ D.cyclic; D.star ]);
      ])

(* One random statement; [depth] bounds nesting. *)
let rec gen_stmt depth =
  QCheck2.Gen.(
    let* arr = oneofl [ "a"; "b" ] in
    let base =
      [
        (4, map (fun rhs -> B.full_assign arr rhs) (gen_rhs arr));
        ( 3,
          map
            (fun (i, rhs) -> B.assign arr [ B.int i ] rhs)
            (pair (int_range 0 15) (gen_elt_rhs arr)) );
        (2, map (fun d -> B.redistribute arr (B.dist [ d ])) gen_dist);
        (1, return (B.scalar_assign "p" (B.ref_ arr [ B.int 1 ])));
        (1, return (B.kill arr));
        (1, return (B.call "stage" [ arr ]));
        (3, gen_2d_stmt);
      ]
    in
    let nested =
      if depth <= 0 then []
      else
        [
          ( 2,
            let* t = gen_block (depth - 1) in
            let* e = gen_block (depth - 1) in
            return (B.if_ B.(var "c" > int 0) t e) );
          ( 1,
            let* body = gen_block (depth - 1) in
            return (B.do_ "i" (B.int 0) (B.int 2) body) );
        ]
    in
    frequency (base @ nested))

and gen_block depth =
  QCheck2.Gen.(list_size (int_range 1 4) (gen_stmt depth))

(* The fixed callee every generated program may call: prescribes a mapping
   unlike most initial ones, so calls usually remap. *)
let stage_src =
  {|
subroutine stage(X)
  real X(16)
  intent(inout) X
!hpf$ processors Q(4)
!hpf$ dynamic X
!hpf$ distribute X(cyclic(3)) onto Q
  interface
    subroutine stage2(Z)
      real Z(16)
      intent(inout) Z
!hpf$ distribute Z(block)
    end subroutine
  end interface
  X(0) = X(0) + 1.0
!hpf$ redistribute X(cyclic)
  X(1) = X(1) + 1.0
  call stage2(X)
end subroutine

subroutine stage2(Z)
  real Z(16)
  intent(inout) Z
!hpf$ processors R2(4)
!hpf$ distribute Z(block) onto R2
  Z = Z * 1.5
end subroutine
|}

(* stage itself remaps its dummy and calls a second stage: every fuzzed
   call exercises nested frames, internal remapping of a dummy, and the
   exit restore to the dummy mapping *)
let stage_routines =
  (Hpfc_parser.Parser.parse_program stage_src).Ast.routines

let stage_routine = List.hd stage_routines

let stage_iface =
  B.iface "stage" [ "x" ]
    ~arrays:[ B.array ~intent:Ast.Inout "x" [ 16 ] ]
    ~distributes:[ ("x", B.dist [ D.cyclic_sized 3 ]) ]

let gen_routine =
  QCheck2.Gen.(
    let* body = gen_block 2 in
    let* da = gen_dist in
    let* db = gen_dist in
    return
      (* a and b are intent(inout) arguments: their final values are
         exported to the caller, so the differential oracle observes them;
         locals would be dead at exit and legitimately divergent. *)
      (B.routine "rand"
         ~scalars:[ B.scalar_int "c"; B.scalar_int "i"; B.scalar_real "p" ]
         ~args:[ "a"; "b"; "m"; "c" ]
         ~arrays:
           [
             B.array ~dynamic:true ~intent:Ast.Inout "a" [ 16 ];
             B.array ~dynamic:true ~intent:Ast.Inout "b" [ 16 ];
             B.array ~dynamic:true ~intent:Ast.Inout "m" [ 8; 8 ];
           ]
         ~processors:[ ("q", [ 4 ]) ]
         ~templates:[ ("t", [ 8; 8 ]) ]
         ~aligns:[ ("m", B.align_id ~rank:2 ~target:"t") ]
         ~distributes:
           [
             ("a", B.dist [ da ] ~onto:"q");
             ("b", B.dist [ db ] ~onto:"q");
             ("t", B.dist [ D.block; D.star ] ~onto:"q");
           ]
         ~interfaces:[ stage_iface ]
         (* deterministic prologue so the arrays hold defined values *)
         (B.full_assign "a" (B.flt 2.0)
         :: B.full_assign "b" (B.flt 3.0)
         :: B.full_assign "m" (B.flt 5.0)
         :: body)))

type outcome =
  | Rejected  (* ambiguity or other front-end rejection: fine *)
  | Compiled of Ast.routine

let try_compile r =
  match Hpfc_remap.Construct.build r with
  | (_ : Graph.t) -> Compiled r
  | exception Hpfc_base.Error.Hpf_error ((Ambiguous_mapping | Invalid_directive), _)
    ->
    Rejected

(* --- differential execution ----------------------------------------------- *)

exception Unsupported_multi_leaving

let exec ?backend pipeline r c =
  match I.compile ~pipeline { Ast.routines = r :: stage_routines } with
  | prog -> I.run ?backend prog ~entry:"rand" ~scalars:[ ("c", I.VInt c) ] ()
  | exception Hpfc_base.Error.Hpf_error (Multiple_leaving_mappings, _) ->
    (* ambiguous REALIGN targets are a documented compile-time refusal *)
    raise Unsupported_multi_leaving

(* Compare final values on program-defined elements only (undefined data —
   killed or never written — legitimately differs between compilations). *)
let values_agree (r1 : I.result) (r2 : I.result) =
  List.for_all
    (fun (n, a1) ->
      match
        (List.assoc_opt n r2.I.final_arrays, List.assoc_opt n r1.I.final_defined)
      with
      | Some a2, Some mask ->
        Array.for_all (fun x -> x)
          (Array.mapi (fun i def -> (not def) || a1.(i) = a2.(i)) mask)
      | Some a2, None -> a1 = a2
      | None, _ -> true)
    r1.I.final_arrays
  && List.assoc_opt "p" r1.I.final_scalars = List.assoc_opt "p" r2.I.final_scalars

let print_routine r = Hpfc_lang.Pp_ast.routine_to_string r

let prop_differential =
  QCheck2.Test.make ~name:"random programs: naive == optimized, cheaper"
    ~print:print_routine ~count:400 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r -> (
        try
          List.for_all
            (fun c ->
              let naive = exec I.naive_pipeline r c in
              let opt = exec I.full_pipeline r c in
              values_agree naive opt
              && opt.I.machine.Machine.counters.Machine.volume
                 <= naive.I.machine.Machine.counters.Machine.volume)
            [ 0; 1 ]
        with Unsupported_multi_leaving -> true))

(* The optimized pipeline must never fault at run time (a fault would mean
   the compiler mismanaged statuses or references). *)
let prop_no_runtime_faults =
  QCheck2.Test.make ~name:"random programs: no runtime faults"
    ~print:print_routine ~count:400 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r ->
        List.for_all
          (fun c ->
            match exec I.full_pipeline r c with
            | (_ : I.result) -> true
            | exception Unsupported_multi_leaving -> true
            | exception Hpfc_base.Error.Hpf_error (Runtime_fault, msg) ->
              QCheck2.Test.fail_reportf "runtime fault: %s" msg)
          [ 0; 1 ])

(* --- Theorem 1 ------------------------------------------------------------- *)

(* Path oracle: copy [c] reaches [vid] for [array] iff some vertex leaving
   [c] has a G_R path to [vid] whose intermediate vertices all had their
   remapping of [array] removed. *)
let oracle_reaching (g : Graph.t) array vid =
  let result = ref [] in
  List.iter
    (fun v' ->
      match Graph.label_opt g v' array with
      | Some l when l.Graph.leaving <> [] ->
        (* follow edges from the leaving vertex; intermediate vertices must
           be transparent: remapping removed (leaving = []) or the whole
           label dropped as a static no-op *)
        let rec dfs w seen =
          List.iter
            (fun next ->
              if next = vid then
                result :=
                  Hpfc_base.Util.union_stable ( = ) !result l.Graph.leaving
              else if not (List.mem next seen) then
                match Graph.label_opt g next array with
                | Some ln when ln.Graph.leaving = [] -> dfs next (next :: seen)
                | None -> dfs next (next :: seen)
                | Some _ -> ())
            (Graph.succs_for g w array)
        in
        dfs v' [ v' ]
      | _ -> ())
    (Graph.vertex_ids g);
  List.sort compare !result

let prop_theorem1 =
  QCheck2.Test.make ~name:"Theorem 1: recomputed reaching = path-realizable"
    ~print:print_routine ~count:400 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r ->
        let g = Hpfc_remap.Construct.build r in
        ignore (Hpfc_opt.Remove_useless.run g : Hpfc_opt.Remove_useless.stats);
        List.for_all
          (fun vid ->
            List.for_all
              (fun ((a, l) : string * Graph.label) ->
                Hpfc_opt.Remove_useless.has_multiple_leaving g a
                || List.sort compare l.Graph.reaching = oracle_reaching g a vid)
              (Graph.info g vid).Graph.labels)
          (Graph.vertex_ids g))

(* Printing then reparsing a generated routine is the identity: the
   concrete syntax round-trips (statement ids are reassigned in the same
   source order). *)
let prop_print_parse_roundtrip =
  QCheck2.Test.make ~name:"random programs: print/parse round-trip"
    ~print:print_routine ~count:400 gen_routine (fun r ->
      let printed = Hpfc_lang.Pp_ast.routine_to_string r in
      Hpfc_parser.Parser.parse_routine_string printed = r)

(* The distributed backend (per-processor buffers + closed-form local
   addressing) is observationally identical to the canonical one. *)
let prop_backends_agree =
  QCheck2.Test.make ~name:"random programs: canonical == distributed"
    ~print:print_routine ~count:200 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r -> (
        try
          List.for_all
            (fun c ->
              let canonical =
                exec ~backend:Hpfc_runtime.Store.Canonical I.full_pipeline r c
              in
              let distributed =
                exec ~backend:Hpfc_runtime.Store.Distributed I.full_pipeline r c
              in
              List.for_all
                (fun (n, a1) ->
                  match List.assoc_opt n distributed.I.final_arrays with
                  | Some a2 -> a1 = a2
                  | None -> false)
                canonical.I.final_arrays)
            [ 0; 1 ]
        with Unsupported_multi_leaving -> true))

let suite =
  [
    Qcheck_env.to_alcotest prop_print_parse_roundtrip;
    Qcheck_env.to_alcotest prop_backends_agree;
    Qcheck_env.to_alcotest prop_differential;
    Qcheck_env.to_alcotest prop_no_runtime_faults;
    Qcheck_env.to_alcotest prop_theorem1;
  ]

(* Running the removal pass twice changes nothing: the fixpoint is a
   fixpoint (idempotence of Appendix C + no-op dropping). *)
let snapshot g =
  List.map
    (fun vid ->
      ( vid,
        List.map
          (fun ((a, l) : string * Graph.label) ->
            (a, List.sort compare l.Graph.reaching, List.sort compare l.Graph.leaving))
          (Graph.info g vid).Graph.labels ))
    (Graph.vertex_ids g)

let prop_removal_idempotent =
  QCheck2.Test.make ~name:"useless-remapping removal is idempotent"
    ~print:print_routine ~count:300 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r ->
        let g = Hpfc_remap.Construct.build r in
        ignore (Hpfc_opt.Remove_useless.run g : Hpfc_opt.Remove_useless.stats);
        let first = snapshot g in
        let stats = Hpfc_opt.Remove_useless.run g in
        stats.Hpfc_opt.Remove_useless.removed = 0
        && stats.Hpfc_opt.Remove_useless.noops = 0
        && snapshot g = first)

(* The may-live sets always contain the leaving copies and only reference
   registered versions. *)
let prop_live_sets_wellformed =
  QCheck2.Test.make ~name:"may-live sets are well-formed" ~print:print_routine
    ~count:300 gen_routine (fun r ->
      match try_compile r with
      | Rejected -> true
      | Compiled r ->
        let g = Hpfc_remap.Construct.build r in
        let live = Hpfc_opt.Live_copies.compute g in
        List.for_all
          (fun vid ->
            List.for_all
              (fun ((a, l) : string * Graph.label) ->
                let m = Hpfc_opt.Live_copies.get live vid a in
                List.for_all (fun v -> List.mem v m) l.Graph.leaving
                && List.for_all
                     (fun v ->
                       v >= 0
                       && v < Hpfc_remap.Version.count g.Graph.registry a)
                     m)
              (Graph.info g vid).Graph.labels)
          (Graph.vertex_ids g))

(* --- counter isolation ------------------------------------------------------ *)

module P = Hpfc_driver.Pipeline

(* The soundness and profitability claims above compare counters across
   the naive and optimized legs of compare_pipelines; they are only valid
   if no counter state leaks between legs.  Each leg runs on a fresh
   machine, so repeating the comparison is bit-identical, and a single
   machine reused across both legs with Machine.reset in between must
   reproduce the fresh-machine counters exactly. *)
let test_counters_isolated () =
  let src = Hpfc_kernels.Apps.adi_src ~n:16 () in
  let scalars = [ ("t", I.VInt 2) ] in
  let c1 = P.compare_pipelines ~scalars src in
  let c2 = P.compare_pipelines ~scalars src in
  (* repeatability is checked on the modeled counters only *)
  let scrub (r : I.result) = Machine.scrub ~varying:[] r.machine.counters in
  let eq a b = scrub a = scrub b in
  Alcotest.(check bool) "naive leg repeatable" true (eq c1.P.naive c2.P.naive);
  Alcotest.(check bool) "optimized leg repeatable" true
    (eq c1.P.optimized c2.P.optimized);
  let m = Machine.create ~nprocs:4 () in
  let r1 = P.run_source ~pipeline:I.naive_pipeline ~scalars ~machine:m src in
  Alcotest.(check bool) "reused machine, naive = fresh naive" true
    (eq r1 c1.P.naive);
  Machine.reset m;
  let r2 = P.run_source ~pipeline:I.full_pipeline ~scalars ~machine:m src in
  Alcotest.(check bool) "after reset, optimized = fresh optimized" true
    (eq r2 c1.P.optimized)

let suite =
  suite
  @ [
      Qcheck_env.to_alcotest prop_removal_idempotent;
      Qcheck_env.to_alcotest prop_live_sets_wellformed;
      Alcotest.test_case "counters isolated across legs" `Quick
        test_counters_isolated;
    ]
