(* Whole-pipeline differential fuzzing: random mini-HPF programs checked
   end-to-end across every backend / executor / schedule / lowering
   combination (lib/fuzz).

   Order matters: the corpus of minimized repros from past failures
   replays first, then the generative properties run.  Any failing
   property persists its shrunk counterexample into test/corpus/ as a
   replayable .hpf file (via Qcheck_env's on_fail hook), so the next run
   regression-tests it before fuzzing further.

   The last test enforces the coverage floor: at least HPFC_FUZZ_FLOOR
   (default 300) generated programs must actually go through the full
   18-run differential matrix per `dune runtest` — rejections don't
   count — topping up beyond the property counts when needed. *)

module F = Hpfc_fuzz
module FG = F.Gen
module O = F.Oracle

(* A budget that is not a non-negative integer is a typo, not a request
   for the default: it is diagnosed and the run stops with exit code 2,
   as Qcheck_env does for QCHECK_SEED.  A blank value counts as unset. *)
let budget_of_string var v =
  match int_of_string_opt (String.trim v) with
  | Some n when n >= 0 -> Ok n
  | Some _ | None ->
    Error (Printf.sprintf "%s must be a non-negative integer, got %S" var v)

let getenv_budget var default =
  match Sys.getenv_opt var with
  | Some v when String.trim v <> "" -> (
    match budget_of_string var v with
    | Ok n -> n
    | Error msg ->
      Printf.eprintf "fuzz: %s\n%!" msg;
      exit 2)
  | Some _ | None -> default

let matrix_count = getenv_budget "HPFC_FUZZ_COUNT" 240
let floor_count = getenv_budget "HPFC_FUZZ_FLOOR" 300
let t_start = Unix.gettimeofday ()

(* programs that actually went through the full matrix (corpus replays,
   the matrix property, and the floor top-up all count) *)
let matrix_executed = ref 0

(* the most recent failing candidate of the running property — by the
   time QCheck2 reports, the last one written is the minimal shrink *)
let last_failure : string option ref = ref None

let record_failure (c : FG.case) = last_failure := Some (FG.print_case c)

let save_last_failure () =
  match !last_failure with
  | None -> ()
  | Some src -> (
    match F.Corpus.save src with
    | Some path -> Printf.eprintf "fuzz: repro saved to %s\n%!" path
    | None -> Printf.eprintf "fuzz: no writable corpus directory for repro\n%!")

let to_alcotest t = Qcheck_env.to_alcotest ~on_fail:save_last_failure t

(* --- corpus replay ------------------------------------------------------- *)

let entry_of (p : Hpfc_lang.Ast.program) =
  match p.Hpfc_lang.Ast.routines with
  | r :: _ -> r.Hpfc_lang.Ast.r_name
  | [] -> Alcotest.fail "corpus file with no routines"

let test_corpus_replay () =
  let files = F.Corpus.replay_files () in
  List.iter
    (fun path ->
      let src = F.Corpus.read_file path in
      let program = Hpfc_parser.Parser.parse_program src in
      let case = { FG.program; entry = entry_of program } in
      (match O.check_case case with
      | O.Pass -> incr matrix_executed
      | O.Reject -> ()
      | O.Fail msg -> Alcotest.failf "%s: %s" path msg);
      List.iter
        (fun pass ->
          match O.check_pass pass case with
          | O.Pass | O.Reject -> ()
          | O.Fail msg -> Alcotest.failf "%s [%s]: %s" path pass msg)
        O.pass_names)
    files;
  Printf.eprintf "fuzz: replayed %d corpus files\n%!" (List.length files)

(* --- generative properties ------------------------------------------------ *)

(* Satellite: the printer emits concrete syntax the parser maps back to
   the identical AST (statement ids included). *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"generated programs round-trip through the parser"
    ~count:300 ~print:FG.print_case FG.gen_case (fun c ->
      let reparsed = Hpfc_parser.Parser.parse_program (FG.print_case c) in
      if reparsed <> c.FG.program then (
        record_failure c;
        QCheck2.Test.fail_report "pretty-printed program re-parses differently")
      else true)

(* Tentpole: the full differential matrix. *)
let prop_matrix =
  QCheck2.Test.make
    ~name:
      "differential matrix: pipelines x backends x executors x lowerings"
    ~count:matrix_count ~print:FG.print_case FG.gen_case (fun c ->
      match O.check_case c with
      | O.Pass ->
        incr matrix_executed;
        true
      | O.Reject -> true
      | O.Fail msg ->
        record_failure c;
        QCheck2.Test.fail_reportf "%s" msg)

(* Satellite: each optimizer pass alone preserves semantics and never
   increases modeled volume or remap count (message count is monotone
   only for the route-preserving passes — see oracle.ml). *)
let prop_pass name =
  QCheck2.Test.make
    ~name:(Printf.sprintf "pass %s: semantics preserved, volume/remaps never increased" name)
    ~count:120 ~print:FG.print_case FG.gen_case (fun c ->
      match O.check_pass name c with
      | O.Pass | O.Reject -> true
      | O.Fail msg ->
        record_failure c;
        QCheck2.Test.fail_reportf "%s" msg)

(* --- coverage floor + throughput summary ------------------------------------ *)

let test_floor () =
  let rand = Qcheck_env.rand () in
  while !matrix_executed < floor_count do
    let c = QCheck2.Gen.generate1 ~rand FG.gen_case in
    match O.check_case c with
    | O.Pass -> incr matrix_executed
    | O.Reject -> ()
    | O.Fail msg ->
      record_failure c;
      save_last_failure ();
      Alcotest.failf "floor top-up diverged: %s" msg
  done;
  let dt = Unix.gettimeofday () -. t_start in
  Printf.eprintf
    "fuzz: %d programs through the full matrix (floor %d), %d pipeline runs, \
     %d front-end rejections, %.1fs (%.1f programs/s)\n%!"
    !matrix_executed floor_count (O.pipeline_runs ()) (O.programs_rejected ())
    dt
    (float_of_int !matrix_executed /. dt);
  Alcotest.(check bool)
    (Printf.sprintf "at least %d programs through the matrix" floor_count)
    true
    (!matrix_executed >= floor_count)

let test_budget_values_strict () =
  let ok v n =
    match budget_of_string "HPFC_FUZZ_COUNT" v with
    | Ok m -> Alcotest.(check int) (Printf.sprintf "%S" v) n m
    | Error msg -> Alcotest.failf "%S rejected: %s" v msg
  in
  ok "300" 300;
  ok " 42 " 42;
  ok "0" 0;
  List.iter
    (fun v ->
      match budget_of_string "HPFC_FUZZ_COUNT" v with
      | Ok n -> Alcotest.failf "%S accepted as %d" v n
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "error for %S names the variable" v)
          true
          (Astring.String.is_infix ~affix:"HPFC_FUZZ_COUNT" msg))
    [ "3OO"; "-1"; "1.5"; "many" ]

let suite =
  [
    Alcotest.test_case "budget values are strict" `Quick
      test_budget_values_strict;
    Alcotest.test_case "corpus replay" `Quick test_corpus_replay;
    to_alcotest prop_roundtrip;
    to_alcotest prop_matrix;
  ]
  @ List.map (fun p -> to_alcotest (prop_pass p)) O.pass_names
  @ [ Alcotest.test_case "coverage floor + summary" `Quick test_floor ]
