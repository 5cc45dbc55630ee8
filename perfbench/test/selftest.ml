(* Self-test of the benchmark's output checks: an op whose copy is
   skipped on purpose, or whose compile is silently downgraded to the
   naive pipeline, must be counted as failed; the same runs without the
   fault count no failure. *)

open Hpfc_perfbench

let mode = Outcome.Untraced { setup_reps = 1 }

let check name cond =
  if not cond then begin
    Printf.eprintf "selftest: %s\n" name;
    exit 1
  end

let () =
  let remap fault =
    Wl_remap.run ~sc:Wl_remap.small ~fault ~workers:1 ~seed:7 ~seconds:0.2 mode
  in
  let clean = remap (fun _ -> false) in
  check "clean remap run counts no failure"
    (clean.Outcome.failed = 0 && clean.Outcome.correct);
  let skipped = remap (fun op -> op = 3) in
  check "a skipped copy is counted as failed"
    (skipped.Outcome.failed >= 1 && not skipped.Outcome.correct);
  let compile fault =
    Wl_compile.run ~sc:Wl_compile.small ~fault ~seed:7 ~seconds:0.2 mode
  in
  let clean = compile (fun _ -> false) in
  check "clean compile run counts no failure"
    (clean.Outcome.failed = 0 && clean.Outcome.correct);
  let naive = compile (fun _ -> true) in
  check "a naive compile passed off as optimized is counted as failed"
    (naive.Outcome.failed >= 1 && not naive.Outcome.correct);
  print_endline "selftest: ok"
