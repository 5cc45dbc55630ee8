(* The benchmark executable.

     main.exe --workload compile|remap|serve --seed N --seconds S --trace 0|1
              [--out DIR]

   Prints one info line (run facts) and, last, the result line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones; with --trace 1
   the per-layer ones, and the spans are written to
   DIR/<workload>-<seed>-spans.jsonl when --out is given.

   Refuses to run (exit 2) when an HPFC_FORCE_* or HPFC_PLAN_CACHE
   variable is set — each silently changes the measured program — or
   when the workload would keep more domains alive than the runtime
   recommends. *)

open Hpfc_perfbench

let setup_reps = 8

let usage () =
  prerr_endline
    "usage: main.exe --workload compile|remap|serve --seed N --seconds S \
     --trace 0|1 [--out DIR]";
  exit 2

let refuse fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let () =
  let workload = ref ""
  and seed = ref (-1)
  and seconds = ref 0.0
  and trace = ref (-1)
  and out = ref None in
  let rec parse = function
    | "--workload" :: v :: rest ->
      workload := v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := int_of_string v;
      parse rest
    | "--seconds" :: v :: rest ->
      seconds := float_of_string v;
      parse rest
    | "--trace" :: v :: rest ->
      trace := int_of_string v;
      parse rest
    | "--out" :: v :: rest ->
      out := Some v;
      parse rest
    | [] -> ()
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then
    usage ();
  Array.iter
    (fun kv ->
      let k =
        match String.index_opt kv '=' with
        | Some i -> String.sub kv 0 i
        | None -> kv
      in
      if String.starts_with ~prefix:"HPFC_FORCE_" k || k = "HPFC_PLAN_CACHE"
      then refuse "%s is set; it changes the measured program — unset it" k)
    (Unix.environment ());
  let nproc = Domain.recommended_domain_count () in
  (* live domains: the main domain plus the workload's workers *)
  let workers = max 1 (nproc - 1) in
  let domains = match !workload with "compile" -> 1 | _ -> 1 + workers in
  if domains > nproc then
    refuse "workload %s needs %d live domains, the runtime recommends %d"
      !workload domains nproc;
  let mode =
    if !trace = 1 then Outcome.Traced else Outcome.Untraced { setup_reps }
  in
  let trace_out =
    Option.map
      (fun dir ->
        (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
        Filename.concat dir
          (Printf.sprintf "%s-%d-spans.jsonl" !workload !seed))
      (if !trace = 1 then !out else None)
  in
  let seed = !seed and seconds = !seconds in
  let steal0, total0 = Bstat.cpu_steal () in
  let o =
    match !workload with
    | "compile" -> Wl_compile.run ?trace_out ~seed ~seconds mode
    | "remap" -> Wl_remap.run ?trace_out ~workers ~seed ~seconds mode
    | "serve" -> Wl_serve.run ?trace_out ~seed ~seconds mode
    | _ -> usage ()
  in
  let steal1, total1 = Bstat.cpu_steal () in
  let info =
    [
      ("workload", Bstat.json_str !workload);
      ("seed", string_of_int seed);
      ("nproc", string_of_int nproc);
      ("live_domains", string_of_int domains);
      ("ocaml_version", Bstat.json_str Sys.ocaml_version);
      ("seconds", Bstat.json_num seconds);
      ("trace", string_of_int !trace);
      (* the share of CPU time the hypervisor took during the run: every
         wall-clock metric of a run with a high share reads slow *)
      ( "cpu_steal_share",
        Bstat.json_num
          (Bstat.ratio
             (float_of_int (steal1 - steal0))
             (float_of_int (total1 - total0))) );
    ]
    @ o.Outcome.info
  in
  let obj kvs =
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Bstat.json_str k ^ ": " ^ v) kvs)
    ^ "}"
  in
  print_endline (obj [ ("info", obj info) ]);
  print_endline
    (obj
       [
         ("correct", string_of_bool o.Outcome.correct);
         ("attempted", string_of_int o.Outcome.attempted);
         ("failed", string_of_int o.Outcome.failed);
         ( "metrics",
           obj
             (List.map
                (fun (x : Outcome.metric) ->
                  ( x.Outcome.name,
                    obj
                      [
                        ("value", Bstat.json_num x.Outcome.value);
                        ("unit", Bstat.json_str x.Outcome.unit);
                      ] ))
                o.Outcome.metrics) );
       ])
