(* The execution configuration ([Exec]): the oracle's differential
   matrix pinned name by name, the name vocabulary round-tripping, and
   the environment reader rejecting every value it cannot represent —
   through an injected lookup, so no test touches the process
   environment. *)

open Hpfc_runtime

(* The oracle's 6 configurations, in order, the reference first —
   spelled out so that a lost, added or reordered configuration fails
   here rather than silently changing what the fuzzer covers. *)
let pinned_names =
  [
    "canonical/seq/p2p";
    "canonical/seq/coll";
    "distributed/seq/p2p";
    "distributed/seq/coll";
    "distributed/par/p2p";
    "distributed/par/coll";
  ]

let test_matrix_pinned () =
  Alcotest.(check (list string)) "Exec.all names" pinned_names
    (List.map Exec.name Exec.all);
  Alcotest.(check string) "reference first" (Exec.name Exec.reference)
    (List.hd pinned_names)

let test_name_round_trip () =
  List.iter
    (fun e ->
      match Exec.of_string (Exec.name e) with
      | Ok e' -> Alcotest.(check bool) (Exec.name e) true (e = e')
      | Error msg -> Alcotest.failf "%s rejected: %s" (Exec.name e) msg)
    Exec.all;
  Alcotest.(check bool) "long lowering spelling" true
    (Exec.of_string "Distributed/par/collective"
    = Exec.of_string "distributed/par/coll");
  List.iter
    (fun s ->
      match Exec.of_string s with
      | Ok e -> Alcotest.failf "%S accepted as %s" s (Exec.name e)
      | Error _ -> ())
    [
      "canonical/par/p2p" (* parallel needs distributed *);
      "distributed/par/async/p2p" (* async was removed *);
      "distributed/seq";
      "distributed/seq/fast";
      (* a five-field name, with a datapath, has no configuration *)
      "distributed/seq/zerocopy/burst/p2p";
      "distributed/seq/staged/stepped/p2p";
      "";
    ]

(* A four-field name from before the schedule field was deleted is
   diagnosed as such, in any case; any other four-field name keeps the
   generic error. *)
let test_old_names () =
  let error s =
    match Exec.of_string s with
    | Ok e -> Alcotest.failf "%S accepted as %s" s (Exec.name e)
    | Error msg -> msg
  in
  let says_removed s =
    Astring.String.is_infix ~affix:"schedule field was removed" (error s)
  in
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ ": schedule removed") true (says_removed s);
      Alcotest.(check bool) (s ^ ": steps charged") true
        (Astring.String.is_infix ~affix:"contention-free steps" (error s)))
    [
      "distributed/par/stepped/coll";
      "canonical/seq/burst/p2p";
      "Distributed/PAR/Stepped/Collective";
    ];
  List.iter
    (fun s ->
      Alcotest.(check bool) (s ^ ": generic error") false (says_removed s);
      Alcotest.(check bool) (s ^ ": expected shape") true
        (Astring.String.is_infix ~affix:"backend/executor/lower" (error s)))
    [ "distributed/par/async/p2p"; "distributed/seq/fast/p2p" ]

let env bindings var = List.assoc_opt var bindings

let test_of_env_settings () =
  let of_env b = Exec.of_env ~getenv:(env b) () in
  let check what b expected =
    Alcotest.(check string) what (Exec.name expected) (Exec.name (of_env b))
  in
  let r = Exec.reference in
  check "nothing set" [] r;
  check "off spellings"
    [
      ("HPFC_FORCE_PAR", "0"); ("HPFC_FORCE_SCALAR", "");
      ("HPFC_FORCE_STAGED", "0"); ("HPFC_FORCE_ASYNC", "");
      ("HPFC_FORCE_LOWER", "0");
    ]
    r;
  (* the removed variables accept every off spelling *)
  List.iter
    (fun var ->
      List.iter
        (fun v -> check (var ^ " off") [ (var, v) ] r)
        [ ""; "0" ])
    [ "HPFC_FORCE_ASYNC"; "HPFC_FORCE_SCALAR"; "HPFC_FORCE_STAGED" ];
  let par = { r with backend = Distributed; par = true } in
  check "par team" [ ("HPFC_FORCE_PAR", "3") ] par;
  check "par auto" [ ("HPFC_FORCE_PAR", "auto") ] par;
  check "collective" [ ("HPFC_FORCE_LOWER", " Collective ") ]
    { r with lower = Collective };
  check "auto" [ ("HPFC_FORCE_LOWER", "auto") ] { r with lower = Auto };
  check "p2p" [ ("HPFC_FORCE_LOWER", "p2p") ] r;
  let team b = Exec.team_of_env ~getenv:(env b) () in
  Alcotest.(check (option int)) "team size" (Some 3)
    (team [ ("HPFC_FORCE_PAR", "3") ]);
  Alcotest.(check (option int)) "auto team" None
    (team [ ("HPFC_FORCE_PAR", "auto") ])

(* Each value the reader cannot represent is one diagnosed error naming
   the variable and what it accepts — never a silent fallback. *)
let test_of_env_strict () =
  let rejects b affixes =
    match Exec.of_env ~getenv:(env b) () with
    | e -> Alcotest.failf "accepted as %s" (Exec.name e)
    | exception Hpfc_base.Error.Hpf_error (Invalid_config, msg) ->
      List.iter
        (fun affix ->
          Alcotest.(check bool)
            (Printf.sprintf "%S names %S" msg affix)
            true
            (Astring.String.is_infix ~affix msg))
        affixes
  in
  rejects [ ("HPFC_FORCE_LOWER", "ring") ]
    [ "HPFC_FORCE_LOWER"; "ring"; "p2p"; "collective"; "auto" ];
  rejects [ ("HPFC_FORCE_PAR", "many") ] [ "HPFC_FORCE_PAR"; "many"; "auto" ];
  rejects [ ("HPFC_FORCE_PAR", "-2") ] [ "HPFC_FORCE_PAR"; "positive integer" ];
  (* the async executor and the scalar and staged datapaths are gone: an
     on-value of their variables is diagnosed, not ignored (unset, empty
     and "0" stay accepted, see "environment settings") *)
  List.iter
    (fun var ->
      List.iter
        (fun v -> rejects [ (var, v) ] [ var; "removed" ])
        [ "1"; "yes" ])
    [ "HPFC_FORCE_ASYNC"; "HPFC_FORCE_SCALAR"; "HPFC_FORCE_STAGED" ];
  rejects [ ("HPFC_FORCE_ASYNC", "1") ] [ "HPFC_FORCE_PAR" ];
  rejects
    [ ("HPFC_FORCE_ASYNC", "1"); ("HPFC_FORCE_PAR", "3") ]
    [ "HPFC_FORCE_ASYNC"; "removed" ];
  rejects
    [ ("HPFC_FORCE_SCALAR", "1"); ("HPFC_FORCE_LOWER", "collective") ]
    [ "HPFC_FORCE_SCALAR"; "removed" ]

let suite =
  [
    Alcotest.test_case "differential matrix pinned" `Quick test_matrix_pinned;
    Alcotest.test_case "names round-trip" `Quick test_name_round_trip;
    Alcotest.test_case "old four-field names diagnosed" `Quick test_old_names;
    Alcotest.test_case "environment settings" `Quick test_of_env_settings;
    Alcotest.test_case "environment values are strict" `Quick
      test_of_env_strict;
  ]
