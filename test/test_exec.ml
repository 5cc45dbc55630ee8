(* The execution configuration ([Exec]): the oracle's differential
   matrix pinned name by name, the name vocabulary round-tripping, and
   the environment reader rejecting every value it cannot represent —
   through an injected lookup, so no test touches the process
   environment. *)

open Hpfc_runtime

(* The oracle's 27 configurations, in order, the reference first —
   spelled out so that a lost, added or reordered configuration fails
   here rather than silently changing what the fuzzer covers. *)
let pinned_names =
  [
    "canonical/seq/zerocopy/burst/p2p";
    "canonical/seq/zerocopy/stepped/p2p";
    "canonical/seq/zerocopy/stepped/coll";
    "canonical/seq/staged/burst/p2p";
    "canonical/seq/staged/stepped/p2p";
    "canonical/seq/staged/stepped/coll";
    "canonical/seq/scalar/burst/p2p";
    "canonical/seq/scalar/stepped/p2p";
    "canonical/seq/scalar/stepped/coll";
    "distributed/seq/zerocopy/burst/p2p";
    "distributed/seq/zerocopy/stepped/p2p";
    "distributed/seq/zerocopy/stepped/coll";
    "distributed/seq/staged/burst/p2p";
    "distributed/seq/staged/stepped/p2p";
    "distributed/seq/staged/stepped/coll";
    "distributed/seq/scalar/burst/p2p";
    "distributed/seq/scalar/stepped/p2p";
    "distributed/seq/scalar/stepped/coll";
    "distributed/par/zerocopy/burst/p2p";
    "distributed/par/zerocopy/stepped/p2p";
    "distributed/par/zerocopy/stepped/coll";
    "distributed/par/staged/burst/p2p";
    "distributed/par/staged/stepped/p2p";
    "distributed/par/staged/stepped/coll";
    "distributed/par/scalar/burst/p2p";
    "distributed/par/scalar/stepped/p2p";
    "distributed/par/scalar/stepped/coll";
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
    (Exec.of_string "Distributed/par/staged/stepped/collective"
    = Exec.of_string "distributed/par/staged/stepped/coll");
  List.iter
    (fun s ->
      match Exec.of_string s with
      | Ok e -> Alcotest.failf "%S accepted as %s" s (Exec.name e)
      | Error _ -> ())
    [
      "canonical/par/zerocopy/burst/p2p" (* parallel needs distributed *);
      "distributed/par/zerocopy/async/p2p" (* async was removed *);
      "distributed/seq/zerocopy/async/p2p";
      "distributed/seq/zerocopy/burst";
      "distributed/seq/fast/burst/p2p";
      "";
    ]

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
  check "async off" [ ("HPFC_FORCE_ASYNC", "0") ] r;
  let par = { r with backend = Distributed; par = true } in
  check "par team" [ ("HPFC_FORCE_PAR", "3") ] par;
  check "par auto" [ ("HPFC_FORCE_PAR", "auto") ] par;
  check "scalar" [ ("HPFC_FORCE_SCALAR", "1") ] { r with datapath = Scalar };
  check "staged" [ ("HPFC_FORCE_STAGED", "yes") ] { r with datapath = Staged };
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
  rejects
    [ ("HPFC_FORCE_SCALAR", "1"); ("HPFC_FORCE_STAGED", "1") ]
    [ "HPFC_FORCE_SCALAR"; "HPFC_FORCE_STAGED" ];
  (* the async executor is gone: an on-value is diagnosed, not ignored
     (unset, empty and "0" stay accepted, see "off spellings") *)
  List.iter
    (fun v ->
      rejects
        [ ("HPFC_FORCE_ASYNC", v) ]
        [ "HPFC_FORCE_ASYNC"; "removed"; "HPFC_FORCE_PAR" ])
    [ "1"; "yes" ];
  rejects
    [ ("HPFC_FORCE_ASYNC", "1"); ("HPFC_FORCE_PAR", "3") ]
    [ "HPFC_FORCE_ASYNC"; "removed" ]

let suite =
  [
    Alcotest.test_case "differential matrix pinned" `Quick test_matrix_pinned;
    Alcotest.test_case "names round-trip" `Quick test_name_round_trip;
    Alcotest.test_case "environment settings" `Quick test_of_env_settings;
    Alcotest.test_case "environment values are strict" `Quick
      test_of_env_strict;
  ]
