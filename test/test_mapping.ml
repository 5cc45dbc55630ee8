(* Tests for the mapping algebra: distribution formats, ownership,
   interval views, local indexing, layout equivalence. *)

open Hpfc_mapping

let procs4 = Procs.linear "P" 4
let grid22 = Procs.make "G" [| 2; 2 |]

let mapping_1d ?(n = 16) ?(name = "A") dist procs =
  Mapping.direct ~array_name:name ~extents:[| n |] ~dist:[| dist |] ~procs

let layout_1d ?(n = 16) dist procs =
  Layout.of_mapping ~extents:[| n |] (mapping_1d ~n dist procs)

(* --- unit tests ------------------------------------------------------- *)

let test_block_owner () =
  let l = layout_1d Dist.block procs4 in
  (* 16 elements, 4 procs, default block 4 *)
  List.iter
    (fun (i, p) -> Alcotest.(check int) (Fmt.str "owner of %d" i) p (Layout.owner l [| i |]).(0))
    [ (0, 0); (3, 0); (4, 1); (7, 1); (8, 2); (15, 3) ]

let test_cyclic_owner () =
  let l = layout_1d Dist.cyclic procs4 in
  List.iter
    (fun (i, p) -> Alcotest.(check int) (Fmt.str "owner of %d" i) p (Layout.owner l [| i |]).(0))
    [ (0, 0); (1, 1); (4, 0); (7, 3); (15, 3) ]

let test_block_cyclic_owner () =
  let l = layout_1d (Dist.cyclic_sized 3) procs4 in
  (* blocks of 3 dealt round-robin: [0..2]->0 [3..5]->1 [6..8]->2 [9..11]->3 [12..14]->0 [15]->1 *)
  List.iter
    (fun (i, p) -> Alcotest.(check int) (Fmt.str "owner of %d" i) p (Layout.owner l [| i |]).(0))
    [ (0, 0); (2, 0); (3, 1); (11, 3); (12, 0); (15, 1) ]

let test_block_too_small_rejected () =
  Alcotest.check_raises "block(2) on 4 procs cannot cover 16"
    (Hpfc_base.Error.Hpf_error
       ( Hpfc_base.Error.Invalid_directive,
         "template $A dim 0: block(2) on 4 procs cannot cover extent 16" ))
    (fun () -> ignore (layout_1d (Dist.block_sized 2) procs4))

let test_transpose_align_owner () =
  (* A(8,8) aligned A(i,j) with T(j,i), T distributed (block, star) on 4 procs:
     owner of A(i,j) is owner of template row j. *)
  let t = Template.make "T" [| 8; 8 |] in
  let m =
    Mapping.v ~template:t ~align:Align.transpose2
      ~dist:[| Dist.block; Dist.star |] ~procs:procs4
  in
  let l = Layout.of_mapping ~extents:[| 8; 8 |] m in
  Alcotest.(check int) "A(0,7) on proc 3" 3 (Layout.owner l [| 0; 7 |]).(0);
  Alcotest.(check int) "A(7,0) on proc 0" 0 (Layout.owner l [| 7; 0 |]).(0)

let test_const_align () =
  (* A(8) aligned with T(i, 3): column 3 of a (block, block) 2x2 grid. *)
  let t = Template.make "T" [| 8; 8 |] in
  let align =
    [| Align.Axis { array_dim = 0; stride = 1; offset = 0 }; Align.Const 3 |]
  in
  let m = Mapping.v ~template:t ~align ~dist:[| Dist.block; Dist.block |] ~procs:grid22 in
  let l = Layout.of_mapping ~extents:[| 8 |] m in
  Alcotest.(check (array int)) "owner of A(0)" [| 0; 0 |] (Layout.owner l [| 0 |]);
  Alcotest.(check (array int)) "owner of A(5)" [| 1; 0 |] (Layout.owner l [| 5 |]);
  (* procs with column coordinate 1 own nothing *)
  Alcotest.(check int) "off-coordinate proc owns 0" 0
    (Layout.local_size l ~proc:[| 0; 1 |]);
  Alcotest.(check int) "on-coordinate proc owns 4" 4
    (Layout.local_size l ~proc:[| 0; 0 |])

let test_replicated_align () =
  (* A(8) aligned with T(i, star): replicated along grid columns. *)
  let t = Template.make "T" [| 8; 8 |] in
  let align =
    [| Align.Axis { array_dim = 0; stride = 1; offset = 0 }; Align.Replicated |]
  in
  let m = Mapping.v ~template:t ~align ~dist:[| Dist.block; Dist.block |] ~procs:grid22 in
  let l = Layout.of_mapping ~extents:[| 8 |] m in
  let owners = Layout.owners l [| 0 |] in
  Alcotest.(check int) "two replicas" 2 (List.length owners);
  Alcotest.(check bool) "is_owner both columns" true
    (Layout.is_owner l ~proc:[| 0; 1 |] [| 0 |] && Layout.is_owner l ~proc:[| 0; 0 |] [| 0 |])

let test_local_sizes_sum () =
  let l = layout_1d ~n:17 (Dist.cyclic_sized 3) procs4 in
  let total = ref 0 in
  for p = 0 to 3 do
    total := !total + Layout.local_size l ~proc:[| p |]
  done;
  Alcotest.(check int) "local sizes partition extent" 17 !total

let test_owned_intervals_block () =
  let l = layout_1d Dist.block procs4 in
  Alcotest.(check (list (pair int int))) "proc 2 owns [8,12)" [ (8, 12) ]
    (Layout.owned_intervals l ~array_dim:0 ~coord:2)

let test_owned_intervals_cyclic () =
  let l = layout_1d ~n:10 (Dist.cyclic_sized 2) procs4 in
  Alcotest.(check (list (pair int int))) "proc 0 owns [0,2) and [8,10)"
    [ (0, 2); (8, 10) ]
    (Layout.owned_intervals l ~array_dim:0 ~coord:0)

let test_local_index_dense () =
  let l = layout_1d ~n:10 (Dist.cyclic_sized 2) procs4 in
  (* proc 0 owns 0 1 8 9 with local indices 0 1 2 3 *)
  List.iter
    (fun (g, loc) ->
      Alcotest.(check int) (Fmt.str "local index of %d" g) loc
        (Layout.local_index l [| g |]).(0))
    [ (0, 0); (1, 1); (8, 2); (9, 3) ]

let test_mapping_equality () =
  let a = mapping_1d Dist.block procs4 in
  let b = mapping_1d (Dist.block_sized 4) procs4 in
  Alcotest.(check bool) "default block resolves equal" true (Mapping.equal a b);
  let c = mapping_1d Dist.cyclic procs4 in
  Alcotest.(check bool) "block <> cyclic" false (Mapping.equal a c)

let test_layout_equiv_across_templates () =
  (* Same block layout via two different templates: not Mapping.equal but
     layout-equivalent, so no data movement is needed. *)
  let t1 = Template.make "T1" [| 16 |] and t2 = Template.make "T2" [| 16 |] in
  let mk t = Mapping.v ~template:t ~align:(Align.identity 1) ~dist:[| Dist.block |] ~procs:procs4 in
  Alcotest.(check bool) "not structurally equal" false (Mapping.equal (mk t1) (mk t2));
  Alcotest.(check bool) "layout equivalent" true
    (Layout.equiv_mappings ~extents:[| 16 |] (mk t1) (mk t2))

let test_procs_linearize_roundtrip () =
  let g = Procs.make "G" [| 3; 4; 2 |] in
  for lin = 0 to Procs.size g - 1 do
    Alcotest.(check int) "roundtrip" lin (Procs.linearize g (Procs.delinearize g lin))
  done

(* --- qcheck properties ------------------------------------------------ *)

let gen_fmt =
  QCheck2.Gen.(
    oneof
      [
        return Dist.block;
        map (fun k -> Dist.block_sized k) (int_range 1 8);
        return Dist.cyclic;
        map (fun k -> Dist.cyclic_sized k) (int_range 1 5);
      ])

(* Random well-formed 1-D layout: extent, format, procs, align stride/offset. *)
let gen_layout_1d =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* p = int_range 1 6 in
    let* fmt = gen_fmt in
    let* stride = oneofl [ 1; 2; 3; -1; -2 ] in
    let* offset = int_range 0 5 in
    (* template extent covering the alignment image *)
    let image_max = max offset ((stride * (n - 1)) + offset) in
    let image_min = min offset ((stride * (n - 1)) + offset) in
    if image_min < 0 then return None
    else
      let textent = image_max + 1 in
      let fmt =
        (* ensure block(k) covers the template *)
        match fmt with
        | Dist.Block (Some k) when k * p < textent ->
          Dist.Block (Some (Hpfc_base.Util.cdiv textent p))
        | f -> f
      in
      let t = Template.make "T" [| textent |] in
      let align = [| Align.Axis { array_dim = 0; stride; offset } |] in
      let m = Mapping.v ~template:t ~align ~dist:[| fmt |] ~procs:(Procs.linear "P" p) in
      return (Some (n, p, Layout.of_mapping ~extents:[| n |] m)))

let prop_partition =
  QCheck2.Test.make ~name:"every element owned by exactly one proc" ~count:300
    gen_layout_1d (function
    | None -> true
    | Some (n, p, l) ->
      let ok = ref true in
      for i = 0 to n - 1 do
        let owners = ref 0 in
        for c = 0 to p - 1 do
          if Layout.is_owner l ~proc:[| c |] [| i |] then incr owners
        done;
        if !owners <> 1 then ok := false
      done;
      !ok)

let prop_intervals_match_owner =
  QCheck2.Test.make ~name:"owned_intervals agree with pointwise owner" ~count:300
    gen_layout_1d (function
    | None -> true
    | Some (n, p, l) ->
      let ok = ref true in
      for c = 0 to p - 1 do
        let intervals = Layout.owned_intervals l ~array_dim:0 ~coord:c in
        let in_intervals i = List.exists (fun (lo, hi) -> i >= lo && i < hi) intervals in
        for i = 0 to n - 1 do
          let owned = (Layout.owner l [| i |]).(0) = c in
          if owned <> in_intervals i then ok := false
        done
      done;
      !ok)

let prop_local_index_bijective =
  QCheck2.Test.make ~name:"local indices are dense per proc" ~count:300
    gen_layout_1d (function
    | None -> true
    | Some (n, p, l) ->
      let ok = ref true in
      for c = 0 to p - 1 do
        let locals = ref [] in
        for i = 0 to n - 1 do
          if (Layout.owner l [| i |]).(0) = c then
            locals := (Layout.local_index l [| i |]).(0) :: !locals
        done;
        let locals = List.sort compare !locals in
        let expected = Hpfc_base.Util.range 0 (List.length locals) in
        if locals <> expected then ok := false
      done;
      !ok)

let prop_local_sizes_sum =
  QCheck2.Test.make ~name:"sum of local sizes equals extent" ~count:300
    gen_layout_1d (function
    | None -> true
    | Some (n, p, l) ->
      let total = ref 0 in
      for c = 0 to p - 1 do
        total := !total + Layout.local_size l ~proc:[| c |]
      done;
      !total = n)

let suite =
  [
    Alcotest.test_case "block owner" `Quick test_block_owner;
    Alcotest.test_case "cyclic owner" `Quick test_cyclic_owner;
    Alcotest.test_case "block-cyclic owner" `Quick test_block_cyclic_owner;
    Alcotest.test_case "undersized block rejected" `Quick test_block_too_small_rejected;
    Alcotest.test_case "transpose alignment" `Quick test_transpose_align_owner;
    Alcotest.test_case "constant alignment" `Quick test_const_align;
    Alcotest.test_case "replicated alignment" `Quick test_replicated_align;
    Alcotest.test_case "local sizes partition" `Quick test_local_sizes_sum;
    Alcotest.test_case "owned intervals (block)" `Quick test_owned_intervals_block;
    Alcotest.test_case "owned intervals (cyclic)" `Quick test_owned_intervals_cyclic;
    Alcotest.test_case "dense local index" `Quick test_local_index_dense;
    Alcotest.test_case "mapping equality" `Quick test_mapping_equality;
    Alcotest.test_case "layout equivalence across templates" `Quick test_layout_equiv_across_templates;
    Alcotest.test_case "procs linearize roundtrip" `Quick test_procs_linearize_roundtrip;
    Qcheck_env.to_alcotest prop_partition;
    Qcheck_env.to_alcotest prop_intervals_match_owner;
    Qcheck_env.to_alcotest prop_local_index_bijective;
    Qcheck_env.to_alcotest prop_local_sizes_sum;
  ]

(* --- periodic interval sets (Ivset) ------------------------------------- *)

let prop_owned_set_matches_intervals =
  QCheck2.Test.make ~name:"owned_set is owned_intervals, compressed" ~count:300
    gen_layout_1d (function
    | None -> true
    | Some (_, p, l) ->
      let ok = ref true in
      for c = 0 to p - 1 do
        let set = Layout.owned_set l ~array_dim:0 ~coord:c in
        let ivs = Layout.owned_intervals l ~array_dim:0 ~coord:c in
        if Ivset.to_intervals set <> ivs then ok := false
      done;
      !ok)

let prop_inter_cardinal_matches_bruteforce =
  QCheck2.Test.make ~name:"Ivset.inter_cardinal equals pointwise count"
    ~count:300
    QCheck2.Gen.(pair gen_layout_1d gen_layout_1d)
    (function
    | None, _ | _, None -> true
    | Some (n1, p1, l1), Some (n2, p2, l2) ->
      let n = min n1 n2 in
      let ok = ref true in
      for c1 = 0 to p1 - 1 do
        for c2 = 0 to p2 - 1 do
          let s1 = Layout.owned_set l1 ~array_dim:0 ~coord:c1 in
          let s2 = Layout.owned_set l2 ~array_dim:0 ~coord:c2 in
          (* clip both to the common extent by brute force *)
          let member s i =
            List.exists (fun (lo, hi) -> i >= lo && i < hi) (Ivset.to_intervals s)
          in
          let brute = ref 0 in
          for i = 0 to n - 1 do
            if member s1 i && member s2 i then incr brute
          done;
          (* inter_cardinal counts over min of the extents, which is n when
             the layouts share it; restrict via count comparison instead *)
          if n1 = n2 && Ivset.inter_cardinal s1 s2 <> !brute then ok := false
        done
      done;
      !ok)

let test_ivset_cardinal () =
  let p = Ivset.Periodic { period = 8; pattern = [ (1, 3); (6, 7) ]; extent = 20 } in
  (* periods [0,8) [8,16): 3 elements each; remainder [16,20): pattern
     elements 17 18 -> 2 *)
  Alcotest.(check int) "cardinal" 8 (Ivset.cardinal p);
  Alcotest.(check int) "count below 10" 4 (Ivset.count_below p 10);
  Alcotest.(check (list (pair int int))) "expansion"
    [ (1, 3); (6, 7); (9, 11); (14, 15); (17, 19) ]
    (Ivset.to_intervals p)

let test_ivset_inter_periodic () =
  let a = Ivset.Periodic { period = 4; pattern = [ (0, 2) ]; extent = 24 } in
  let b = Ivset.Periodic { period = 6; pattern = [ (0, 3) ]; extent = 24 } in
  (* brute force over lcm 12, doubled *)
  let member s i =
    List.exists (fun (lo, hi) -> i >= lo && i < hi) (Ivset.to_intervals s)
  in
  let brute = ref 0 in
  for i = 0 to 23 do
    if member a i && member b i then incr brute
  done;
  Alcotest.(check int) "periodic/periodic" !brute (Ivset.inter_cardinal a b)

(* A 1-D layout whose array is aligned x -> stride*x + offset into a 1-D
   template of extent [textent]. *)
let aligned_layout ~n ~p ~textent ~stride ~offset fmt =
  Layout.of_mapping ~extents:[| n |]
    (Mapping.v
       ~template:(Template.make "T" [| textent |])
       ~align:[| Align.Axis { array_dim = 0; stride; offset } |]
       ~dist:[| fmt |] ~procs:(Procs.linear "P" p))

(* Sorted, disjoint, non-adjacent, non-empty intervals within [0, w). *)
let maximal_within w ivs =
  let rec ok prev = function
    | [] -> true
    | (lo, hi) :: rest -> lo > prev && lo < hi && hi <= w && ok hi rest
  in
  ok (-1) ivs

(* Maximal intervals of a sorted list of distinct indices. *)
let intervals_of_sorted xs =
  Ivset.merge_adjacent (List.map (fun x -> (x, x + 1)) xs)

(* The closed-form cyclic owned set against per-element [owner_of_cell],
   exhaustively: extents <= 40, P <= 5, k <= 6, strides -3..3, and offsets
   over one full cell period (every residue class the pattern depends
   on).  Both the elements and the representation are checked: Periodic
   exactly when the x-period is below the extent, with sorted maximal
   intervals inside one period. *)
let test_owned_set_closed_form () =
  for n = 1 to 40 do
    for p = 1 to 5 do
      for k = 1 to 6 do
        for stride = -3 to 3 do
          if stride <> 0 then begin
            let c = k * p in
            let span = abs stride * (n - 1) in
            let x_period = c / Hpfc_base.Util.gcd stride c in
            for j = 0 to c - 1 do
              let offset = if stride > 0 then j else span + j in
              let l =
                aligned_layout ~n ~p ~textent:(span + c) ~stride ~offset
                  (Dist.cyclic_sized k)
              in
              for coord = 0 to p - 1 do
                let set = Layout.owned_set l ~array_dim:0 ~coord in
                let members =
                  List.filter
                    (fun x ->
                      Layout.owner_of_cell ~nprocs:p (Layout.FCyclic k)
                        ((stride * x) + offset)
                      = coord)
                    (List.init n Fun.id)
                in
                let shape_ok =
                  Layout.x_period l ~array_dim:0
                  = (if x_period < n then Some x_period else None)
                  &&
                  match set with
                  | Ivset.Periodic { period; pattern; extent } ->
                    x_period < n && period = x_period && extent = n
                    && maximal_within period pattern
                  | Ivset.Finite ivs -> x_period >= n && maximal_within n ivs
                in
                if
                  (not shape_ok)
                  || Ivset.to_intervals set <> intervals_of_sorted members
                then
                  Alcotest.failf "n=%d p=%d cyclic(%d) %d*x%+d coord %d: %a" n
                    p k stride offset coord Ivset.pp set
              done
            done
          end
        done
      done
    done
  done

let ivset_suite =
  [
    Alcotest.test_case "ivset cardinal/expand" `Quick test_ivset_cardinal;
    Alcotest.test_case "ivset periodic intersection" `Quick test_ivset_inter_periodic;
    Qcheck_env.to_alcotest prop_owned_set_matches_intervals;
    Qcheck_env.to_alcotest prop_inter_cardinal_matches_bruteforce;
    Alcotest.test_case "cyclic owned_set closed form, exhaustive" `Quick
      test_owned_set_closed_form;
  ]
