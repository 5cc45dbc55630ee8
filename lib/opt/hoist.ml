(* Loop-invariant remapping motion (Sec. 4.3, Fig. 16 -> 17).

   A remapping statement that ends a loop body is moved out of the loop when
   its leaving mappings are already among the mappings reaching the loop
   head: then (a) on the zero-trip path the hoisted remapping is a run-time
   no-op (the status test finds the array already mapped as required), so
   the paper's caveat about inducing a useless remapping when t < 1 does
   not arise, and (b) in-loop references still see the mapping established
   by the remappings heading the body — which the run-time status test
   makes free after the first iteration.

   Only routines with a candidate build a graph: a syntactic pre-check
   looks for a loop body ending in a remapping first.  The graph of each
   moved routine is built once and serves twice: it validates the move
   and drives the next search, and the last one is handed to the caller,
   so the pipeline builds G_R once per routine.  A move is kept only if it
   creates no ambiguous reference and no new route: every data-moving
   (array, source, target) layout triple of the new graph already occurs
   in the old one.  Without the route rule, leaving a loop can make a
   later remapping start from another layout and move more data. *)

open Hpfc_lang
module Cfg = Hpfc_cfg.Cfg
module Layout = Hpfc_mapping.Layout
open Hpfc_remap

let is_remap (s : Ast.stmt) =
  match s.Ast.skind with
  | Ast.Realign _ | Ast.Redistribute _ -> true
  | _ -> false

(* vid of the CFG vertex carrying statement [sid]. *)
let vid_of_sid (cfg : Cfg.t) sid =
  let found = ref None in
  Array.iter
    (fun (v : Cfg.vertex) ->
      if !found = None && Cfg.sid_of_kind v.Cfg.kind = Some sid then
        found := Some v.Cfg.vid)
    cfg.Cfg.vertices;
  !found

(* Is moving trailing statement [s] of the Do with statement id [do_sid]
   out of the loop a guaranteed no-op on the zero-trip path?  True iff for
   every array remapped at [s], the leaving versions are among the versions
   reaching the loop head *along loop-entry paths* — the back edge must be
   excluded, since it always carries the trailing remapping's own result. *)
let zero_trip_safe (g : Graph.t) ~do_sid (s : Ast.stmt) =
  match (vid_of_sid g.Graph.cfg s.Ast.sid, vid_of_sid g.Graph.cfg do_sid) with
  | Some vs, Some vh -> (
    match Graph.info_opt g vs with
    | None -> false  (* not a remapping vertex: nothing to hoist *)
    | Some info ->
      let cfg = g.Graph.cfg in
      let loop =
        Array.to_list cfg.Cfg.loops
        |> List.find (fun (l : Cfg.loop_info) -> l.head_vid = vh)
      in
      let entry_preds =
        List.filter
          (fun p -> not (List.mem p loop.Cfg.members))
          (Cfg.preds cfg vh)
      in
      let entry_state =
        List.fold_left
          (fun acc p -> State.join acc g.Graph.prop.Propagate.state_out.(p))
          State.empty entry_preds
      in
      info.Graph.labels <> []
      && List.for_all
           (fun ((a, l) : string * Graph.label) ->
             let entry_versions =
               State.mappings entry_state a
               |> List.map (Version.of_mapping g.Graph.registry a)
               |> Hpfc_base.Util.dedup_stable ( = )
             in
             l.Graph.leaving <> []
             && List.for_all (fun v -> List.mem v entry_versions) l.Graph.leaving)
           info.Graph.labels)
  | _ -> false

(* One hoisting step: find the first loop (outermost, in source order) whose
   body ends with a hoistable remapping, and move that statement after the
   loop.  Returns None when nothing moved. *)
let rec hoist_in_block (g : Graph.t) (block : Ast.block) : Ast.block option =
  match block with
  | [] -> None
  | ({ Ast.skind = Ast.Do d; _ } as s) :: rest -> (
    match List.rev d.body with
    | last :: body_rev
      when is_remap last && zero_trip_safe g ~do_sid:s.Ast.sid last ->
      let s' = { s with Ast.skind = Ast.Do { d with body = List.rev body_rev } } in
      Some (s' :: last :: rest)
    | _ -> (
      match hoist_in_block g d.body with
      | Some body' ->
        Some ({ s with Ast.skind = Ast.Do { d with body = body' } } :: rest)
      | None -> (
        match hoist_in_block g rest with
        | Some rest' -> Some (s :: rest')
        | None -> None)))
  | ({ Ast.skind = Ast.If (c, t, e); _ } as s) :: rest -> (
    match hoist_in_block g t with
    | Some t' -> Some ({ s with Ast.skind = Ast.If (c, t', e) } :: rest)
    | None -> (
      match hoist_in_block g e with
      | Some e' -> Some ({ s with Ast.skind = Ast.If (c, t, e') } :: rest)
      | None -> (
        match hoist_in_block g rest with
        | Some rest' -> Some (s :: rest')
        | None -> None)))
  | s :: rest -> (
    match hoist_in_block g rest with
    | Some rest' -> Some (s :: rest')
    | None -> None)

(* Does some loop body, at any depth and inside either branch of an If,
   end in a remapping?  This mirrors [hoist_in_block]'s search: without
   such a loop, nothing can move and no graph is needed. *)
let rec has_candidate (block : Ast.block) =
  List.exists
    (fun (s : Ast.stmt) ->
      match s.Ast.skind with
      | Ast.Do d ->
        (match List.rev d.body with last :: _ -> is_remap last | [] -> false)
        || has_candidate d.body
      | Ast.If (_, t, e) -> has_candidate t || has_candidate e
      | _ -> false)
    block

(* The data-moving routes of [g]: (array, source layout, target layout) of
   every reaching x leaving pair of a non-exit label whose layouts differ. *)
let routes (g : Graph.t) =
  List.concat_map
    (fun vid ->
      let info = Graph.info g vid in
      if info.Graph.vkind = Cfg.V_exit then []
      else
        List.concat_map
          (fun ((a, l) : string * Graph.label) ->
            let layout = Version.layout_of g.Graph.registry a in
            List.concat_map
              (fun r ->
                List.filter_map
                  (fun v ->
                    let src = layout r and dst = layout v in
                    if Layout.equal src dst then None else Some (a, src, dst))
                  l.Graph.leaving)
              l.Graph.reaching)
          info.Graph.labels)
    (Graph.vertex_ids g)

(* Every route of [after] already occurs in [before]. *)
let keeps_routes ~before ~after =
  let old = routes before in
  List.for_all
    (fun (a, src, dst) ->
      List.exists
        (fun (a', src', dst') ->
          String.equal a a' && Layout.equal src src' && Layout.equal dst dst')
        old)
    (routes after)

let run_graph ?default_nprocs (r : Ast.routine) =
  if not (has_candidate r.Ast.r_body) then (r, 0, None)
  else
    let rec loop r g count =
      match hoist_in_block g r.Ast.r_body with
      | None -> (r, count, Some g)
      | Some body' -> (
        let r' = { r with Ast.r_body = body' } in
        match Construct.build ?default_nprocs r' with
        | g' when keeps_routes ~before:g ~after:g' -> loop r' g' (count + 1)
        | (_ : Graph.t) | (exception Hpfc_base.Error.Hpf_error _) ->
          (r, count, Some g))
    in
    loop r (Construct.build ?default_nprocs r) 0

let run ?default_nprocs r =
  let r, count, _ = run_graph ?default_nprocs r in
  (r, count)
