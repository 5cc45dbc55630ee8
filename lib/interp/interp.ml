(* Interpreter: executes compiled routines (original control flow + the
   generated copy-management code) against the simulated machine.

   Every array reference goes through the statically tagged copy version
   and the store checks it against the run-time status word — a mismatch
   means the compiler mismanaged mappings and raises Runtime_fault, so the
   end-to-end tests double as a correctness oracle for the whole pipeline.

   Calls execute the callee's compiled body in its own store frame; the
   dummy argument's version-0 copy shares its payload with the caller's
   copy currently passed (HPF argument-passing semantics: the argument is
   the only information the callee gets). *)

open Hpfc_lang
module Gen = Hpfc_codegen.Gen
module Rt_ir = Hpfc_codegen.Rt_ir
open Hpfc_runtime
open Hpfc_remap

type value = VInt of int | VFloat of float

let to_float = function VInt i -> float_of_int i | VFloat f -> f
let to_int = function
  | VInt i -> i
  | VFloat f ->
    if Float.is_integer f then int_of_float f
    else Hpfc_base.Error.fail Runtime_fault "expected an integer, got %g" f

let truthy = function VInt 0 -> false | VInt _ -> true | VFloat f -> f <> 0.0

type program = {
  compiled : (string, Gen.routine) Hashtbl.t;
  (* the paper's "more advanced calling convention" (Sec. 2.2): live copies
     of the actual whose layout matches a callee copy are passed along the
     required copy, so the callee's internal remappings reuse them *)
  share_live_args : bool;
}

type frame = {
  routine : Gen.routine;
  store : Store.t;
  scalars : (string, value) Hashtbl.t;
  tainted : (string, unit) Hashtbl.t;  (* scalars computed from undefined data *)
  saved : (int * string, int option) Hashtbl.t;  (* Fig. 18 slots *)
}

type result = {
  machine : Machine.t;
  final_scalars : (string * value) list;
  (* payload of the current copy of each array when the body finished *)
  final_arrays : (string * float array) list;
  (* which elements hold program-defined values (KILL / intent(out) leave
     elements undefined); only these are comparable across compilations *)
  final_defined : (string * bool array) list;
}

(* --- compilation ---------------------------------------------------------- *)

type pipeline = {
  hoist : bool;  (* loop-invariant remapping motion *)
  remove_useless : bool;  (* Appendix C *)
  codegen : Gen.options;
  default_nprocs : int;
  share_live_args : bool;  (* Sec. 2.2's advanced calling convention *)
}

let full_pipeline =
  {
    hoist = true;
    remove_useless = true;
    codegen = Gen.default_options;
    default_nprocs = 4;
    share_live_args = false;
  }

(* The paper's baseline: copies between statically mapped versions, but no
   dataflow optimization at all. *)
let naive_pipeline =
  {
    full_pipeline with
    hoist = false;
    remove_useless = false;
    codegen = { Gen.use_use_info = false; use_live_copies = false };
  }

type optimized = {
  graph : Graph.t;
  hoisted : int;
  remappings_before : int;
  useless : Hpfc_opt.Remove_useless.stats;
}

(* Hoist, then G_R (the graph hoist settled on, when it built one), then
   useless-remapping removal in place: one graph build per routine. *)
let optimize (p : pipeline) (r : Ast.routine) : optimized =
  let r, hoisted, built =
    if p.hoist then Hpfc_opt.Hoist.run_graph ~default_nprocs:p.default_nprocs r
    else (r, 0, None)
  in
  let graph =
    match built with
    | Some g -> g
    | None -> Construct.build ~default_nprocs:p.default_nprocs r
  in
  let remappings_before = Graph.nb_remappings graph in
  let useless =
    if p.remove_useless then Hpfc_opt.Remove_useless.run graph
    else { Hpfc_opt.Remove_useless.removed = 0; noops = 0 }
  in
  { graph; hoisted; remappings_before; useless }

let compile_routine (p : pipeline) (r : Ast.routine) : Gen.routine =
  Gen.generate ~options:p.codegen (optimize p r).graph

let compile ?(pipeline = full_pipeline) (prog : Ast.program) : program =
  let compiled = Hashtbl.create 8 in
  List.iter
    (fun (r : Ast.routine) ->
      Hashtbl.replace compiled r.Ast.r_name (compile_routine pipeline r))
    prog.Ast.routines;
  { compiled; share_live_args = pipeline.share_live_args }

(* --- generated-code execution --------------------------------------------- *)

let layout_of frame array version =
  Version.layout_of frame.routine.Gen.graph.Graph.registry array version

let rec exec_code frame (code : Rt_ir.code) =
  let store = frame.store in
  let counters = store.Store.machine.Machine.counters in
  match code with
  | Rt_ir.Seq codes -> List.iter (exec_code frame) codes
  | Rt_ir.If_status_not { array; version; body } ->
    let d = Store.descriptor store array in
    if d.Store.status <> Some version then exec_code frame body
    else begin
      Machine.record store.Store.machine
        (Machine.Skip { array; dst = version });
      counters.Machine.remaps_skipped <- counters.Machine.remaps_skipped + 1
    end
  | Rt_ir.If_status_is { array; version; body } ->
    let d = Store.descriptor store array in
    if d.Store.status = Some version then exec_code frame body
  | Rt_ir.If_live_else { array; version; live; dead } ->
    let d = Store.descriptor store array in
    if Store.is_live d version then begin
      (match live with
      | Rt_ir.Note_live_reuse ->
        Machine.record store.Store.machine
          (Machine.Live_reuse { array; dst = version })
      | _ -> ());
      exec_code frame live
    end
    else exec_code frame dead
  | Rt_ir.If_saved_is { array; slot; version; body } ->
    if Hashtbl.find_opt frame.saved (slot, array) = Some (Some version) then
      exec_code frame body
  | Rt_ir.Alloc (array, version) ->
    let d = Store.descriptor store array in
    Store.alloc store d version (layout_of frame array version)
  | Rt_ir.Free (array, version) ->
    Store.free store (Store.descriptor store array) version
  | Rt_ir.Copy { array; dst; src } ->
    let d = Store.descriptor store array in
    (* copying from a dead copy (e.g. an intent(out) dummy) moves no data *)
    Store.copy_version store d ~src ~dst ~with_data:(Store.is_live d src)
  | Rt_ir.Dead_copy _ ->
    counters.Machine.dead_copies <- counters.Machine.dead_copies + 1
  | Rt_ir.Set_status (array, version) ->
    (Store.descriptor store array).Store.status <- Some version
  | Rt_ir.Set_live { array; version; live } ->
    Store.set_live store (Store.descriptor store array) version live
  | Rt_ir.Kill_others (array, version) ->
    let d = Store.descriptor store array in
    Array.iteri
      (fun v _ -> if v <> version then d.Store.live.(v) <- false)
      d.Store.live
  | Rt_ir.Save_status { array; slot } ->
    let d = Store.descriptor store array in
    Hashtbl.replace frame.saved (slot, array) d.Store.status
  | Rt_ir.Note_live_reuse ->
    counters.Machine.live_reuses <- counters.Machine.live_reuses + 1
  | Rt_ir.Note_skip | Rt_ir.Nop -> ()

(* --- expression evaluation ------------------------------------------------- *)

let ref_version frame ~sid array =
  match Hashtbl.find_opt frame.routine.Gen.refs (sid, array) with
  | Some v -> v
  | None ->
    Hpfc_base.Error.fail Runtime_fault
      "no tagged copy for %s at statement %d" array sid

(* [taint] is set when the evaluation touches an undefined array element or
   a tainted scalar: values derived from undefined data are undefined
   (reading after KILL, or an unwritten intent(out) argument). *)
let rec eval frame ~sid ?element ?(taint = ref false) expr : value =
  match expr with
  | Ast.Int i -> VInt i
  | Ast.Float f -> VFloat f
  | Ast.Var v -> (
    match Hashtbl.find_opt frame.scalars v with
    | Some value ->
      if Hashtbl.mem frame.tainted v then taint := true;
      value
    | None ->
      Hpfc_base.Error.fail Runtime_fault "unbound scalar %s" v)
  | Ast.Ref (a, []) -> (
    match element with
    | Some index ->
      if not (Store.defined_at frame.store ~name:a index) then taint := true;
      VFloat (Store.read frame.store ~name:a ~version:(ref_version frame ~sid a) index)
    | None ->
      Hpfc_base.Error.fail Runtime_fault
        "whole-array reference to %s outside an array assignment" a)
  | Ast.Ref (a, indices) ->
    let index =
      Array.of_list
        (List.map (fun e -> to_int (eval frame ~sid ?element ~taint e)) indices)
    in
    if not (Store.defined_at frame.store ~name:a index) then taint := true;
    VFloat (Store.read frame.store ~name:a ~version:(ref_version frame ~sid a) index)
  | Ast.Unop (Ast.Neg, e) -> (
    match eval frame ~sid ?element ~taint e with
    | VInt i -> VInt (-i)
    | VFloat f -> VFloat (-.f))
  | Ast.Unop (Ast.Not, e) ->
    VInt (if truthy (eval frame ~sid ?element ~taint e) then 0 else 1)
  | Ast.Binop (op, e1, e2) -> (
    let v1 = eval frame ~sid ?element ~taint e1 in
    let v2 = eval frame ~sid ?element ~taint e2 in
    let arith fi ff =
      match (v1, v2) with
      | VInt a, VInt b -> VInt (fi a b)
      | _ -> VFloat (ff (to_float v1) (to_float v2))
    in
    let cmp f = VInt (if f (compare (to_float v1) (to_float v2)) 0 then 1 else 0) in
    match op with
    | Ast.Add -> arith ( + ) ( +. )
    | Ast.Sub -> arith ( - ) ( -. )
    | Ast.Mul -> arith ( * ) ( *. )
    | Ast.Div -> arith ( / ) ( /. )
    | Ast.Mod -> arith (fun a b -> Hpfc_base.Util.emod a b) Float.rem
    | Ast.Eq -> cmp ( = )
    | Ast.Ne -> cmp ( <> )
    | Ast.Lt -> cmp ( < )
    | Ast.Le -> cmp ( <= )
    | Ast.Gt -> cmp ( > )
    | Ast.Ge -> cmp ( >= )
    | Ast.And -> VInt (if truthy v1 && truthy v2 then 1 else 0)
    | Ast.Or -> VInt (if truthy v1 || truthy v2 then 1 else 0))

(* --- statement execution ---------------------------------------------------- *)

let iter_indices extents f =
  let rank = Array.length extents in
  let index = Array.make rank 0 in
  let rec loop d =
    if d = rank then f index
    else
      for x = 0 to extents.(d) - 1 do
        index.(d) <- x;
        loop (d + 1)
      done
  in
  if Array.for_all (fun e -> e > 0) extents then loop 0

let rec exec_stmt (p : program) frame (s : Ast.stmt) =
  let sid = s.Ast.sid in
  match s.Ast.skind with
  | Ast.Assign { array; indices; rhs } ->
    let taint = ref false in
    let index =
      Array.of_list
        (List.map (fun e -> to_int (eval frame ~sid ~taint e)) indices)
    in
    let value = to_float (eval frame ~sid ~taint rhs) in
    Store.write ~defined:(not !taint) frame.store ~name:array
      ~version:(ref_version frame ~sid array)
      index value
  | Ast.Full_assign { array; rhs } ->
    let version = ref_version frame ~sid array in
    let d = Store.descriptor frame.store array in
    iter_indices d.Store.extents (fun index ->
        let taint = ref false in
        let value = to_float (eval frame ~sid ~element:index ~taint rhs) in
        Store.write ~defined:(not !taint) frame.store ~name:array ~version
          index value)
  | Ast.Scalar_assign (v, rhs) ->
    let taint = ref false in
    Hashtbl.replace frame.scalars v (eval frame ~sid ~taint rhs);
    if !taint then Hashtbl.replace frame.tainted v ()
    else Hashtbl.remove frame.tainted v
  | Ast.If (cond, then_, else_) ->
    if truthy (eval frame ~sid cond) then exec_block p frame then_
    else exec_block p frame else_
  | Ast.Do { index; lo; hi; body } ->
    let lo = to_int (eval frame ~sid lo) and hi = to_int (eval frame ~sid hi) in
    for i = lo to hi do
      Hashtbl.replace frame.scalars index (VInt i);
      exec_block p frame body
    done
  | Ast.Kill array ->
    (* user-asserted dead values: every copy's payload is now meaningless *)
    let d = Store.descriptor frame.store array in
    Array.iteri (fun v _ -> d.Store.live.(v) <- false) d.Store.live;
    Array.iteri (fun i _ -> d.Store.defined.(i) <- false) d.Store.defined
  | Ast.Realign _ | Ast.Redistribute _ -> (
    match Hashtbl.find_opt frame.routine.Gen.remap_codes sid with
    | Some code -> exec_code frame code
    | None -> ()  (* optimized away entirely *))
  | Ast.Call { callee; args } ->
    (match Hashtbl.find_opt frame.routine.Gen.pre_call sid with
    | Some code -> exec_code frame code
    | None -> ());
    exec_call p frame ~sid ~callee ~args;
    (match Hashtbl.find_opt frame.routine.Gen.post_call sid with
    | Some code -> exec_code frame code
    | None -> ())

and exec_block p frame block = List.iter (exec_stmt p frame) block

and exec_call p frame ~sid ~callee ~args =
  let target =
    match Hashtbl.find_opt p.compiled callee with
    | Some r -> r
    | None ->
      Hpfc_base.Error.fail Unknown_entity "cannot execute call to %s" callee
  in
  let cenv = target.Gen.graph.Graph.env in
  let cframe =
    {
      routine = target;
      store =
        (* the callee frame inherits the caller's plan cache and
           communication executor: remappings between the same layout
           pair plan once across the call tree, and every frame runs on
           the same (possibly parallel) backend *)
        Store.create ~backend:frame.store.Store.backend
          ~executor:frame.store.Store.executor ~plans:frame.store.Store.plans
          frame.store.Store.machine;
      scalars = Hashtbl.create 8;
      tainted = Hashtbl.create 4;
      saved = Hashtbl.create 4;
    }
  in
  (* bind arguments in order *)
  List.iter2
    (fun actual dummy ->
      if Env.is_array cenv dummy then begin
        let aversion = ref_version frame ~sid actual in
        let d = Store.descriptor frame.store actual in
        let acopy = Store.get_copy d aversion in
        let dinfo = Env.array_info cenv dummy in
        let nb = Version.count target.Gen.graph.Graph.registry dummy in
        (* the callee shares both the payload of the passed copy and the
           abstract array's definedness with the caller *)
        let cd =
          Store.add_descriptor cframe.store ~name:dummy
            ~extents:dinfo.Env.ai_extents ~nb_versions:nb ~caller_copy:acopy
            ~defined:d.Store.defined ()
        in
        if p.share_live_args then begin
          (* advanced calling convention (Sec. 2.2): live caller copies
             whose layout matches a callee version travel with the
             argument; the callee's internal remappings reuse them *)
          for dv = 0 to nb - 1 do
            if dv <> 0 && not (Store.copy_exists cd dv) then begin
              let dlayout =
                Version.layout_of target.Gen.graph.Graph.registry dummy dv
              in
              Array.iteri
                (fun av copy_opt ->
                  match copy_opt with
                  | Some (c : Store.copy)
                    when Store.is_live d av
                         && Hpfc_mapping.Layout.equal c.Store.layout dlayout ->
                    cd.Store.copies.(dv) <-
                      Some { c with Store.version = dv };
                    cd.Store.caller_versions <- dv :: cd.Store.caller_versions;
                    Store.set_live cframe.store cd dv true
                  | Some _ | None -> ())
                d.Store.copies
            end
          done
        end
      end
      else
        match Hashtbl.find_opt frame.scalars actual with
        | Some v -> Hashtbl.replace cframe.scalars dummy v
        | None -> ())
    args target.Gen.source.Ast.r_args;
  run_frame p cframe

(* Create the descriptors of a frame (dummies already added by the caller
   binding; locals and, for a top-level run, dummies too). *)
and init_descriptors frame =
  let g = frame.routine.Gen.graph in
  List.iter
    (fun (i : Env.array_info) ->
      if List.assoc_opt i.Env.ai_name frame.store.Store.descriptors = None then
        ignore
          (Store.add_descriptor frame.store ~name:i.Env.ai_name
             ~extents:i.Env.ai_extents
             ~nb_versions:(Version.count g.Graph.registry i.Env.ai_name)
             ()))
    (Env.arrays g.Graph.env)

and run_frame p frame =
  init_descriptors frame;
  exec_code frame frame.routine.Gen.entry_code;
  exec_block p frame frame.routine.Gen.source.Ast.r_body;
  exec_code frame frame.routine.Gen.exit_code;
  exec_code frame frame.routine.Gen.cleanup_code

(* --- top-level run ----------------------------------------------------------- *)

(* The one shared domain pool: runs whose configuration asks for the
   parallel executor without bringing one (the HPFC_FORCE_PAR hook,
   through [Exec.default]) go through it.
   Created on first use with the team size the environment asks for,
   and shared — runs are sequential within a process, and the
   coordinator owns all accounting, so reuse is safe. *)
let shared_pool =
  lazy (Hpfc_par.Par.create ?ndomains:(Exec.default_team ()) ())

let run ?(machine : Machine.t option) ?exec ?(record_trace = false) ?backend
    ?executor ?plans ?(scalars = []) (p : program) ~entry () : result =
  let target =
    match Hashtbl.find_opt p.compiled entry with
    | Some r -> r
    | None -> Hpfc_base.Error.fail Unknown_entity "no routine %s" entry
  in
  let e = match exec with Some e -> e | None -> Exec.default () in
  let machine =
    match machine with
    | Some m -> m
    | None ->
      (* an explicit configuration decides the accounting mode; the
         environment's default never does *)
      let sched =
        match exec with
        | Some e -> e.Exec.sched
        | None -> Machine.Burst
      in
      Machine.create ~sched ~lower:e.Exec.lower ~record_trace
        ~nprocs:target.Gen.graph.Graph.env.Env.default_procs.shape.(0) ()
  in
  let backend = Option.value backend ~default:e.Exec.backend in
  let backend, executor =
    match executor with
    | None when e.Exec.par ->
      ( Store.Distributed,
        Some (Hpfc_par.Par.executor (Lazy.force shared_pool)) )
    | _ -> (backend, executor)
  in
  let frame =
    {
      routine = target;
      store = Store.create ~backend ?executor ?plans machine;
      scalars = Hashtbl.create 8;
      tainted = Hashtbl.create 4;
      saved = Hashtbl.create 4;
    }
  in
  List.iter (fun (k, v) -> Hashtbl.replace frame.scalars k v) scalars;
  init_descriptors frame;
  (* a top-level run materializes dummy arguments itself, with imported
     values (deterministic fill) for in/inout *)
  let g = frame.routine.Gen.graph in
  List.iter
    (fun (i : Env.array_info) ->
      match i.Env.ai_intent with
      | None -> ()
      | Some intent ->
        let d = Store.descriptor frame.store i.Env.ai_name in
        Store.alloc frame.store d 0
          (Version.layout_of g.Graph.registry i.Env.ai_name 0);
        let c = Store.get_copy d 0 in
        (match intent with
        | Ast.In | Ast.Inout ->
          Store.fill_copy c (fun k ->
              d.Store.defined.(k) <- true;
              float_of_int (k mod 17))
        | Ast.Out -> ()))
    (Env.arrays g.Graph.env);
  exec_code frame frame.routine.Gen.entry_code;
  exec_block p frame frame.routine.Gen.source.Ast.r_body;
  exec_code frame frame.routine.Gen.exit_code;
  (* capture final values before cleanup *)
  let arrays =
    List.filter_map
      (fun (name, (d : Store.descriptor)) ->
        match d.Store.status with
        | Some v when Store.copy_exists d v ->
          Some (name, Store.to_global (Store.get_copy d v))
        | _ -> None)
      frame.store.Store.descriptors
  in
  let defined =
    List.map
      (fun (name, (d : Store.descriptor)) -> (name, Array.copy d.Store.defined))
      frame.store.Store.descriptors
  in
  exec_code frame frame.routine.Gen.cleanup_code;
  {
    machine;
    final_scalars =
      Hashtbl.fold
        (fun k v acc ->
          if Hashtbl.mem frame.tainted k then acc else (k, v) :: acc)
        frame.scalars [];
    final_arrays = List.sort compare arrays;
    final_defined = List.sort compare defined;
  }
