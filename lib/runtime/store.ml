(* Run-time array store: one descriptor per abstract array holding its
   statically mapped copies, the current-version [status] word, and the
   per-copy [live] flags — exactly the data structure Sec. 5.1 requires.

   A copy's payload is one global row-major buffer (the canonical
   backend) or one buffer per processor laid out row-major over that
   processor's local extents (the distributed backend); see [backend].
   Every element access goes through the copy's compiled addresser
   ([Layout.Addr]), built once when the copy is allocated.

   A copy can be live (values valid) or dead; dead copies are materialized
   without communication (the D case of Fig. 19).  Under a machine memory
   limit, allocating a new copy evicts live non-current copies first
   (Sec. 5.2: the runtime may free a live copy and regenerate it later with
   communication). *)

open Hpfc_mapping

(* Two execution backends share every analysis and all the code generation:

   - [Canonical]: one global row-major payload per copy.  Fast, and values
     are trivially comparable.
   - [Distributed]: one buffer per processor, sized by the layout's local
     extents; every element access asks the copy's addresser
     ([Layout.Addr]) for the owner's rank and the local offset — the
     address arithmetic the generated SPMD code would perform.
     Equivalence with the canonical backend (tested end-to-end)
     validates the whole local-addressing algebra. *)
type backend = Exec.backend = Canonical | Distributed

type payload =
  | Global of Buf.t
  | Locals of Buf.t array  (* indexed by linear processor rank *)

type copy = {
  version : int;
  layout : Layout.t;
  addr : Layout.Addr.t;  (* [layout]'s compiled element addressing *)
  payload : payload;  (* may be shared with a caller's copy *)
  footprint : int;  (* sum of per-processor local sizes (counts replicas) *)
}

(* Element access through a copy's payload; inlined so that callers
   keep the float unboxed, and allocation-free. *)
let[@inline] copy_get (c : copy) index =
  match c.payload with
  | Global g -> Buf.get g (Layout.global_linear_index c.layout.Layout.extents index)
  | Locals ls ->
    Buf.get
      ls.(Layout.Addr.owner_rank c.addr index)
      (Layout.Addr.offset c.addr index)

(* Replicated layouts write every replica. *)
let[@inline] copy_set (c : copy) index v =
  match c.payload with
  | Global g ->
    Buf.set g (Layout.global_linear_index c.layout.Layout.extents index) v
  | Locals ls ->
    let off = Layout.Addr.offset c.addr index
    and base = Layout.Addr.owner_rank c.addr index
    and replicas = Layout.Addr.replicas c.addr in
    for i = 0 to Array.length replicas - 1 do
      Buf.set ls.(base + replicas.(i)) off v
    done

(* How the communication executor touches this copy's storage.  The
   global payload ignores the rank (every rank's access lands in the one
   canonical array — replaying the message stream there cross-validates
   the IR against the distributed run); local buffers address the given
   rank directly, so a replicated target is written one replica per
   message rather than broadcast on every write. *)
let endpoint_of_copy (c : copy) : Comm.endpoint =
  match c.payload with
  | Global g ->
    let extents = c.layout.Layout.extents in
    {
      Comm.read =
        (fun ~rank:_ index -> Buf.get g (Layout.global_linear_index extents index));
      write =
        (fun ~rank:_ index v ->
          Buf.set g (Layout.global_linear_index extents index) v);
      addressing = Redist.Row_major extents;
      buffer = (fun ~rank:_ -> g);
    }
  | Locals ls ->
    let a = c.addr in
    {
      Comm.read =
        (fun ~rank index -> Buf.get ls.(rank) (Layout.Addr.offset a index));
      write =
        (fun ~rank index v -> Buf.set ls.(rank) (Layout.Addr.offset a index) v);
      addressing = Redist.Owner_local a;
      buffer = (fun ~rank -> ls.(rank));
    }

let iter_global_indices extents f =
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

(* Initialize a copy's payload from a global-linear-position function. *)
let fill_copy (c : copy) f =
  let k = ref 0 in
  iter_global_indices c.layout.Layout.extents (fun index ->
      copy_set c index (f !k);
      incr k)

(* Materialize a copy as a canonical global array (for result capture). *)
let to_global (c : copy) =
  match c.payload with
  | Global g -> Buf.to_array g
  | Locals _ ->
    let out = Array.make (Layout.nb_elements c.layout) 0.0 in
    let k = ref 0 in
    iter_global_indices c.layout.Layout.extents (fun index ->
        out.(!k) <- copy_get c index;
        incr k);
    out

type descriptor = {
  name : string;
  extents : int array;
  mutable copies : copy option array;  (* indexed by version *)
  mutable status : int option;
  mutable live : bool array;
  mutable caller_versions : int list;
      (* versions whose storage belongs to the caller (the passed copy, and
         live copies shared under the advanced calling convention): never
         freed or accounted here *)
  (* which elements of the abstract array hold program-defined values;
     KILL and intent(out) leave elements undefined, writes define them.
     Used by the differential test oracle: only defined elements are
     comparable across compilations. *)
  defined : bool array;
}

type t = {
  machine : Machine.t;
  mutable descriptors : (string * descriptor) list;
  (* memoized redistribution plans, keyed by canonical layout pair; shared
     down the call tree (callee frames pass it on) so loop-carried and
     cross-frame remappings between the same layouts plan once *)
  plans : Redist.Plan_cache.t;
  backend : backend;
  (* how remapping plans are run against the payloads: the sequential
     reference Comm.execute by default, or a parallel backend's executor
     (Hpfc_par.Par.executor); shared down the call tree like [plans] *)
  executor : Comm.executor;
}

let create ?(backend = Canonical) ?(executor = Comm.execute) ?plans machine =
  {
    machine;
    descriptors = [];
    plans =
      (match plans with Some c -> c | None -> Redist.Plan_cache.create ());
    backend;
    executor;
  }

let descriptor t name =
  match List.assoc name t.descriptors with
  | d -> d
  | exception Not_found ->
    Hpfc_base.Error.fail Runtime_fault "no descriptor for array %s" name

let add_descriptor t ~name ~extents ~nb_versions ?caller_copy ?defined () =
  let nb_elements = Array.fold_left ( * ) 1 extents in
  let d =
    {
      name;
      extents;
      copies = Array.make (max 1 nb_versions) None;
      status = None;
      live = Array.make (max 1 nb_versions) false;
      caller_versions = (match caller_copy with Some _ -> [ 0 ] | None -> []);
      defined =
        (match defined with
        | Some shared -> shared
        | None -> Array.make nb_elements false);
    }
  in
  (match caller_copy with
  | Some (c : copy) -> d.copies.(0) <- Some { c with version = 0 }
  | None -> ());
  t.descriptors <- (name, d) :: List.remove_assoc name t.descriptors;
  d

let ensure_version_capacity d version =
  if version >= Array.length d.copies then begin
    let copies = Array.make (version + 1) None in
    Array.blit d.copies 0 copies 0 (Array.length d.copies);
    let live = Array.make (version + 1) false in
    Array.blit d.live 0 live 0 (Array.length d.live);
    d.copies <- copies;
    d.live <- live
  end

(* Local allocation size of every linear rank. *)
let local_sizes addr =
  let procs = (Layout.Addr.layout addr).Layout.procs in
  Array.init (Procs.size procs) (fun p ->
      Array.fold_left ( * ) 1
        (Layout.Addr.local_extents addr ~proc:(Procs.delinearize procs p)))

let copy_exists d version =
  version < Array.length d.copies && d.copies.(version) <> None

let get_copy d version =
  match
    if version >= 0 && version < Array.length d.copies then d.copies.(version)
    else None
  with
  | Some c -> c
  | None ->
    Hpfc_base.Error.fail Runtime_fault "%s_%d is not allocated" d.name version

let is_live d version = version < Array.length d.live && d.live.(version)

let set_live (_ : t) d version flag =
  ensure_version_capacity d version;
  if flag && not (copy_exists d version) then
    Hpfc_base.Error.fail Runtime_fault "%s_%d set live before allocation"
      d.name version;
  d.live.(version) <- flag

(* Free one copy's memory (does not touch caller-owned storage). *)
let free t d version =
  if copy_exists d version then begin
    let c = get_copy d version in
    if not (List.mem version d.caller_versions) then begin
      t.machine.Machine.memory_used <-
        t.machine.Machine.memory_used - c.footprint;
      d.copies.(version) <- None;
      t.machine.Machine.counters.Machine.frees <-
        t.machine.Machine.counters.Machine.frees + 1
    end;
    d.live.(version) <- false
  end

(* Evict live, non-current, non-caller copies until [needed] elements fit.
   Returns false if the limit cannot be met even after eviction. *)
let make_room t needed =
  match t.machine.Machine.memory_limit with
  | None -> true
  | Some limit ->
    let fits () = t.machine.Machine.memory_used + needed <= limit in
    if fits () then true
    else begin
      List.iter
        (fun (_, d) ->
          Array.iteri
            (fun v c ->
              if
                (not (fits ())) && c <> None
                && d.status <> Some v
                && not (List.mem v d.caller_versions)
              then begin
                free t d v;
                Machine.record t.machine
                  (Machine.Evict { array = d.name; version = v });
                t.machine.Machine.counters.Machine.evictions <-
                  t.machine.Machine.counters.Machine.evictions + 1
              end)
            d.copies)
        t.descriptors;
      fits ()
    end

let alloc t d version layout =
  ensure_version_capacity d version;
  if not (copy_exists d version) then begin
    let addr = Layout.Addr.make layout in
    let sizes = local_sizes addr in
    let footprint = Array.fold_left ( + ) 0 sizes in
    if not (make_room t footprint) then
      Hpfc_base.Error.fail Runtime_fault
        "out of memory allocating %s_%d (%d elements)" d.name version footprint;
    let payload =
      match t.backend with
      | Canonical -> Global (Buf.create (Array.fold_left ( * ) 1 d.extents))
      | Distributed -> Locals (Array.map (fun n -> Buf.create (max 1 n)) sizes)
    in
    let c = { version; layout; addr; payload; footprint } in
    d.copies.(version) <- Some c;
    t.machine.Machine.memory_used <- t.machine.Machine.memory_used + footprint;
    t.machine.Machine.counters.Machine.allocs <-
      t.machine.Machine.counters.Machine.allocs + 1
  end

(* The communication plan from version [src] to version [dst], memoized on
   the canonical layout pair (hit/miss counters and a [Plan_lookup] trace
   event go to the machine). *)
let plan_for t d ~src ~dst =
  let s = (get_copy d src).layout and t' = (get_copy d dst).layout in
  Redist.Plan_cache.find t.plans ~machine:t.machine ~src:s ~dst:t' (fun () ->
      Redist.plan_intervals ~src:s ~dst:t')

(* Remapping copy A_dst := A_src (Fig. 19's "A_l := A_a"): every remap,
   under either backend, runs the plan's step program through the
   communication executor — the canonical backend replays the identical
   message stream against the global payload, so the backends
   cross-validate the IR itself.  [with_data] is false for D-labelled
   copies (allocation only). *)
let copy_version t d ~src ~dst ~with_data =
  let c = t.machine.Machine.counters in
  if with_data then begin
    Machine.record t.machine
      (Machine.Remap_begin { array = d.name; src = Some src; dst });
    let plan = plan_for t d ~src ~dst in
    let t0 = c.Machine.time in
    let sc = get_copy d src and dc = get_copy d dst in
    t.executor t.machine ~src:(endpoint_of_copy sc) ~dst:(endpoint_of_copy dc)
      plan;
    c.Machine.remaps_performed <- c.Machine.remaps_performed + 1;
    Machine.record t.machine
      (Machine.Remap_end
         {
           array = d.name;
           src = Some src;
           dst;
           volume = Redist.total_moved plan;
           time = c.Machine.time -. t0;
         })
  end
  else begin
    Machine.record t.machine
      (Machine.Dead_copy { array = d.name; src = Some src; dst });
    c.Machine.dead_copies <- c.Machine.dead_copies + 1
  end

(* --- element access ------------------------------------------------------ *)

let linear_index extents index =
  for d = 0 to Array.length index - 1 do
    let x = index.(d) in
    if x < 0 || x >= extents.(d) then
      Hpfc_base.Error.fail Runtime_fault "index %d out of bounds [0,%d)" x
        extents.(d)
  done;
  Layout.global_linear_index extents index

(* Read/write through the *current* copy; a version check catches compiler
   bugs (reference compiled against a copy that is not current). *)
let read t ~name ~version index =
  let d = descriptor t name in
  if d.status <> Some version then
    Hpfc_base.Error.fail Runtime_fault
      "read of %s_%d but current version is %s" name version
      (match d.status with Some v -> string_of_int v | None -> "none");
  let c = get_copy d version in
  ignore (linear_index d.extents index : int);  (* bounds check *)
  copy_get c index

(* Is the abstract element at [index] program-defined? *)
let defined_at t ~name index =
  let d = descriptor t name in
  d.defined.(linear_index d.extents index)

(* [defined] is false when the stored value was computed from undefined
   operands (taint propagation in the interpreter). *)
let write ?(defined = true) t ~name ~version index value =
  let d = descriptor t name in
  if d.status <> Some version then
    Hpfc_base.Error.fail Runtime_fault
      "write to %s_%d but current version is %s" name version
      (match d.status with Some v -> string_of_int v | None -> "none");
  let c = get_copy d version in
  let li = linear_index d.extents index in
  copy_set c index value;
  d.defined.(li) <- defined;
  (* the written copy is authoritative *)
  d.live.(version) <- true

let pp_descriptor ppf d =
  Fmt.pf ppf "%s: status=%s live={%a}" d.name
    (match d.status with Some v -> string_of_int v | None -> "_")
    (Hpfc_base.Util.pp_list Fmt.int)
    (List.filteri (fun i _ -> d.live.(i)) (Array.to_list (Array.mapi (fun i _ -> i) d.live)))
