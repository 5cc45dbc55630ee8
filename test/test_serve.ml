(* The multi-tenant remap service and its sharded plan cache.

   The correctness bar under test: for any interleaving, each tenant's
   final arrays and modeled counters are byte-identical to running its
   stream alone through the sequential executor — which counters count
   as modeled is declared once, in [Machine.rebuild].  Alongside the end-to-end stress, the pieces get
   direct units: sharded cache conservation and no-duplicate
   construction under domain hammering, O(1) LRU recency semantics,
   two-level (tenant over shared) accounting, the bounded queue, the
   deficit-round-robin invariant, and the fusion grouping rule. *)

open Hpfc_mapping
open Hpfc_runtime
module Serve = Hpfc_serve.Serve
module Request = Hpfc_serve.Request
module Bqueue = Hpfc_serve.Bqueue
module Admission = Hpfc_serve.Admission
module Fusion = Hpfc_serve.Fusion

(* --- shared layout vocabulary --------------------------------------------------- *)

let nelems = 48
let nprocs = 4
let procs = Procs.linear "P" nprocs

let layout d =
  Layout.of_mapping ~extents:[| nelems |]
    (Mapping.direct ~array_name:"a" ~extents:[| nelems |] ~dist:[| d |] ~procs)

let layouts =
  lazy
    [|
      layout Dist.block; layout Dist.cyclic;
      layout (Dist.cyclic_sized 2); layout (Dist.cyclic_sized 4);
    |]

(* A tenant or fused member and its solo replay share every
   configuration axis, so they agree on every modeled counter. *)
let scrub (m : Machine.t) = Machine.scrub ~varying:[] m.Machine.counters

(* --- sharded plan cache: shard count policy ------------------------------------- *)

let test_shard_defaults () =
  let n cap = Redist.Plan_cache.nshards (Redist.Plan_cache.create ~capacity:cap ()) in
  (* small capacities collapse to one shard: exact global LRU *)
  Alcotest.(check int) "capacity 2 -> 1 shard" 1 (n 2);
  Alcotest.(check int) "capacity 63 -> 1 shard" 1 (n 63);
  Alcotest.(check int) "capacity 128 -> 2 shards" 2 (n 128);
  Alcotest.(check int) "capacity 512 -> 8 shards" 8 (n 512);
  Alcotest.(check int) "capacity 10000 caps at 8 shards" 8 (n 10000);
  (* explicit shard count is clamped to the capacity *)
  Alcotest.(check int) "shards clamp to capacity"
    3
    (Redist.Plan_cache.nshards
       (Redist.Plan_cache.create ~capacity:3 ~shards:16 ()))

(* --- conservation + no duplicate construction under domain hammering ------------ *)

(* Four domains race 200 lookups each over 8 overlapping layout pairs on
   one shared cache big enough never to evict.  Conservation: every
   lookup is a hit or a miss.  No duplicate construction: a key maps to
   exactly one shard and misses compute under that shard's lock, so the
   8 distinct keys construct exactly 8 plans no matter the race. *)
let test_parallel_conservation () =
  let ls = Lazy.force layouts in
  let pairs =
    [ (0, 1); (1, 2); (2, 3); (3, 0); (0, 2); (1, 3); (2, 0); (3, 1) ]
  in
  let cache = Redist.Plan_cache.create ~capacity:512 () in
  let constructions = Atomic.make 0 in
  let ndomains = 4 and lookups = 200 in
  let worker seed =
    Domain.spawn (fun () ->
        for i = 0 to lookups - 1 do
          let s, d = List.nth pairs ((seed + i) mod List.length pairs) in
          ignore
            (Redist.Plan_cache.find cache ~src:ls.(s) ~dst:ls.(d) (fun () ->
                 Atomic.incr constructions;
                 Redist.plan_naive ~src:ls.(s) ~dst:ls.(d)))
        done)
  in
  List.iter Domain.join (List.init ndomains worker);
  let hits = Redist.Plan_cache.hits cache
  and misses = Redist.Plan_cache.misses cache in
  Alcotest.(check int) "every lookup is a hit or a miss"
    (ndomains * lookups) (hits + misses);
  Alcotest.(check int) "each key constructed exactly once"
    (List.length pairs)
    (Atomic.get constructions);
  Alcotest.(check int) "misses = constructions" (Atomic.get constructions) misses;
  Alcotest.(check int) "no evictions below capacity" 0
    (Redist.Plan_cache.evictions cache);
  Alcotest.(check int) "resident plans = distinct keys" (List.length pairs)
    (Redist.Plan_cache.size cache)

(* Same race against a capacity-2 cache: the eviction counter must stay
   consistent with the insert/size ledger (inserts = misses, so
   evictions = misses - size), and the size bound must hold. *)
let test_parallel_eviction_consistency () =
  let ls = Lazy.force layouts in
  let pairs = [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let cache = Redist.Plan_cache.create ~capacity:2 () in
  let ndomains = 4 and lookups = 100 in
  let worker seed =
    Domain.spawn (fun () ->
        for i = 0 to lookups - 1 do
          let s, d = List.nth pairs ((seed + i) mod List.length pairs) in
          ignore
            (Redist.Plan_cache.find cache ~src:ls.(s) ~dst:ls.(d) (fun () ->
                 Redist.plan_naive ~src:ls.(s) ~dst:ls.(d)))
        done)
  in
  List.iter Domain.join (List.init ndomains worker);
  let hits = Redist.Plan_cache.hits cache
  and misses = Redist.Plan_cache.misses cache
  and evictions = Redist.Plan_cache.evictions cache
  and size = Redist.Plan_cache.size cache in
  Alcotest.(check int) "conservation" (ndomains * lookups) (hits + misses);
  Alcotest.(check int) "evictions = misses - size" (misses - size) evictions;
  Alcotest.(check bool) "size bounded by capacity" true (size <= 2);
  Alcotest.(check bool) "thrashing actually evicted" true (evictions > 0)

(* --- O(1) LRU recency semantics -------------------------------------------------- *)

(* The intrusive recency list must preserve exact LRU: A B A C evicts B
   (A was touched), then B evicts A.  Also exercises the
   touch-when-already-MRU no-op and the single-entry list. *)
let test_lru_exactness () =
  let ls = Lazy.force layouts in
  let cache = Redist.Plan_cache.create ~capacity:2 () in
  let look s d =
    ignore
      (Redist.Plan_cache.find cache ~src:ls.(s) ~dst:ls.(d) (fun () ->
           Redist.plan_naive ~src:ls.(s) ~dst:ls.(d)))
  in
  let a () = look 0 1 and b () = look 1 2 and c () = look 2 3 in
  a (); (* miss: {A} *)
  a (); (* hit, touch of a single-entry list *)
  b (); (* miss: {B A} *)
  a (); (* hit: {A B} *)
  a (); (* hit, touch when already MRU *)
  c (); (* miss, evicts B (the LRU): {C A} *)
  a (); (* hit: A survived because it was touched *)
  b (); (* miss, evicts C? no — recency is {A C}, evicts C: {B A} *)
  a (); (* hit *)
  Alcotest.(check int) "hits" 5 (Redist.Plan_cache.hits cache);
  Alcotest.(check int) "misses" 4 (Redist.Plan_cache.misses cache);
  Alcotest.(check int) "evictions" 2 (Redist.Plan_cache.evictions cache)

(* --- two-level tenant-over-shared accounting -------------------------------------- *)

let test_two_level_sharing () =
  let ls = Lazy.force layouts in
  let shared = Redist.Plan_cache.create ~capacity:64 () in
  let t1 = Redist.Plan_cache.create ~capacity:8 ~parent:shared ()
  and t2 = Redist.Plan_cache.create ~capacity:8 ~parent:shared () in
  let look c = Redist.Plan_cache.find c ~src:ls.(0) ~dst:ls.(1) (fun () ->
      Redist.plan_naive ~src:ls.(0) ~dst:ls.(1))
  in
  let p1 = look t1 in
  let p2 = look t2 in
  (* each tenant's own accounting is exactly its solo accounting: one
     miss each, regardless of who constructed *)
  Alcotest.(check int) "tenant 1 misses solo-identical" 1
    (Redist.Plan_cache.misses t1);
  Alcotest.(check int) "tenant 2 misses solo-identical" 1
    (Redist.Plan_cache.misses t2);
  Alcotest.(check int) "tenant 2 sees no hit" 0 (Redist.Plan_cache.hits t2);
  (* construction was deduplicated through the parent... *)
  Alcotest.(check int) "parent constructed once" 1
    (Redist.Plan_cache.misses shared);
  Alcotest.(check int) "parent served tenant 2 from cache" 1
    (Redist.Plan_cache.hits shared);
  (* ...so the two tenants share the plan physically (what makes the
     fusion same-plan test pointer equality) *)
  Alcotest.(check bool) "plans physically shared" true (p1 == p2)

(* --- bounded queue ---------------------------------------------------------------- *)

let test_bqueue () =
  let q = Bqueue.create ~capacity:3 in
  Alcotest.(check bool) "fresh empty" true (Bqueue.is_empty q);
  Bqueue.push q 1;
  Bqueue.push q 2;
  Bqueue.push q 3;
  Alcotest.(check bool) "full at capacity" true (Bqueue.is_full q);
  Alcotest.(check int) "fifo 1" 1 (Bqueue.pop q);
  Bqueue.push q 4; (* wraps around the ring *)
  Alcotest.(check int) "fifo 2" 2 (Bqueue.pop q);
  Alcotest.(check int) "fifo 3" 3 (Bqueue.pop q);
  Alcotest.(check int) "fifo 4 after wrap" 4 (Bqueue.pop q);
  Alcotest.(check bool) "drained" true (Bqueue.is_empty q);
  Alcotest.check_raises "push on full rejected"
    (Invalid_argument "Bqueue.push: full") (fun () ->
      let q = Bqueue.create ~capacity:1 in
      Bqueue.push q 0;
      Bqueue.push q 1);
  Alcotest.check_raises "pop on empty rejected"
    (Invalid_argument "Bqueue.pop: empty") (fun () ->
      ignore (Bqueue.pop (Bqueue.create ~capacity:1 : int Bqueue.t)))

(* --- deficit round robin ----------------------------------------------------------- *)

let test_drr_round_robin () =
  let adm = Admission.create ~tenants:3 ~quantum:1 in
  let grants =
    List.init 9 (fun _ ->
        match Admission.next adm ~ready:(fun _ -> true) with
        | Some i -> i
        | None -> Alcotest.fail "no grant with everyone ready")
  in
  Alcotest.(check (list int)) "all-ready grants cycle round robin"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2 ] grants;
  (* a tenant going idle drops out without stalling the rotation *)
  let grants' =
    List.init 4 (fun _ ->
        Option.get (Admission.next adm ~ready:(fun i -> i <> 1)))
  in
  Alcotest.(check (list int)) "idle tenant skipped" [ 0; 2; 0; 2 ] grants';
  Alcotest.(check (option int)) "nobody ready -> no grant" None
    (Admission.next adm ~ready:(fun _ -> false))

(* The fairness invariant: between two consecutive grants to a
   continuously backlogged tenant, any other continuously backlogged
   tenant receives at most [quantum] grants. *)
let test_drr_fairness_invariant () =
  let tenants = 4 and quantum = 3 in
  let adm = Admission.create ~tenants ~quantum in
  let since_last = Array.make tenants 0 in
  for _ = 1 to 500 do
    let g = Option.get (Admission.next adm ~ready:(fun _ -> true)) in
    Array.iteri
      (fun i n ->
        if i <> g then begin
          Alcotest.(check bool)
            (Printf.sprintf "tenant %d granted <= quantum between tenant %d's grants" i g)
            true (n <= quantum)
        end)
      since_last;
    since_last.(g) <- 0;
    Array.iteri (fun i n -> if i <> g then since_last.(i) <- n + 1) since_last
  done

(* --- fusion grouping --------------------------------------------------------------- *)

(* Synthetic plans with hand-picked rank footprints: the box contents
   are irrelevant to grouping, only m_from/m_to are. *)
let msg f t =
  {
    Redist.m_from = f;
    m_to = t;
    m_count = 1;
    m_box = [| Ivset.Finite [ (0, 1) ] |];
    m_paths = Atomic.make [];
  }

let plan_on ranks =
  let moves =
    match ranks with
    | f :: rest -> List.map (fun t -> msg f t) (if rest = [] then [ f ] else rest)
    | [] -> []
  in
  {
    Redist.moves;
    locals = [];
    nprocs_src = 8;
    nprocs_dst = 8;
    sprog = None;
    cprog = None;
  }

let batch_shape batches =
  List.map (List.map (fun (_, ms) -> List.length ms)) batches

let test_fusion_same_plan_groups () =
  let p = plan_on [ 0; 1 ] and q = plan_on [ 0; 2 ] in
  (* same physical plan fuses regardless of footprint overlap *)
  let batches = Fusion.batches [ (p, "a"); (q, "b"); (p, "c") ] in
  (* p-group {a,c} overlaps q's footprint on rank 0, so q sits alone *)
  Alcotest.(check (list (list int))) "same-plan members grouped"
    [ [ 2 ]; [ 1 ] ] (batch_shape batches);
  (match batches with
  | [ [ (_, members) ]; _ ] ->
    Alcotest.(check (list string)) "submission order kept" [ "a"; "c" ] members
  | _ -> Alcotest.fail "unexpected batch structure")

let test_fusion_disjoint_footprints_merge () =
  let p = plan_on [ 0; 1 ] and q = plan_on [ 2; 3 ] and r = plan_on [ 1; 2 ] in
  (* p and q touch disjoint ranks: one batch of two groups; r overlaps
     both, so it opens a second batch *)
  Alcotest.(check (list (list int))) "disjoint plans overlay, overlap splits"
    [ [ 1; 1 ]; [ 1 ] ]
    (batch_shape (Fusion.batches [ (p, "a"); (q, "b"); (r, "c") ]))

let test_fusion_footprint_includes_locals () =
  let p = plan_on [ 0; 1 ] in
  let q = { (plan_on [ 3 ]) with Redist.moves = []; locals = [ msg 1 1 ] } in
  (* q's only rank activity is a local move on rank 1 — still a
     conflict with p *)
  Alcotest.(check (list (list int))) "locals count toward the footprint"
    [ [ 1 ]; [ 1 ] ]
    (batch_shape (Fusion.batches [ (p, "a"); (q, "b") ]))

(* --- fused execution = solo execution, deterministically --------------------------- *)

(* Two tenants' remaps between the same layout pair, executed as one
   fused group: both machines must end with the exact per-member
   counters and data of a solo [Comm.execute] (only the staging pool
   split may differ, and on the canonical backend nothing stages). *)
let test_execute_fused_equals_solo () =
  let ls = Lazy.force layouts in
  let src_l = ls.(0) and dst_l = ls.(1) in
  let plan = Redist.plan_intervals ~src:src_l ~dst:dst_l in
  let fill k = float_of_int ((7 * k) + 3) in
  let mk_member () =
    let m = Machine.create ~nprocs () in
    let s = Store.create m in
    let d = Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:2 () in
    Store.alloc s d 0 src_l;
    Store.alloc s d 1 dst_l;
    Store.fill_copy (Store.get_copy d 0) fill;
    let src_ep = Store.endpoint_of_copy (Store.get_copy d 0)
    and dst_ep = Store.endpoint_of_copy (Store.get_copy d 1) in
    (m, s, d, src_ep, dst_ep)
  in
  let m1, _, d1, s1, t1 = mk_member () in
  let m2, _, d2, s2, t2 = mk_member () in
  Comm.execute_fused [ (plan, [ (m1, s1, t1); (m2, s2, t2) ]) ];
  let ms, _, ds, ss, ts = mk_member () in
  Comm.execute ms ~src:ss ~dst:ts plan;
  let expected = Array.init nelems fill in
  let final d = Store.to_global (Store.get_copy d 1) in
  Alcotest.(check bool) "member 1 data = solo" true (final d1 = expected);
  Alcotest.(check bool) "member 2 data = solo" true (final d2 = expected);
  Alcotest.(check bool) "solo data intact" true (final ds = expected);
  Alcotest.(check bool) "member 1 counters = solo" true (scrub m1 = scrub ms);
  Alcotest.(check bool) "member 2 counters = solo" true (scrub m2 = scrub ms)

(* --- the end-to-end bar: concurrent tenants == solo sequential --------------------- *)

(* One tenant stream: cycle remaps through the layout ring [rounds]
   times on its own machine and store, through [executor] with [plans]
   as the store's cache.  [lower] configures the tenant's machine.
   Returns the machine and the final data. *)
let tenant_stream ?executor ?lower ~plans ~rounds () =
  let ls = Lazy.force layouts in
  let nv = Array.length ls in
  let m = Machine.create ~nprocs ?lower () in
  let s = Store.create ?executor ~plans m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:nv () in
  let fill k = float_of_int ((3 * k) + 1) in
  Array.iteri (fun v l -> Store.alloc s d v l) ls;
  d.Store.status <- Some 0;
  Store.set_live s d 0 true;
  Store.fill_copy (Store.get_copy d 0) fill;
  let last = ref 0 in
  for round = 0 to (rounds * nv) - 1 do
    let src = round mod nv and dst = (round + 1) mod nv in
    Store.copy_version s d ~src ~dst ~with_data:true;
    d.Store.status <- Some dst;
    last := dst
  done;
  (m, Store.to_global (Store.get_copy d !last))

(* No tenant pins its machine's lowering. *)
let ambient_config _ = None

(* [config i] optionally pins tenant [i]'s lowering; each tenant is
   compared with the solo replay of its own configuration. *)
let isolation_stress ?(config = ambient_config) ~fusion ~cache_capacity () =
  let tenants = 4 and rounds = 4 in
  let svc = Serve.create ~tenants ~fusion ?cache_capacity () in
  let doms =
    List.init tenants (fun i ->
        let lower = config i in
        Domain.spawn (fun () ->
            try
              Ok
                (tenant_stream
                   ~executor:(Serve.executor svc ~tenant:i)
                   ?lower ~plans:(Serve.tenant_cache svc i) ~rounds ())
            with e -> Error e))
  in
  let served =
    List.map
      (fun d -> match Domain.join d with Ok r -> r | Error e -> raise e)
      doms
  in
  let stats = Serve.shutdown svc in
  List.iteri
    (fun i (m, data) ->
      let solo_m, solo_data =
        tenant_stream ?lower:(config i)
          ~plans:(Redist.Plan_cache.create ?capacity:cache_capacity ())
          ~rounds ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d data = solo sequential" i)
        true (data = solo_data);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d counters = solo sequential" i)
        true
        (scrub m = scrub solo_m))
    served;
  (* conservation across the service ledger *)
  let nv = Array.length (Lazy.force layouts) in
  Alcotest.(check int) "every submitted request completed"
    (tenants * rounds * nv) stats.Serve.requests;
  Alcotest.(check int) "fused ledger = sum of tenant fused_remaps"
    (List.fold_left
       (fun acc ((m : Machine.t), _) ->
         acc + m.Machine.counters.Machine.fused_remaps)
       0 served)
    stats.Serve.fused_members;
  if not fusion then
    Alcotest.(check int) "no fusion when disabled" 0 stats.Serve.fused_members;
  stats

let test_isolation_fused () = ignore (isolation_stress ~fusion:true ~cache_capacity:None ())

let test_isolation_no_fusion () =
  ignore (isolation_stress ~fusion:false ~cache_capacity:None ())

(* capacity 2 forces continuous LRU eviction races between the tenant
   caches and the shared parent while the workers execute — the
   accounting must still be solo-identical (test_par's LRU race,
   service edition) *)
let test_isolation_eviction_race () =
  ignore (isolation_stress ~fusion:true ~cache_capacity:(Some 2) ())

(* Fusion observability, deterministically: create the service paused so
   no worker can drain a request early, stage the same block->cyclic
   remap for every tenant, then release the workers.  At resume every
   queue is backlogged, so the first take_batch takes one head per
   tenant (batch defaults to [tenants]); all members resolve their plan
   through the shared parent cache and therefore carry the same physical
   plan, which is exactly the fusion grouping test.  The fused batches
   are guaranteed, not a race against the scheduler.  [config i] pins
   tenant [i]'s lowering; each member's counters must equal a solo copy
   under its own configuration. *)
let staged_fusion ?(config = ambient_config) ~tenants () =
  let ls = Lazy.force layouts in
  let svc = Serve.create ~tenants ~paused:true () in
  let fill k = float_of_int (k + 1) in
  let stream ?plans i =
    let m =
      Machine.create ~nprocs ?lower:(config i) ()
    in
    let s = Store.create ?plans m in
    let d =
      Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:2 ()
    in
    Store.alloc s d 0 ls.(0);
    Store.alloc s d 1 ls.(1);
    Store.fill_copy (Store.get_copy d 0) fill;
    (m, s, d)
  in
  let streams =
    Array.init tenants (fun i -> stream ~plans:(Serve.tenant_cache svc i) i)
  in
  let reqs =
    Array.mapi
      (fun i (_, s, _) ->
        Serve.submit_remap svc ~tenant:i ~store:s ~array:"a" ~src:0 ~dst:1)
      streams
  in
  Serve.resume svc;
  Array.iter (Serve.await svc) reqs;
  let stats = Serve.shutdown svc in
  Array.iteri
    (fun i (m, _, d) ->
      let solo_m, solo_s, solo_d = stream i in
      Store.copy_version solo_s solo_d ~src:0 ~dst:1 ~with_data:true;
      Alcotest.(check bool) "fused member still moved its data" true
        (Store.to_global (Store.get_copy d 1) = Array.init nelems fill);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d counters = its solo copy" i)
        true
        (scrub m = scrub solo_m))
    streams;
  stats

let test_service_fuses_when_staged () =
  let stats = staged_fusion ~tenants:2 () in
  Alcotest.(check int) "one fused batch" 1 stats.Serve.fused_batches;
  Alcotest.(check int) "both staged remaps fused" 2 stats.Serve.fused_members

(* --- tenants under different execution configurations ----------------------- *)

(* Even tenants run the p2p lowering, odd ones the collective one. *)
let mixed_config i = Some (if i mod 2 = 0 then Exec.P2p else Exec.Collective)

(* Tenants that differ in lowering share one service, one plan cache and
   fusion: each tenant's data and modeled counters must still equal its
   solo replay under its own configuration. *)
let test_mixed_configs_isolated () =
  ignore
    (isolation_stress ~config:mixed_config ~fusion:true ~cache_capacity:None ())

(* Four tenants stage the same remap — one physical plan — two under
   each configuration: fusion batches each configuration's pair on its
   own, never all four together. *)
let test_fusion_never_mixes_configs () =
  let stats = staged_fusion ~config:mixed_config ~tenants:4 () in
  Alcotest.(check int) "one fused batch per configuration" 2
    stats.Serve.fused_batches;
  Alcotest.(check int) "every remap fused with its own kind" 4
    stats.Serve.fused_members

(* --- Remap-flavor requests: replay bracketing matches copy_version ------------------ *)

let test_submit_remap_bracketing () =
  let ls = Lazy.force layouts in
  let svc = Serve.create ~tenants:1 () in
  let m = Machine.create ~nprocs ~record_trace:true () in
  let s = Store.create ~plans:(Serve.tenant_cache svc 0) m in
  let d = Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:2 () in
  let fill k = float_of_int (k + 1) in
  Store.alloc s d 0 ls.(0);
  Store.alloc s d 1 ls.(1);
  Store.fill_copy (Store.get_copy d 0) fill;
  let req = Serve.submit_remap svc ~tenant:0 ~store:s ~array:"a" ~src:0 ~dst:1 in
  Serve.await svc req;
  ignore (Serve.shutdown svc);
  Alcotest.(check bool) "request done" true (req.Request.state = Request.Done);
  Alcotest.(check bool) "data moved" true
    (Store.to_global (Store.get_copy d 1) = Array.init nelems fill);
  (* the bracketing of Store.copy_version was replayed: one performed
     remap, one plan miss, and a Remap_begin/Remap_end pair in the trace *)
  let c = m.Machine.counters in
  Alcotest.(check int) "remaps_performed" 1 c.Machine.remaps_performed;
  Alcotest.(check int) "plan_misses" 1 c.Machine.plan_misses;
  let begins, ends =
    List.fold_left
      (fun (b, e) ev ->
        match ev with
        | Machine.Remap_begin _ -> (b + 1, e)
        | Machine.Remap_end { volume; _ } ->
          Alcotest.(check int) "Remap_end carries the plan volume"
            (Redist.total_moved (Store.plan_for s d ~src:0 ~dst:1))
            volume;
          (b, e + 1)
        | _ -> (b, e))
      (0, 0) (Machine.events m)
  in
  Alcotest.(check int) "one Remap_begin" 1 begins;
  Alcotest.(check int) "one Remap_end" 1 ends

(* A request naming a missing array or an unallocated version raises at
   submit, in the client's thread; the tenant's next valid request is
   served and equals its solo replay. *)
let test_submit_remap_rejects_bad_request () =
  let ls = Lazy.force layouts in
  let svc = Serve.create ~tenants:1 () in
  let stream plans =
    let m = Machine.create ~nprocs () in
    let s = Store.create ~plans m in
    let d =
      Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:3 ()
    in
    Store.alloc s d 0 ls.(0);
    Store.alloc s d 1 ls.(1);
    Store.fill_copy (Store.get_copy d 0) (fun k -> float_of_int (k + 1));
    (m, s, d)
  in
  let m, s, d = stream (Serve.tenant_cache svc 0) in
  let rejected what ~array ~src ~dst =
    Alcotest.(check bool) (what ^ " raises at submit") true
      (match Serve.submit_remap svc ~tenant:0 ~store:s ~array ~src ~dst with
      | _ -> false
      | exception Hpfc_base.Error.Hpf_error _ -> true)
  in
  rejected "unknown array" ~array:"b" ~src:0 ~dst:1;
  rejected "unallocated destination" ~array:"a" ~src:0 ~dst:2;
  rejected "unallocated source" ~array:"a" ~src:2 ~dst:1;
  let req =
    Serve.submit_remap svc ~tenant:0 ~store:s ~array:"a" ~src:0 ~dst:1
  in
  Serve.await svc req;
  let stats = Serve.shutdown svc in
  Alcotest.(check int) "only the valid request ran" 1 stats.Serve.requests;
  let solo_m, solo_s, solo_d = stream (Redist.Plan_cache.create ()) in
  Store.copy_version solo_s solo_d ~src:0 ~dst:1 ~with_data:true;
  Alcotest.(check bool) "data = solo replay" true
    (Store.to_global (Store.get_copy d 1)
    = Store.to_global (Store.get_copy solo_d 1));
  Alcotest.(check bool) "counters = solo replay" true (scrub m = scrub solo_m)

(* A [Planned] request whose destination buffers are empty makes
   [Buf.copy_run] raise before any write.  Exactly that request fails:
   its [await] re-raises, the sole worker keeps serving, and its
   tenant's later requests and the other tenant equal their solo
   replays. *)
let test_raising_request_fails_alone () =
  let ls = Lazy.force layouts and rounds = 2 in
  let svc = Serve.create ~tenants:2 ~workers:1 ~fusion:false () in
  let stream i () =
    tenant_stream ~executor:(Serve.executor svc ~tenant:i)
      ~plans:(Serve.tenant_cache svc i) ~rounds ()
  in
  let other = Domain.spawn (stream 1) in
  let faulty () =
    let m = Machine.create ~nprocs () in
    let s = Store.create m in
    let d = Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:2 () in
    Store.alloc s d 0 ls.(0);
    Store.alloc s d 1 ls.(1);
    let ep v = Store.endpoint_of_copy (Store.get_copy d v) and empty = Buf.create 0 in
    Serve.executor svc ~tenant:0 m ~src:(ep 0)
      ~dst:{ (ep 1) with Comm.buffer = (fun ~rank:_ -> empty) }
      (Redist.plan_intervals ~src:ls.(0) ~dst:ls.(1))
  in
  Alcotest.check_raises "the failed request's await raises"
    (Invalid_argument "Buf.copy_run") faulty;
  let served = [ stream 0 (); Domain.join other ] in
  let stats = Serve.shutdown svc in
  List.iter
    (fun (m, data) ->
      let solo_m, solo_data =
        tenant_stream ~plans:(Redist.Plan_cache.create ()) ~rounds ()
      in
      Alcotest.(check bool) "data = solo replay" true (data = solo_data);
      Alcotest.(check bool) "counters = solo replay" true
        (scrub m = scrub solo_m))
    served;
  Alcotest.(check int) "every other request completed"
    (2 * rounds * Array.length ls) stats.Serve.requests

(* A raising member inside a fused batch: two tenants' [Planned]
   requests carry one plan object, so the paused service fuses them,
   and the second member's destination buffers are empty, so
   [Buf.copy_run] raises inside the fused walk.  Every batch-mate fails
   with it and each client's [await] re-raises; the worker and both
   tenants carry on, their later requests equal their solo replays, and
   the fused ledger still equals the sum of the tenants'
   [fused_remaps]. *)
let test_raising_member_fails_its_batch () =
  let ls = Lazy.force layouts and rounds = 1 in
  let svc = Serve.create ~tenants:2 ~workers:1 ~paused:true () in
  let plan = Redist.plan_intervals ~src:ls.(0) ~dst:ls.(1) in
  let submit ~faulty tenant =
    let m = Machine.create ~nprocs () in
    let s = Store.create m in
    let d =
      Store.add_descriptor s ~name:"a" ~extents:[| nelems |] ~nb_versions:2 ()
    in
    Store.alloc s d 0 ls.(0);
    Store.alloc s d 1 ls.(1);
    let ep v = Store.endpoint_of_copy (Store.get_copy d v) in
    let dst_ep =
      if faulty then
        let empty = Buf.create 0 in
        { (ep 1) with Comm.buffer = (fun ~rank:_ -> empty) }
      else ep 1
    in
    let req =
      Request.make ~tenant
        (Request.Planned { mach = m; src_ep = ep 0; dst_ep; plan })
    in
    Serve.enqueue svc req;
    (m, req)
  in
  let batch = [ submit ~faulty:false 0; submit ~faulty:true 1 ] in
  Serve.resume svc;
  List.iteri
    (fun i ((m : Machine.t), req) ->
      Alcotest.check_raises
        (Printf.sprintf "tenant %d's await re-raises" i)
        (Invalid_argument "Buf.copy_run")
        (fun () -> Serve.await svc req);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d's request failed" i)
        true
        (match req.Request.state with Request.Failed _ -> true | _ -> false);
      Alcotest.(check bool)
        (Printf.sprintf "tenant %d's request was fused" i)
        true req.Request.fused;
      Alcotest.(check int)
        (Printf.sprintf "tenant %d charged one fused remap" i)
        1 m.Machine.counters.Machine.fused_remaps)
    batch;
  let stream i () =
    tenant_stream ~executor:(Serve.executor svc ~tenant:i)
      ~plans:(Serve.tenant_cache svc i) ~rounds ()
  in
  let other = Domain.spawn (stream 1) in
  let served = [ stream 0 (); Domain.join other ] in
  let stats = Serve.shutdown svc in
  List.iter
    (fun (m, data) ->
      let solo_m, solo_data =
        tenant_stream ~plans:(Redist.Plan_cache.create ()) ~rounds ()
      in
      Alcotest.(check bool) "later data = solo replay" true (data = solo_data);
      Alcotest.(check bool) "later counters = solo replay" true
        (scrub m = scrub solo_m))
    served;
  Alcotest.(check int) "every later request completed"
    (2 * rounds * Array.length ls) stats.Serve.requests;
  Alcotest.(check int) "fused ledger = sum of tenant fused_remaps"
    (List.fold_left
       (fun acc (m : Machine.t) ->
         acc + m.Machine.counters.Machine.fused_remaps)
       0
       (List.map fst batch @ List.map fst served))
    stats.Serve.fused_members

let suite =
  [
    Alcotest.test_case "shard count policy" `Quick test_shard_defaults;
    Alcotest.test_case "parallel hit/miss conservation, construction dedup"
      `Quick test_parallel_conservation;
    Alcotest.test_case "parallel eviction-counter consistency" `Quick
      test_parallel_eviction_consistency;
    Alcotest.test_case "intrusive-list LRU exactness" `Quick test_lru_exactness;
    Alcotest.test_case "two-level tenant-over-shared accounting" `Quick
      test_two_level_sharing;
    Alcotest.test_case "bounded queue ring" `Quick test_bqueue;
    Alcotest.test_case "deficit round robin rotation" `Quick
      test_drr_round_robin;
    Alcotest.test_case "deficit round robin fairness invariant" `Quick
      test_drr_fairness_invariant;
    Alcotest.test_case "fusion groups same physical plan" `Quick
      test_fusion_same_plan_groups;
    Alcotest.test_case "fusion overlays disjoint footprints" `Quick
      test_fusion_disjoint_footprints_merge;
    Alcotest.test_case "fusion footprint includes local moves" `Quick
      test_fusion_footprint_includes_locals;
    Alcotest.test_case "execute_fused = solo execute per member" `Quick
      test_execute_fused_equals_solo;
    Alcotest.test_case "tenant isolation under fusion" `Quick
      test_isolation_fused;
    Alcotest.test_case "tenant isolation without fusion" `Quick
      test_isolation_no_fusion;
    Alcotest.test_case "tenant isolation under LRU eviction races" `Quick
      test_isolation_eviction_race;
    Alcotest.test_case "staged compatible remaps fuse deterministically" `Quick
      test_service_fuses_when_staged;
    Alcotest.test_case "submit_remap replays copy_version bracketing" `Quick
      test_submit_remap_bracketing;
    Alcotest.test_case "submit_remap rejects a bad request at submit" `Quick
      test_submit_remap_rejects_bad_request;
    Alcotest.test_case "a raising request fails alone" `Quick
      test_raising_request_fails_alone;
    Alcotest.test_case "a raising member fails its fused batch" `Quick
      test_raising_member_fails_its_batch;
    Alcotest.test_case "tenants with different configurations stay isolated"
      `Quick test_mixed_configs_isolated;
    Alcotest.test_case "fusion never mixes configurations" `Quick
      test_fusion_never_mixes_configs;
  ]
