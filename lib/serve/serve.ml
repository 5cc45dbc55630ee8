(* Multi-tenant remap service: N concurrent tenant streams of remap
   requests against one shared pool of worker domains.

   Architecture, one request's life:

     submit (tenant thread) --window--> per-tenant Bqueue
       --deficit-round-robin--> worker batch (<= 1 request per tenant,
       distinct tenants, busy tenants skipped so per-tenant execution
       stays serial FIFO)
       --plan lookup--> per-tenant Plan_cache over one shared sharded
       parent (tenant accounting identical to a solo run; construction
       deduplicated globally)
       --Fusion.batches--> Comm.execute_fused (same-plan members share
       the step walk and staging leases; disjoint-footprint plans
       overlay steps) --> completion broadcast, latency recorded.

   Correctness bar: for any interleaving, each tenant's final arrays and
   modeled counters are byte-identical to running its stream alone
   through the sequential executor.  The load-bearing facts:

   - per-tenant serialization: a tenant is [busy] from dispatch to
     completion, and batches take at most its queue head, so its
     requests execute one at a time in submission order;
   - solo-identical accounting: [Comm.execute_fused] replays, per
     member, the exact event stream and charges of the sequential
     [Comm.execute], and the [Remap] flavor replays
     [Store.copy_version]'s bracketing around it; the tenant plan cache
     has solo semantics (capacity, LRU order, hit/miss/eviction
     counters) because parent chaining only changes who *constructs* a
     plan, never whether the tenant's lookup hits;
   - a tenant and its solo run share every configuration axis, so they
     agree on every [Modeled] counter of the declaration
     ([Machine.rebuild]); only the other classes may move;
   - cross-domain safety: plans travel between workers only through the
     shard-atomic snapshots of the cache (safe publication of the plan,
     its precompiled step program, and any datapath memos, which are
     themselves atomic).

   Workers own a private staging pool each ([Comm.Pool] is not
   thread-safe); tenant machines are only ever touched by the worker
   currently serving that tenant, or by the tenant thread between
   requests — never both, thanks to the busy flag and the completion
   synchronization. *)

open Hpfc_runtime

type config = {
  tenants : int;
  window : int;  (* per-tenant in-flight bound (queue capacity) *)
  batch : int;  (* max members dispatched into one fused batch *)
  quantum : int;  (* deficit-round-robin refill per round *)
  workers : int;
  fusion : bool;  (* false: every member executes as its own batch *)
}

type tenant_state = {
  queue : Request.t Bqueue.t;
  cache : Redist.Plan_cache.t;  (* per-tenant, chained to [shared] *)
  mutable busy : bool;  (* a worker is executing this tenant's head *)
}

type stats = {
  requests : int;  (* completed requests *)
  batches : int;  (* execute calls, fused or singleton *)
  fused_batches : int;  (* batches with >= 2 members *)
  fused_members : int;  (* members of such batches = sum of fused_remaps *)
  latencies : float array;  (* per-request submit-to-completion seconds *)
}

type t = {
  cfg : config;
  lock : Mutex.t;
  work : Condition.t;  (* new request, freed tenant, or shutdown *)
  room : Condition.t;  (* a tenant queue freed a slot *)
  completion : Condition.t;  (* requests transitioned to [Done] *)
  tenants : tenant_state array;
  shared : Redist.Plan_cache.t;  (* construction-dedup parent *)
  adm : Admission.t;
  mutable stopping : bool;
  mutable paused : bool;  (* workers stall until [resume] *)
  mutable domains : unit Domain.t list;
  (* stats, under [lock] *)
  mutable n_requests : int;
  mutable n_batches : int;
  mutable n_fused_batches : int;
  mutable n_fused_members : int;
  mutable lat : float list;
}

(* A dispatched batch member: the request joined with its resolved plan
   and endpoints, plus the modeled-clock bracket of the [Remap] flavor. *)
type member = {
  req : Request.t;
  mach : Machine.t;
  src_ep : Comm.endpoint;
  dst_ep : Comm.endpoint;
  plan : Redist.plan;
  bracket : (string * int * int * float) option;
      (* (array, src, dst, t0): close with remaps_performed + Remap_end *)
}

let tenant_cache t tenant = t.tenants.(tenant).cache
let shared_cache t = t.shared

(* --- dispatch (under t.lock) ------------------------------------------------ *)

(* Pop up to [cfg.batch] queue heads from distinct idle backlogged
   tenants, fairness-ordered, marking them busy. *)
let take_batch t =
  let taken = ref [] in
  let in_batch = Array.make t.cfg.tenants false in
  let ready i =
    (not in_batch.(i))
    && (not t.tenants.(i).busy)
    && not (Bqueue.is_empty t.tenants.(i).queue)
  in
  let rec go k =
    if k < t.cfg.batch then
      match Admission.next t.adm ~ready with
      | None -> ()
      | Some i ->
        let ts = t.tenants.(i) in
        let req = Bqueue.pop ts.queue in
        ts.busy <- true;
        in_batch.(i) <- true;
        req.Request.state <- Request.Running;
        taken := req :: !taken;
        (* a queue slot freed: unblock submitters in that window *)
        Condition.broadcast t.room;
        go (k + 1)
  in
  go 0;
  List.rev !taken

(* --- execution (outside t.lock) --------------------------------------------- *)

(* Resolve a request into an executable member.  The [Remap] flavor
   opens [Store.copy_version]'s bracket here: Remap_begin, then the plan
   lookup through the *tenant* cache (hit/miss/eviction counters and the
   Plan_lookup event land on the tenant machine exactly as solo), then
   the modeled-clock stamp. *)
let resolve t (req : Request.t) =
  match req.Request.payload with
  | Request.Planned { mach; src_ep; dst_ep; plan } ->
    { req; mach; src_ep; dst_ep; plan; bracket = None }
  | Request.Remap { store; array; src; dst } ->
    let mach = store.Store.machine in
    let d = Store.descriptor store array in
    Machine.record mach
      (Machine.Remap_begin { array; src = Some src; dst });
    let sl = (Store.get_copy d src).Store.layout
    and dl = (Store.get_copy d dst).Store.layout in
    let cache = t.tenants.(req.Request.tenant).cache in
    let plan =
      Redist.Plan_cache.find cache ~machine:mach ~src:sl ~dst:dl (fun () ->
          Redist.plan_intervals ~src:sl ~dst:dl)
    in
    let t0 = mach.Machine.counters.Machine.time in
    {
      req;
      mach;
      src_ep = Store.endpoint_of_copy (Store.get_copy d src);
      dst_ep = Store.endpoint_of_copy (Store.get_copy d dst);
      plan;
      bracket = Some (array, src, dst, t0);
    }

(* A request that raised [e] while resolving or executing fails alone
   (or with its fused batch): the worker that owns it marks it and
   keeps serving. *)
let fail (req : Request.t) e = req.Request.state <- Request.Failed e

(* Close the [Remap] flavor's bracket exactly as [Store.copy_version]
   does after the executor returns. *)
let close_bracket (m : member) =
  match m.bracket with
  | None -> ()
  | Some (array, src, dst, t0) ->
    let c = m.mach.Machine.counters in
    c.Machine.remaps_performed <- c.Machine.remaps_performed + 1;
    Machine.record m.mach
      (Machine.Remap_end
         {
           array;
           src = Some src;
           dst;
           volume = Redist.total_moved m.plan;
           time = c.Machine.time -. t0;
         })

(* Execute one dispatched batch: fuse, run, close brackets.  Members of
   a >= 2-member fused batch get [fused_remaps] charged; a singleton
   batch runs through the same fused walk, which degenerates to the
   sequential [Comm.execute].  A raising [Comm.execute_fused] call fails
   exactly its members, their brackets left open as a raising
   [Comm.execute] leaves [Store.copy_version]'s.
   The fused walk lowers each group the way [Comm.execute] would solo
   (step or phase program), so collective-lowered members fuse like any
   other; fusion only ever batches members whose machines agree on the
   lowering. *)
let run_batch t pool (members : member list) =
  let batches =
    if t.cfg.fusion then
      Fusion.config_batches
        ~machine:(fun m -> m.mach)
        (List.map (fun m -> (m.plan, m)) members)
    else List.map (fun m -> [ (m.plan, [ m ]) ]) members
  in
  let fused_batches = ref 0 and fused_members = ref 0 in
  List.iter
    (fun batch ->
      let size =
        List.fold_left (fun acc (_, ms) -> acc + List.length ms) 0 batch
      in
      if size >= 2 then begin
        incr fused_batches;
        fused_members := !fused_members + size;
        List.iter
          (fun (_, ms) ->
            List.iter
              (fun m ->
                m.req.Request.fused <- true;
                let c = m.mach.Machine.counters in
                c.Machine.fused_remaps <- c.Machine.fused_remaps + 1)
              ms)
          batch
      end;
      match
        Comm.execute_fused ~pool
          (List.map
             (fun (plan, ms) ->
               (plan, List.map (fun m -> (m.mach, m.src_ep, m.dst_ep)) ms))
             batch)
      with
      | () -> List.iter (fun (_, ms) -> List.iter close_bracket ms) batch
      | exception e ->
        List.iter (fun (_, ms) -> List.iter (fun m -> fail m.req e) ms) batch)
    batches;
  (List.length batches, !fused_batches, !fused_members)

(* --- worker loop ------------------------------------------------------------ *)

let rec worker_loop t pool =
  Mutex.lock t.lock;
  let rec next_batch () =
    if t.paused && not t.stopping then begin
      Condition.wait t.work t.lock;
      next_batch ()
    end
    else
      match take_batch t with
      | [] ->
        if
          t.stopping
          && Array.for_all (fun ts -> Bqueue.is_empty ts.queue) t.tenants
        then None
        else begin
          Condition.wait t.work t.lock;
          next_batch ()
        end
      | reqs -> Some reqs
  in
  match next_batch () with
  | None ->
    Mutex.unlock t.lock;
    (* wake siblings so they observe the drained queues and exit too *)
    Mutex.lock t.lock;
    Condition.broadcast t.work;
    Mutex.unlock t.lock
  | Some reqs ->
    Mutex.unlock t.lock;
    let members =
      List.filter_map
        (fun req ->
          match resolve t req with
          | m -> Some m
          | exception e -> fail req e; None)
        reqs
    in
    let batches, fused_b, fused_m = run_batch t pool members in
    let now = Unix.gettimeofday () in
    Mutex.lock t.lock;
    List.iter
      (fun (req : Request.t) ->
        (match req.Request.state with
        | Request.Failed _ -> ()
        | _ ->
          req.Request.completed <- now;
          req.Request.state <- Request.Done;
          t.n_requests <- t.n_requests + 1;
          t.lat <- Request.latency req :: t.lat);
        Atomic.set req.Request.finished true;
        t.tenants.(req.Request.tenant).busy <- false)
      reqs;
    t.n_batches <- t.n_batches + batches;
    t.n_fused_batches <- t.n_fused_batches + fused_b;
    t.n_fused_members <- t.n_fused_members + fused_m;
    Condition.broadcast t.completion;
    (* freed tenants may have queued heads for other workers *)
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    worker_loop t pool

(* --- lifecycle -------------------------------------------------------------- *)

let create ?(window = 8) ?batch ?(quantum = 1) ?workers ?(fusion = true)
    ?cache_capacity ?shards ?(paused = false) ~tenants () =
  if tenants < 1 then invalid_arg "Serve.create: tenants < 1";
  let workers =
    match workers with
    | Some w -> max 1 w
    | None -> max 1 (min tenants (Domain.recommended_domain_count () - 1))
  in
  let shared = Redist.Plan_cache.create ?capacity:cache_capacity ?shards () in
  let t =
    {
      cfg =
        {
          tenants;
          window = max 1 window;
          batch = (match batch with Some b -> max 1 b | None -> tenants);
          quantum = max 1 quantum;
          workers;
          fusion;
        };
      lock = Mutex.create ();
      work = Condition.create ();
      room = Condition.create ();
      completion = Condition.create ();
      tenants =
        Array.init tenants (fun _ ->
            {
              queue = Bqueue.create ~capacity:(max 1 window);
              cache =
                Redist.Plan_cache.create ?capacity:cache_capacity
                  ~parent:shared ();
              busy = false;
            });
      shared;
      adm = Admission.create ~tenants ~quantum:(max 1 quantum);
      stopping = false;
      paused;
      domains = [];
      n_requests = 0;
      n_batches = 0;
      n_fused_batches = 0;
      n_fused_members = 0;
      lat = [];
    }
  in
  t.domains <-
    List.init workers (fun _ ->
        Domain.spawn (fun () -> worker_loop t (Comm.Pool.create ())));
  t

let config t = t.cfg

(* Release workers created with [~paused:true].  Pausing lets a caller
   stage a full burst of requests before any worker can drain one, which
   makes batching (and so fusion) deterministic instead of a race
   against the worker domains. *)
let resume t =
  Mutex.lock t.lock;
  t.paused <- false;
  Condition.broadcast t.work;
  Mutex.unlock t.lock

(* Enqueue a request, blocking while the tenant's admission window is
   full.  Raises once the service is stopping. *)
let enqueue t (req : Request.t) =
  let ts = t.tenants.(req.Request.tenant) in
  Mutex.lock t.lock;
  while Bqueue.is_full ts.queue && not t.stopping do
    Condition.wait t.room t.lock
  done;
  if t.stopping then begin
    Mutex.unlock t.lock;
    invalid_arg "Serve: submit after shutdown"
  end;
  Bqueue.push ts.queue req;
  Condition.broadcast t.work;
  Mutex.unlock t.lock

(* A request naming a missing array or an unallocated version is
   refused here, in the client's thread, with the store's diagnosis: a
   worker domain meeting it in [resolve] would die and leave the
   client's [await] blocked for ever. *)
let submit_remap t ~tenant ~store ~array ~src ~dst =
  if tenant < 0 || tenant >= t.cfg.tenants then
    invalid_arg "Serve.submit_remap: bad tenant";
  let d = Store.descriptor store array in
  ignore (Store.get_copy d src : Store.copy);
  ignore (Store.get_copy d dst : Store.copy);
  let req = Request.make ~tenant (Request.Remap { store; array; src; dst }) in
  enqueue t req;
  req

(* How many times [await] polls the completion flag before it sleeps on
   the condition.  A fast remap completes within the spin, and the
   client then skips the lock and the condition-variable wake-up, which
   otherwise costs as much as the remap itself; a slow one costs the
   client tens of microseconds of polling before it sleeps. *)
let await_spins = 2000

let await t (req : Request.t) =
  let rec spin k =
    if Atomic.get req.Request.finished then true
    else if k = 0 then false
    else begin
      Domain.cpu_relax ();
      spin (k - 1)
    end
  in
  if not (spin await_spins) then begin
    Mutex.lock t.lock;
    while not (Atomic.get req.Request.finished) do
      Condition.wait t.completion t.lock
    done;
    Mutex.unlock t.lock
  end;
  match req.Request.state with Request.Failed e -> raise e | _ -> ()

(* A [Comm.executor] that routes every plan through the service as
   tenant [tenant]: installs into [Store.create ~executor] (with the
   tenant's cache as the store's [plans]) so a whole interpreted program
   becomes one tenant stream.  Blocks until the service has executed the
   plan; the submitting thread and the serving worker never touch the
   tenant machine concurrently. *)
let executor t ~tenant : Comm.executor =
 fun mach ~src ~dst plan ->
  let req =
    Request.make ~tenant (Request.Planned { mach; src_ep = src; dst_ep = dst; plan })
  in
  enqueue t req;
  await t req

let stats t =
  Mutex.lock t.lock;
  let s =
    {
      requests = t.n_requests;
      batches = t.n_batches;
      fused_batches = t.n_fused_batches;
      fused_members = t.n_fused_members;
      latencies = Array.of_list t.lat;
    }
  in
  Mutex.unlock t.lock;
  s

(* Drain every queued request, stop the workers, and return the final
   stats.  Safe to call once; submissions after (or racing) shutdown
   raise. *)
let shutdown t =
  Mutex.lock t.lock;
  t.stopping <- true;
  t.paused <- false;
  Condition.broadcast t.work;
  Condition.broadcast t.room;
  Mutex.unlock t.lock;
  List.iter Domain.join t.domains;
  t.domains <- [];
  stats t
