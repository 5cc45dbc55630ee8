(* One tenant remap request, from submission to completion.

   Two flavors: [Remap] names a store-level copy by (array, src version,
   dst version) and the service replays [Store.copy_version]'s exact
   bracketing around the fused execution (Remap_begin, plan lookup
   through the tenant's cache, execute, remaps_performed,
   Remap_end) — the workload-replay and bench entry point.  [Planned]
   carries an already looked-up plan with its endpoints — the
   [Serve.executor] entry point, where the caller's own
   [Store.copy_version] does the bracketing and only the execution is
   delegated to the service.

   Requests are handed between the submitting tenant thread and the
   service workers under the service lock; the mutable fields are only
   ever written with that lock held (or before submission, or by the
   worker executing the request).  [finished]
   is set last, after every other write of the request's execution, so
   a client that reads it true (an atomic read, no lock) also sees
   [state], [completed] and the tenant's data and counters. *)

open Hpfc_runtime

type payload =
  | Remap of { store : Store.t; array : string; src : int; dst : int }
  | Planned of {
      mach : Machine.t;
      src_ep : Comm.endpoint;
      dst_ep : Comm.endpoint;
      plan : Redist.plan;
    }

(* [Failed e]: resolving or executing the request raised [e], and
   [Serve.await] re-raises it; a failed request has no [completed]. *)
type state = Queued | Running | Done | Failed of exn

type t = {
  tenant : int;
  payload : payload;
  submitted : float;  (* wall clock at submission *)
  mutable completed : float;  (* wall clock at completion; 0 until [Done] *)
  mutable state : state;
  mutable fused : bool;
      (* executed as a member of a fused batch of >= 2 remaps *)
  finished : bool Atomic.t;  (* the completion flag [Serve.await] reads *)
}

let make ~tenant payload =
  {
    tenant;
    payload;
    submitted = Unix.gettimeofday ();
    completed = 0.0;
    state = Queued;
    fused = false;
    finished = Atomic.make false;
  }

(* The machine this request's accounting lands on. *)
let machine t =
  match t.payload with
  | Remap { store; _ } -> store.Store.machine
  | Planned { mach; _ } -> mach

(* Post-to-completion latency in seconds (only meaningful once [Done]). *)
let latency t = t.completed -. t.submitted
