(* Remap fusion policy: which queued remaps may share one fused step
   walk ([Comm.execute_fused]).

   Two remaps are compatible when they run the *same plan object* —
   tenants remapping between one canonical layout pair share the plan
   physically through the two-level cache, so equality is pointer
   identity — or when their plans touch disjoint rank footprints
   (senders, receivers and local ranks), in which case overlaying their
   step programs index by index keeps every fused step contention-free:
   no rank gains a second send or receive it would not have had solo.

   Only members whose machines agree on the datapath and the lowering
   ever share a batch: a fused walk moves every member's data one way
   and lowers each group once, so mixing configurations would run a
   tenant under another tenant's.  Members first split into
   configuration classes (order of first appearance).

   Within a class the grouping is greedy and order-preserving: members
   collapse into per-plan groups, then groups fold left-to-right into
   the first batch whose accumulated footprint they do not intersect.
   Each returned batch is one [Comm.execute_fused] call; a batch with
   >= 2 members total is a fusion (charged to [fused_remaps] by the
   service loop). *)

open Hpfc_runtime

module Iset = Set.Make (Int)

(* Every rank a plan occupies: senders and receivers of its messages,
   plus the ranks of its on-processor moves. *)
let footprint (p : Redist.plan) =
  List.fold_left
    (fun acc (m : Redist.message) ->
      Iset.add m.Redist.m_from (Iset.add m.Redist.m_to acc))
    Iset.empty
    (p.Redist.moves @ p.Redist.locals)

(* Partition (plan, member) pairs of one configuration class into
   batches of groups: [batches ps = [batch; ...]] where each batch
   is a list of [(plan, members)] groups fusable together.  Order of
   members within a group and of groups within a batch follows
   submission order. *)
let batches (pairs : (Redist.plan * 'a) list) :
    (Redist.plan * 'a list) list list =
  (* 1. group by physical plan *)
  let groups = ref [] in
  List.iter
    (fun (p, x) ->
      match List.find_opt (fun (q, _) -> q == p) !groups with
      | Some (_, xs) -> xs := x :: !xs
      | None -> groups := !groups @ [ (p, ref [ x ]) ])
    pairs;
  let groups = List.map (fun (p, xs) -> (p, List.rev !xs)) !groups in
  (* 2. merge groups with pairwise disjoint rank footprints *)
  let batches = ref [] in
  List.iter
    (fun (p, xs) ->
      let fp = footprint p in
      let rec place = function
        | [] -> batches := !batches @ [ ref (fp, [ (p, xs) ]) ]
        | b :: rest ->
          let bfp, gs = !b in
          if Iset.disjoint fp bfp then b := (Iset.union fp bfp, (p, xs) :: gs)
          else place rest
      in
      place !batches)
    groups;
  List.map (fun b -> List.rev (snd !b)) !batches

(* [batches] per configuration class (a member's [machine] decides its
   class), classes in order of first appearance.  A batch whose members
   all share one configuration — the common case — goes to [batches]
   as it is. *)
let rec config_batches ~(machine : 'a -> Machine.t) = function
  | [] -> []
  | (_, x) :: _ as pairs ->
    let mx = machine x in
    let same_config (_, y) =
      let my = machine y in
      my.Machine.datapath = mx.Machine.datapath
      && my.Machine.lower = mx.Machine.lower
    in
    if List.for_all same_config pairs then batches pairs
    else
      let same, rest = List.partition same_config pairs in
      batches same @ config_batches ~machine rest
