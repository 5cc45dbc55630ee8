(* Output checks for the runtime workloads.

   Every source copy is filled with its element's global linear index, a
   closed form, so the expected value of any element of any copy is known
   without consulting the code under test.  Before an op a seeded sample
   of destination positions is poisoned; after it those positions must
   hold their index again.  When the run ends every element of every copy
   that was ever written is compared against the closed form. *)

open Hpfc_runtime

let poison_value = -1.0

(* Row-major index vector of a global linear position. *)
let index_of_linear extents k =
  let r = Array.length extents in
  let idx = Array.make r 0 in
  let k = ref k in
  for d = r - 1 downto 0 do
    idx.(d) <- !k mod extents.(d);
    k := !k / extents.(d)
  done;
  idx

let nb_elements extents = Array.fold_left ( * ) 1 extents

(* A checked array: its descriptor and which versions hold data. *)
type arr = { d : Store.descriptor; written : bool array }

(* Register an array with one preallocated version per layout, version
   0 current and filled with the closed form. *)
let add_array store ~name ~extents layouts =
  let nv = List.length layouts in
  let d = Store.add_descriptor store ~name ~extents ~nb_versions:nv () in
  List.iteri (fun v l -> Store.alloc store d v l) layouts;
  d.Store.status <- Some 0;
  Store.set_live store d 0 true;
  Store.fill_copy (Store.get_copy d 0) float_of_int;
  let written = Array.make nv false in
  written.(0) <- true;
  { d; written }

(* Make [dst] the current version after a remap into it. *)
let remapped a dst =
  a.d.Store.status <- Some dst;
  a.written.(dst) <- true

(* Poison [samples] seeded positions of [c]; returns them. *)
let poison rng (c : Store.copy) ~samples =
  let extents = c.Store.layout.Hpfc_mapping.Layout.extents in
  let n = nb_elements extents in
  Array.init samples (fun _ ->
      let k = Random.State.int rng n in
      Store.copy_set c (index_of_linear extents k) poison_value;
      k)

(* Do the sampled positions hold their closed-form value? *)
let verify (c : Store.copy) positions =
  let extents = c.Store.layout.Hpfc_mapping.Layout.extents in
  Array.for_all
    (fun k -> Store.copy_get c (index_of_linear extents k) = float_of_int k)
    positions

(* Does every element of every version that ever held data hold its
   closed-form value? *)
let verify_all a =
  let ok = ref true in
  Array.iteri
    (fun v w ->
      if w then
        Array.iteri
          (fun i x -> if x <> float_of_int i then ok := false)
          (Store.to_global (Store.get_copy a.d v)))
    a.written;
  !ok
