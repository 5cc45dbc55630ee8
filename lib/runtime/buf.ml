(* Payload buffers: one C-layout float64 Bigarray.Array1 type shared by
   store payloads and communication endpoints.  Flat and unboxed, so
   segment copies are memcpy/memmove and sub-views alias without
   copying — the representation zero-copy interop (mmap, C, devices)
   needs. *)

module A1 = Bigarray.Array1

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) A1.t

(* Bigarrays start uninitialized; payloads must read as zeros. *)
let create n : t =
  let b = A1.create Bigarray.float64 Bigarray.c_layout (Int.max 0 n) in
  A1.fill b 0.0;
  b

let length (t : t) = A1.dim t
let get (t : t) i = A1.get t i
let set (t : t) i v = A1.set t i v
let fill (t : t) v = A1.fill t v
let sub (t : t) pos len : t = A1.sub t pos len

(* The run-copy kernel (buf_stubs.c): every segment of a run in one C
   call that allocates nothing and cannot raise, so the bounds are
   checked here, once per run. *)
external copy_run_unchecked :
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  t ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  unit = "hpfc_buf_copy_run_byte" "hpfc_buf_copy_run"
[@@noalloc]

(* Do [count] segments of [len] elements, the i-th at [pos + i * stride],
   all lie inside [0, dim)?  Positions are linear in i, so the first and
   last segments bound the rest; the stride and count guards keep the
   last position's arithmetic far from overflow.  Int-only comparisons:
   a polymorphic [min]/[max] here would be a C call per run. *)
let run_in_bounds dim pos stride ~len ~count =
  let n = count - 1 in
  pos >= 0
  && pos <= dim - len
  && (n = 0 || stride = 0
     || n <= dim && stride <= dim && stride >= -dim
        &&
        let last = pos + (n * stride) in
        last >= 0 && last <= dim - len)

let copy_run (src : t) spos sstride (dst : t) dpos dstride ~len ~count =
  if len > 0 && count > 0 then
    if
      run_in_bounds (A1.dim src) spos sstride ~len ~count
      && run_in_bounds (A1.dim dst) dpos dstride ~len ~count
    then copy_run_unchecked src spos sstride dst dpos dstride len count
    else invalid_arg "Buf.copy_run"
  else if len < 0 || count < 0 then invalid_arg "Buf.copy_run"

let of_array (a : float array) : t =
  A1.of_array Bigarray.float64 Bigarray.c_layout a

let to_array (t : t) = Array.init (length t) (A1.get t)
