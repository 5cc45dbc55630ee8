(** Payload buffers: the one storage type every layer moves floats
    through — store payloads, communication endpoints, staging buffers
    and parallel-backend packets all carry [Buf.t].

    Backed by a C-layout float64 {!Bigarray.Array1}, so a buffer is a
    flat, unboxed, GC-pinned block: segment copies are [memmove]s,
    sub-views alias without copying, and the same representation is
    shareable with C, mmap'd files or device runtimes later.  The type is exposed (not abstract) so interop code can hand
    a raw bigarray straight to the runtime. *)

type t = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(** A zero-filled buffer of [max 0 n] elements (bigarrays start
    uninitialized; payload semantics require zeros). *)
val create : int -> t

val length : t -> int
val get : t -> int -> float
val set : t -> int -> float -> unit
val fill : t -> float -> unit

(** [sub t pos len] is an aliasing view of [t.(pos .. pos+len-1)] — no
    copy; writes through the view are visible in [t].  Two views of one
    block are distinct wrappers, so aliasing cannot be detected from
    them, which is why {!copy_run} compares addresses instead. *)
val sub : t -> int -> int -> t

(** [copy_run src spos sstride dst dpos dstride ~len ~count] copies
    [count] segments of [len] elements: segment [i] reads
    [src.(spos + i * sstride ..)] and writes [dst.(dpos + i * dstride ..)].
    This is the one kernel every compiled run of the datapath goes
    through — pack, unpack, direct and sliced copies alike.

    - Bounds are checked once per run, not per segment or element: if
      any segment falls outside its buffer (or [len] or [count] is
      negative) it raises [Invalid_argument] before writing anything.
      [len = 0] or [count = 0] copies nothing.
    - The copy itself is one C call that allocates nothing.
    - Strides may be zero or negative.  Over distinct storage segments
      are copied in order [i = 0, 1, ..], so overlapping destination
      segments keep the last write.
    - When [src] and [dst] share storage (the same buffer, or two
      {!sub} views of one block) and the runs' address ranges meet,
      each segment is a [memmove] and segments are walked away from the
      overlap.  The result is then exactly memmove semantics (as if
      every read preceded every write) whenever both runs advance in the
      same direction and the one that starts behind is no faster —
      contiguous shifts, equal strides, and the gather/scatter runs of
      an in-place copy between row-major and owner-local addressing. *)
val copy_run :
  t -> int -> int -> t -> int -> int -> len:int -> count:int -> unit

val of_array : float array -> t
val to_array : t -> float array
