/* The run-copy kernel behind [Buf.copy_run]: [count] segments of [len]
   doubles, segment i read at [spos + i * sstride] of [src] and written
   at [dpos + i * dstride] of [dst].  The OCaml side has already checked
   every segment against both buffers' bounds, so this code only moves
   memory: it allocates nothing on the OCaml heap, raises nothing and
   never calls back into the runtime ([@@noalloc], untagged ints).

   Overlap.  [src] and [dst] may be views of one block.  Each segment is
   a [memmove], and when the two runs' address ranges intersect the
   segments are walked away from the overlap: forward when the
   destination starts at or behind the source in the walk's direction,
   backward otherwise.  That is exactly memmove semantics for the runs
   the runtime produces in place (both sides advancing the same way,
   the trailing side no faster than the leading one). */

#include <stdint.h>
#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

CAMLprim value hpfc_buf_copy_run(value src, intnat spos, intnat sstride,
                                 value dst, intnat dpos, intnat dstride,
                                 intnat len, intnat count)
{
  double *s = (double *)Caml_ba_data_val(src) + spos;
  double *d = (double *)Caml_ba_data_val(dst) + dpos;
  size_t bytes = (size_t)len * sizeof(double);
  intnat i;
  if (len <= 0 || count <= 0) return Val_unit;
  if (count == 1) {
    memmove(d, s, bytes);
    return Val_unit;
  }
  {
    /* address hulls of the two runs, in bytes */
    double *s_last = s + (count - 1) * sstride;
    double *d_last = d + (count - 1) * dstride;
    uintptr_t s0 = (uintptr_t)s, s1 = (uintptr_t)s_last;
    uintptr_t d0 = (uintptr_t)d, d1 = (uintptr_t)d_last;
    uintptr_t s_lo = s0 < s1 ? s0 : s1, s_hi = (s0 < s1 ? s1 : s0) + bytes;
    uintptr_t d_lo = d0 < d1 ? d0 : d1, d_hi = (d0 < d1 ? d1 : d0) + bytes;
    int forward = 1;
    if (s_lo < d_hi && d_lo < s_hi) {
      intnat dir = sstride != 0 ? sstride : dstride;
      forward = dir >= 0 ? d0 <= s0 : d0 >= s0;
    }
    if (!forward) {
      s = s_last;
      d = d_last;
      sstride = -sstride;
      dstride = -dstride;
    }
    /* single-element segments (cyclic(1) runs) skip the call */
    if (len == 1)
      for (i = 0; i < count; i++, s += sstride, d += dstride) *d = *s;
    else
      for (i = 0; i < count; i++, s += sstride, d += dstride)
        memmove(d, s, bytes);
  }
  return Val_unit;
}

/* Bytecode entry point: more than five arguments arrive as an array of
   tagged values. */
CAMLprim value hpfc_buf_copy_run_byte(value *argv, int argn)
{
  (void)argn;
  return hpfc_buf_copy_run(argv[0], Long_val(argv[1]), Long_val(argv[2]),
                           argv[3], Long_val(argv[4]), Long_val(argv[5]),
                           Long_val(argv[6]), Long_val(argv[7]));
}
