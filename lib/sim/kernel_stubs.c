/* The compiled replay kernel's two accounting primitives: the per-step
   counter pass ([hlp_kernel_account], at the end of this file) and the
   lane-major charge accumulation below.

   [Kernel.accumulate_lanes ls deltas caps n] folds node [k]'s capacitance
   [caps[k]] into every lane accumulator [ls[l]] whose bit is set in the
   delta word [deltas[k]], for k = 0 .. n-1 in order. The contract that
   makes this a C primitive worth having (see kernel.ml): each lane's
   accumulator is a chronologically ordered IEEE-754 double sum, so the
   adds cannot be reassociated — but the 63 lanes are independent chains
   that can run interleaved, with the accumulators held in registers for
   the whole sweep. OCaml (without flambda) spills float loop carries to
   memory, which makes the scatter walk and this loop equally
   memory-bound; in C the sweep is float-throughput-bound instead.

   Bit-identity with Bitsim.scan_lanes (the differential wall in
   test/test_kernel.ml asserts it): when bit l of the delta is set the
   term added is exactly [caps[k]] (a bitwise AND with an all-ones mask,
   or [c * 1.0] in the scalar path — exact); when clear the term is +0.0,
   and [x + +0.0] is bit-exact for every x these accumulators can hold
   (the caller proves the caps finite and non-negative at compile time,
   so no lane sum is ever -0.0, an infinity, or a NaN). No fused
   multiply-add, no reassociation: plain adds in program order per lane,
   which is the same per-lane order the scatter walk produces because the
   node order is the same for every lane.

   The AVX2 path is runtime-dispatched (__builtin_cpu_supports), so the
   library builds and runs on any x86-64 without special flags; other
   architectures and non-GNU compilers take the portable scalar path.
   Packed vaddpd is per-lane IEEE double addition, so the SIMD path
   computes the same bits as the scalar one. */

#include <caml/mlvalues.h>
#include <stdint.h>
#include <string.h>

#define LANES 63 /* Bitsim.lanes: one OCaml int of payload per node */

/* c when bit = 1, +0.0 when bit = 0: mask the payload bits, no branch,
   no int-to-float conversion, no multiply */
static inline double mask_sel(double c, long bit)
{
  uint64_t cb;
  memcpy(&cb, &c, 8);
  cb &= (uint64_t)(-bit);
  double r;
  memcpy(&r, &cb, 8);
  return r;
}

static void scalar_accumulate(double *ls, value *deltas, double *caps, long n)
{
  long t = 0;
  while (t < LANES) {
    if (t + 8 <= LANES) {
      double a0 = ls[t], a1 = ls[t + 1], a2 = ls[t + 2], a3 = ls[t + 3];
      double a4 = ls[t + 4], a5 = ls[t + 5], a6 = ls[t + 6], a7 = ls[t + 7];
      for (long k = 0; k < n; k++) {
        long d = Long_val(deltas[k]);
        double c = caps[k];
        a0 += mask_sel(c, (d >> t) & 1);
        a1 += mask_sel(c, (d >> (t + 1)) & 1);
        a2 += mask_sel(c, (d >> (t + 2)) & 1);
        a3 += mask_sel(c, (d >> (t + 3)) & 1);
        a4 += mask_sel(c, (d >> (t + 4)) & 1);
        a5 += mask_sel(c, (d >> (t + 5)) & 1);
        a6 += mask_sel(c, (d >> (t + 6)) & 1);
        a7 += mask_sel(c, (d >> (t + 7)) & 1);
      }
      ls[t] = a0;
      ls[t + 1] = a1;
      ls[t + 2] = a2;
      ls[t + 3] = a3;
      ls[t + 4] = a4;
      ls[t + 5] = a5;
      ls[t + 6] = a6;
      ls[t + 7] = a7;
      t += 8;
    } else {
      /* the last 7 lanes, one interleaved chain each */
      double a0 = ls[t], a1 = ls[t + 1], a2 = ls[t + 2], a3 = ls[t + 3];
      double a4 = ls[t + 4], a5 = ls[t + 5], a6 = ls[t + 6];
      for (long k = 0; k < n; k++) {
        long d = Long_val(deltas[k]);
        double c = caps[k];
        a0 += mask_sel(c, (d >> t) & 1);
        a1 += mask_sel(c, (d >> (t + 1)) & 1);
        a2 += mask_sel(c, (d >> (t + 2)) & 1);
        a3 += mask_sel(c, (d >> (t + 3)) & 1);
        a4 += mask_sel(c, (d >> (t + 4)) & 1);
        a5 += mask_sel(c, (d >> (t + 5)) & 1);
        a6 += mask_sel(c, (d >> (t + 6)) & 1);
      }
      ls[t] = a0;
      ls[t + 1] = a1;
      ls[t + 2] = a2;
      ls[t + 3] = a3;
      ls[t + 4] = a4;
      ls[t + 5] = a5;
      ls[t + 6] = a6;
      t += 7;
    }
  }
}

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>

/* 63 lanes = three 16-lane sweeps + one 12-lane sweep + 3 scalar lanes.
   Per node and ymm group: broadcast the delta word, AND with the group's
   bit masks, compare-equal to build an all-ones/zero lane mask, AND with
   the broadcast capacitance, packed add. Four accumulator registers per
   sweep hide the 4-cycle add latency. */
__attribute__((target("avx2"))) static void
avx2_accumulate(double *ls, value *deltas, double *caps, long n)
{
  for (long t = 0; t + 16 <= LANES; t += 16) {
    __m256d a0 = _mm256_loadu_pd(ls + t);
    __m256d a1 = _mm256_loadu_pd(ls + t + 4);
    __m256d a2 = _mm256_loadu_pd(ls + t + 8);
    __m256d a3 = _mm256_loadu_pd(ls + t + 12);
    __m256i b0 = _mm256_set_epi64x(1L << (t + 3), 1L << (t + 2),
                                   1L << (t + 1), 1L << t);
    __m256i b1 = _mm256_slli_epi64(b0, 4);
    __m256i b2 = _mm256_slli_epi64(b0, 8);
    __m256i b3 = _mm256_slli_epi64(b0, 12);
    for (long k = 0; k < n; k++) {
      __m256i d = _mm256_set1_epi64x(Long_val(deltas[k]));
      __m256d c = _mm256_broadcast_sd(caps + k);
      __m256d m0 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b0), b0));
      __m256d m1 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b1), b1));
      __m256d m2 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b2), b2));
      __m256d m3 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b3), b3));
      a0 = _mm256_add_pd(a0, _mm256_and_pd(m0, c));
      a1 = _mm256_add_pd(a1, _mm256_and_pd(m1, c));
      a2 = _mm256_add_pd(a2, _mm256_and_pd(m2, c));
      a3 = _mm256_add_pd(a3, _mm256_and_pd(m3, c));
    }
    _mm256_storeu_pd(ls + t, a0);
    _mm256_storeu_pd(ls + t + 4, a1);
    _mm256_storeu_pd(ls + t + 8, a2);
    _mm256_storeu_pd(ls + t + 12, a3);
  }
  {
    const long t = 48;
    __m256d a0 = _mm256_loadu_pd(ls + t);
    __m256d a1 = _mm256_loadu_pd(ls + t + 4);
    __m256d a2 = _mm256_loadu_pd(ls + t + 8);
    __m256i b0 = _mm256_set_epi64x(1L << (t + 3), 1L << (t + 2),
                                   1L << (t + 1), 1L << t);
    __m256i b1 = _mm256_slli_epi64(b0, 4);
    __m256i b2 = _mm256_slli_epi64(b0, 8);
    for (long k = 0; k < n; k++) {
      __m256i d = _mm256_set1_epi64x(Long_val(deltas[k]));
      __m256d c = _mm256_broadcast_sd(caps + k);
      __m256d m0 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b0), b0));
      __m256d m1 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b1), b1));
      __m256d m2 = _mm256_castsi256_pd(
          _mm256_cmpeq_epi64(_mm256_and_si256(d, b2), b2));
      a0 = _mm256_add_pd(a0, _mm256_and_pd(m0, c));
      a1 = _mm256_add_pd(a1, _mm256_and_pd(m1, c));
      a2 = _mm256_add_pd(a2, _mm256_and_pd(m2, c));
    }
    _mm256_storeu_pd(ls + t, a0);
    _mm256_storeu_pd(ls + t + 4, a1);
    _mm256_storeu_pd(ls + t + 8, a2);
  }
  {
    double a0 = ls[60], a1 = ls[61], a2 = ls[62];
    for (long k = 0; k < n; k++) {
      long d = Long_val(deltas[k]);
      double c = caps[k];
      a0 += mask_sel(c, (d >> 60) & 1);
      a1 += mask_sel(c, (d >> 61) & 1);
      a2 += mask_sel(c, (d >> 62) & 1);
    }
    ls[60] = a0;
    ls[61] = a1;
    ls[62] = a2;
  }
}

CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  static int have_avx2 = -1;
  if (have_avx2 < 0) have_avx2 = __builtin_cpu_supports("avx2");
  if (have_avx2)
    avx2_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                    Long_val(vn));
  else
    scalar_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                      Long_val(vn));
  return Val_unit;
}
#else
CAMLprim value hlp_kernel_accumulate_lanes(value vls, value vdeltas,
                                           value vcaps, value vn)
{
  scalar_accumulate((double *)vls, Op_val(vdeltas), (double *)vcaps,
                    Long_val(vn));
  return Val_unit;
}
#endif

/* Per-step counter pass for the compiled replay kernel.

   [Kernel.account order old nw deltas toggles highs portable] walks the
   accounting order once: for k = 0 .. n-1 and i = order[k] it writes the
   delta word deltas[k] = old[i] xor nw[i], adds popcount(deltas[k]) to
   toggles[i] and popcount(nw[i]) to highs[i], and returns the number of
   nonzero deltas. It replaces two OCaml passes of table popcounts (four
   loads per call from a 64 KiB table, larger than L1) with one pass of
   hardware popcounts.

   Everything stays in OCaml's tagged representation, which also does the
   masking to 63 lanes: ints x and y are stored as 2x+1 and 2y+1, so
   (2x+1) xor (2y+1) = 2(x xor y) holds exactly the 63 payload bits of the
   delta with a clear tag bit — its 64-bit popcount is the lane count, and
   or-ing the tag back gives the tagged delta. A high count is
   popcount(2y+1) - 1, and a counter stored as 2c+1 grows by p when 2p is
   added. No branch: a zero delta adds zero.

   The caller (Kernel.step) passes arrays whose bounds the plan's
   construction-time proof covers: order is a permutation of 0 .. n-1 and
   every other array has length n. Integer stores into an OCaml int array
   need no write barrier, and nothing here allocates or calls back into
   the runtime, so the [@@noalloc] mark is sound.

   The popcnt instruction is runtime-dispatched (__builtin_cpu_supports,
   as for AVX2 above): a CPU without it would die with SIGILL on an
   unconditional popcnt. Every other machine, and any caller that asks
   for it with [portable], takes the portable SWAR popcount. */

static inline long swar_popcount(uint64_t x)
{
  x = x - ((x >> 1) & 0x5555555555555555ULL);
  x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
  x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
  return (long)((x * 0x0101010101010101ULL) >> 56);
}

#define ACCOUNT_BODY(POP)                                                  \
  long nz = 0;                                                             \
  for (long k = 0; k < n; k++) {                                           \
    long i = Long_val(order[k]);                                           \
    uint64_t d = (uint64_t)old[i] ^ (uint64_t)nw[i];                       \
    deltas[k] = (value)(d | 1);                                            \
    toggles[i] += (value)(2 * POP(d));                                     \
    highs[i] += (value)(2 * (POP((uint64_t)nw[i]) - 1));                   \
    nz += d != 0;                                                          \
  }                                                                        \
  return nz;

static long portable_account(const value *order, const value *old,
                             const value *nw, value *deltas, value *toggles,
                             value *highs, long n)
{
  ACCOUNT_BODY(swar_popcount)
}

#if defined(__x86_64__) && defined(__GNUC__)
__attribute__((target("popcnt"))) static long
popcnt_account(const value *order, const value *old, const value *nw,
               value *deltas, value *toggles, value *highs, long n)
{
  ACCOUNT_BODY((long)__builtin_popcountll)
}
#endif

CAMLprim value hlp_kernel_account(value vorder, value vold, value vnw,
                                  value vdeltas, value vtoggles,
                                  value vhighs, value vportable)
{
  long n = (long)Wosize_val(vorder);
#if defined(__x86_64__) && defined(__GNUC__)
  static int have_popcnt = -1;
  if (have_popcnt < 0) have_popcnt = __builtin_cpu_supports("popcnt");
  if (have_popcnt && !Bool_val(vportable))
    return Val_long(popcnt_account(Op_val(vorder), Op_val(vold), Op_val(vnw),
                                   Op_val(vdeltas), Op_val(vtoggles),
                                   Op_val(vhighs), n));
#endif
  (void)vportable;
  return Val_long(portable_account(Op_val(vorder), Op_val(vold), Op_val(vnw),
                                   Op_val(vdeltas), Op_val(vtoggles),
                                   Op_val(vhighs), n));
}

CAMLprim value hlp_kernel_account_byte(value *argv, int argn)
{
  (void)argn;
  return hlp_kernel_account(argv[0], argv[1], argv[2], argv[3], argv[4],
                            argv[5], argv[6]);
}
