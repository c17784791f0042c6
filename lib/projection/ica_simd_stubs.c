/* Fused FastICA sweep: one cache-sized pass over the whitened data
   computes s = z wT, g = tanh s, the E[g'] accumulator and the Gram
   matrix gT z together, instead of the three full-matrix passes of the
   portable path (matmul_nt_into / tanh_into / matmul_tn_into).

   Compiled with -mavx2 -mfma; callers must gate on
   sider_ica_simd_available (ica_simd_probe.c).

   One register-tiled kernel serves every padded width.  Rows go in
   blocks of BLOCK_ROWS.  For each block it computes the scores of four
   rows at a time (eight independent FMA chains per pass over the
   features), runs tanh over the block column by column (independent
   polynomial chains, with the E[g'] lane sums carried across the
   block's rows in increasing order), and keeps the block's g in a small
   stack buffer.  It then sweeps gT z tile by tile: each 4x8 tile of gz
   is loaded into registers, takes one FMA per row of the block in
   increasing row order, and is stored back.

   Numeric contract: every score, g, E[g'] lane and gT z entry gets the
   same fused instructions on the same operands in the same order as a
   row-at-a-time kernel: scores as an FMA chain over the features from
   zero, E[g'] += fnmadd(g, g, 1) and gz += g z (fused) with rows in
   increasing order.  Blocking and tiling only change which entries are
   in flight together, so the result does not depend on them.  A test
   (test_par.ml, "ica sweep matches the model of its AVX2 arithmetic")
   replays this arithmetic in OCaml, one Float.fma per instruction, and
   compares bits at every width from 1 to 64.  The kernel is NOT
   bit-identical to the portable path: tanh is evaluated by a polynomial
   (max relative error ~1e-15 against libm, measured exhaustively over
   the argument distribution of the contrast function) and the row sums
   use fused multiply-adds.  Cross-domain determinism is owned by the
   OCaml side, which combines per-chunk partials over a chunk grid that
   is a pure function of n (see Ica_kernel).

   Layouts (all plain OCaml float arrays, i.e. flat double buffers):
     zp  : n x mpad, row i at i*mpad, columns >= m zero-padded
     wt  : m x mpad, wt[f*mpad + k] = w[k][f] (component k, feature f),
           lanes k >= m zero-padded
     gz  : m x mpad, OVERWRITTEN with sum_i g[i][k] * z[i][f] over
           rows [lo, hi); columns >= m are zero
     egp : mpad, OVERWRITTEN with sum_i (1 - g[i][k]^2) over [lo, hi)
   mpad is 4*ceil(m/4), at most 64 (see Ica_kernel.create). */

#include <caml/mlvalues.h>
#include <string.h>
#include <immintrin.h>

#define INLINE static inline __attribute__((always_inline))

/* Rows per block: the block's g (BLOCK_ROWS x mpad doubles, 16 KiB at
   mpad = 64) and z rows stay in L1 while every gz tile streams them. */
#define BLOCK_ROWS 32
#define MAX_PAD 64

/* tanh(x) = em / (em + 2) with em = expm1(2|x|') for x <= 0, sign
   restored at the end (|x|' = min(2|x|, 40) saturates where tanh is
   exactly -1 in double precision).  expm1 splits y = k ln2 + r via the
   2^52+2^51 magic-number round; 2^k is rebuilt by integer exponent
   insertion and e^r - 1 by a degree-12 Horner polynomial. */
INLINE __m256d tanh4(__m256d x)
{
  const __m256d sign_mask = _mm256_set1_pd(-0.0);
  __m256d sgn = _mm256_and_pd(x, sign_mask);
  __m256d y = _mm256_min_pd(_mm256_mul_pd(_mm256_andnot_pd(sign_mask, x),
                                          _mm256_set1_pd(2.0)),
                            _mm256_set1_pd(40.0));
  const __m256d magic = _mm256_set1_pd(6755399441055744.0); /* 2^52+2^51 */
  __m256d t = _mm256_fmadd_pd(y, _mm256_set1_pd(1.4426950408889634074), magic);
  __m256d kd = _mm256_sub_pd(t, magic);
  __m256d r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(6.93147180369123816490e-01), y);
  r = _mm256_fnmadd_pd(kd, _mm256_set1_pd(1.90821492927058770002e-10), r);
  static const double c[12] = {
    1.0 / 479001600, 1.0 / 39916800, 1.0 / 3628800, 1.0 / 362880,
    1.0 / 40320, 1.0 / 5040, 1.0 / 720, 1.0 / 120, 1.0 / 24, 1.0 / 6,
    0.5, 1.0
  };
  __m256d p = _mm256_set1_pd(c[0]);
  for (int i = 1; i < 12; i++)
    p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(c[i]));
  p = _mm256_mul_pd(p, r);
  __m256i kq = _mm256_sub_epi64(_mm256_castpd_si256(t),
                                _mm256_castpd_si256(magic));
  __m256d twok = _mm256_castsi256_pd(
      _mm256_slli_epi64(_mm256_add_epi64(kq, _mm256_set1_epi64x(1023)), 52));
  __m256d em = _mm256_fmadd_pd(twok, p, _mm256_sub_pd(twok, _mm256_set1_pd(1.0)));
  __m256d th = _mm256_div_pd(em, _mm256_add_pd(em, _mm256_set1_pd(2.0)));
  return _mm256_or_pd(th, sgn);
}

/* Scores of R rows (R <= 4) in JV lane vectors (JV <= 2) from lane j:
   s[r][lanes] = sum_f z[r][f] * wt[f][lanes], one FMA chain per entry
   in increasing f from zero.  z and s are row blocks of stride mpad. */
INLINE void scores(double *s, const double *z, const double *wt, long m,
                   long mpad, long j, const int R, const int JV)
{
  __m256d acc[4][2];
  for (int r = 0; r < R; r++)
    for (int v = 0; v < JV; v++) acc[r][v] = _mm256_setzero_pd();
  for (long f = 0; f < m; f++) {
    __m256d wv[2];
    for (int v = 0; v < JV; v++)
      wv[v] = _mm256_loadu_pd(wt + f * mpad + j + 4 * v);
    for (int r = 0; r < R; r++) {
      __m256d zf = _mm256_broadcast_sd(z + r * mpad + f);
      for (int v = 0; v < JV; v++)
        acc[r][v] = _mm256_fmadd_pd(zf, wv[v], acc[r][v]);
    }
  }
  for (int r = 0; r < R; r++)
    for (int v = 0; v < JV; v++)
      _mm256_storeu_pd(s + r * mpad + j + 4 * v, acc[r][v]);
}

INLINE void score_rows(double *s, const double *z, const double *wt, long m,
                       long mpad, const int R)
{
  long j = 0;
  for (; j + 8 <= mpad; j += 8) scores(s, z, wt, m, mpad, j, R, 2);
  if (j < mpad) scores(s, z, wt, m, mpad, j, R, 1);
}

/* gz[k][c..c+4*CV) += g[i][k] * z[i][c..] over the block's rows i in
   increasing order, for the KR (<= 4) rows k from k0: the tile lives in
   registers for the whole block. */
INLINE void gz_tile(double *gz, const double *g, const double *z, long mpad,
                    long rows, long k0, long c, const int KR, const int CV)
{
  __m256d acc[4][2];
  for (int a = 0; a < KR; a++)
    for (int v = 0; v < CV; v++)
      acc[a][v] = _mm256_loadu_pd(gz + (k0 + a) * mpad + c + 4 * v);
  for (long i = 0; i < rows; i++) {
    __m256d zv[2];
    for (int v = 0; v < CV; v++)
      zv[v] = _mm256_loadu_pd(z + i * mpad + c + 4 * v);
    for (int a = 0; a < KR; a++) {
      __m256d gk = _mm256_broadcast_sd(g + i * mpad + k0 + a);
      for (int v = 0; v < CV; v++)
        acc[a][v] = _mm256_fmadd_pd(gk, zv[v], acc[a][v]);
    }
  }
  for (int a = 0; a < KR; a++)
    for (int v = 0; v < CV; v++)
      _mm256_storeu_pd(gz + (k0 + a) * mpad + c + 4 * v, acc[a][v]);
}

INLINE void gz_tiles(double *gz, const double *g, const double *z, long mpad,
                     long rows, long k0, const int KR)
{
  long c = 0;
  for (; c + 8 <= mpad; c += 8) gz_tile(gz, g, z, mpad, rows, k0, c, KR, 2);
  if (c < mpad) gz_tile(gz, g, z, mpad, rows, k0, c, KR, 1);
}

static void sweep(const double *zp, const double *wt, double *gz,
                  double *egp, long lo, long hi, long m, long mpad)
{
  double g[BLOCK_ROWS * MAX_PAD] __attribute__((aligned(32)));
  const __m256d one = _mm256_set1_pd(1.0);
  memset(gz, 0, sizeof(double) * (size_t)(m * mpad));
  memset(egp, 0, sizeof(double) * (size_t)mpad);
  for (long b = lo; b < hi; b += BLOCK_ROWS) {
    long rows = hi - b < BLOCK_ROWS ? hi - b : BLOCK_ROWS;
    const double *z = zp + b * mpad;
    long r = 0;
    for (; r + 4 <= rows; r += 4)
      score_rows(g + r * mpad, z + r * mpad, wt, m, mpad, 4);
    switch (rows - r) {
    case 3: score_rows(g + r * mpad, z + r * mpad, wt, m, mpad, 3); break;
    case 2: score_rows(g + r * mpad, z + r * mpad, wt, m, mpad, 2); break;
    case 1: score_rows(g + r * mpad, z + r * mpad, wt, m, mpad, 1); break;
    default: break;
    }
    for (long j = 0; j < mpad; j += 4) {
      __m256d eg = _mm256_loadu_pd(egp + j);
      for (long i = 0; i < rows; i++) {
        __m256d gv = tanh4(_mm256_load_pd(g + i * mpad + j));
        _mm256_store_pd(g + i * mpad + j, gv);
        eg = _mm256_add_pd(eg, _mm256_fnmadd_pd(gv, gv, one));
      }
      _mm256_storeu_pd(egp + j, eg);
    }
    long k0 = 0;
    for (; k0 + 4 <= m; k0 += 4) gz_tiles(gz, g, z, mpad, rows, k0, 4);
    switch (m - k0) {
    case 3: gz_tiles(gz, g, z, mpad, rows, k0, 3); break;
    case 2: gz_tiles(gz, g, z, mpad, rows, k0, 2); break;
    case 1: gz_tiles(gz, g, z, mpad, rows, k0, 1); break;
    default: break;
    }
  }
}

CAMLprim value sider_ica_sweep_simd(value vz, value vwt, value vgz,
                                    value vegp, value vlo, value vhi,
                                    value vm, value vmpad)
{
  sweep((const double *)Bp_val(vz), (const double *)Bp_val(vwt),
        (double *)Bp_val(vgz), (double *)Bp_val(vegp), Long_val(vlo),
        Long_val(vhi), Long_val(vm), Long_val(vmpad));
  return Val_unit;
}

CAMLprim value sider_ica_sweep_simd_bc(value *argv, int argn)
{
  (void)argn;
  return sider_ica_sweep_simd(argv[0], argv[1], argv[2], argv[3], argv[4],
                              argv[5], argv[6], argv[7]);
}
