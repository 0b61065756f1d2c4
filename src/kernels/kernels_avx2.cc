/**
 * @file
 * AVX2+FMA implementations of the registry primitives.
 *
 * This translation unit is compiled with `-mavx2 -mfma` regardless of
 * the project-wide LAZYDP_NATIVE setting (see CMakeLists.txt), so the
 * vector backend exists in portable builds and the choice is made at
 * RUNTIME from cpuid. Nothing in this file may be referenced unless
 * avx2Table() returned non-null: every entry point is reached only
 * through the table, and the table is only handed out after the
 * cpuFeatures() probe confirmed AVX2+FMA.
 *
 * Keep includes minimal: headers with nontrivial inline functions
 * would be compiled with AVX2 codegen here and could be picked by the
 * linker for the whole binary, breaking non-AVX2 hosts.
 *
 * Reductions share the scalar backend's kReduceBlock blocking: each
 * 64-element block collapses to one double partial, partials added in
 * block order, so the only cross-backend difference is rounding inside
 * a block (the parity suite pins it to ~1e-12 relative).
 */

#include "kernels/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <algorithm>
#include <immintrin.h>

#include "common/cpu_features.h"
#include "rng/avx_math.h"
#include "rng/philox.h"

namespace lazydp {
namespace kernels_detail {

namespace {

/**
 * a * x + y with one rounding, as the vector FMAs compute it: the
 * scalar tails must give each element the vector body's arithmetic, and
 * the build compiles with -ffp-contract=off, so they say so explicitly.
 */
inline float
fusedMulAdd(float a, float x, float y)
{
    return __builtin_fmaf(a, x, y);
}

void
fillAvx2(float *dst, std::size_t n, float v)
{
    std::size_t i = 0;
    const __m256 vv = _mm256_set1_ps(v);
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i, vv);
    for (; i < n; ++i)
        dst[i] = v;
}

void
axpyAvx2(float *y, const float *x, std::size_t n, float a)
{
    std::size_t i = 0;
    const __m256 va = _mm256_set1_ps(a);
    for (; i + 8 <= n; i += 8) {
        __m256 vy = _mm256_loadu_ps(y + i);
        __m256 vx = _mm256_loadu_ps(x + i);
        vy = _mm256_fmadd_ps(va, vx, vy);
        _mm256_storeu_ps(y + i, vy);
    }
    for (; i < n; ++i)
        y[i] = fusedMulAdd(a, x[i], y[i]);
}

void
axpbyAvx2(float *y, const float *x, std::size_t n, float a, float b)
{
    std::size_t i = 0;
    const __m256 va = _mm256_set1_ps(a);
    const __m256 vb = _mm256_set1_ps(b);
    for (; i + 8 <= n; i += 8) {
        __m256 vy = _mm256_loadu_ps(y + i);
        __m256 vx = _mm256_loadu_ps(x + i);
        vy = _mm256_fmadd_ps(va, vx, _mm256_mul_ps(vb, vy));
        _mm256_storeu_ps(y + i, vy);
    }
    for (; i < n; ++i)
        y[i] = fusedMulAdd(a, x[i], b * y[i]);
}

void
addAvx2(float *dst, const float *a, const float *b, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        __m256 va = _mm256_loadu_ps(a + i);
        __m256 vb = _mm256_loadu_ps(b + i);
        _mm256_storeu_ps(dst + i, _mm256_add_ps(va, vb));
    }
    for (; i < n; ++i)
        dst[i] = a[i] + b[i];
}

void
scaleAvx2(float *dst, std::size_t n, float a)
{
    std::size_t i = 0;
    const __m256 va = _mm256_set1_ps(a);
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(dst + i);
        _mm256_storeu_ps(dst + i, _mm256_mul_ps(v, va));
    }
    for (; i < n; ++i)
        dst[i] *= a;
}

/**
 * One kReduceBlock-bounded block of the dot reduction. Operands are
 * widened to double BEFORE the multiply, so each product is exact
 * (24+24 < 53 mantissa bits) just like the scalar reference; the only
 * cross-backend difference is the in-block summation order of exact
 * partials (~1e-15 relative).
 */
inline double
dotBlock(const float *a, const float *b, std::size_t len)
{
    std::size_t i = 0;
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (; i + 8 <= len; i += 8) {
        const __m256 va = _mm256_loadu_ps(a + i);
        const __m256 vb = _mm256_loadu_ps(b + i);
        const __m256d alo = _mm256_cvtps_pd(_mm256_castps256_ps128(va));
        const __m256d ahi = _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
        const __m256d blo = _mm256_cvtps_pd(_mm256_castps256_ps128(vb));
        const __m256d bhi = _mm256_cvtps_pd(_mm256_extractf128_ps(vb, 1));
        acc0 = _mm256_fmadd_pd(alo, blo, acc0);
        acc1 = _mm256_fmadd_pd(ahi, bhi, acc1);
    }
    alignas(32) double tmp[4];
    _mm256_store_pd(tmp, _mm256_add_pd(acc0, acc1));
    double blk = tmp[0] + tmp[1] + tmp[2] + tmp[3];
    for (; i < len; ++i)
        blk += static_cast<double>(a[i]) * static_cast<double>(b[i]);
    return blk;
}

double
dotAvx2(const float *a, const float *b, std::size_t n)
{
    double total = 0.0;
    for (std::size_t base = 0; base < n; base += kReduceBlock) {
        const std::size_t lim = std::min(n, base + kReduceBlock);
        total += dotBlock(a + base, b + base, lim - base);
    }
    return total;
}

double
squaredNormAvx2(const float *x, std::size_t n)
{
    return dotAvx2(x, x, n);
}

void
reluForwardAvx2(float *dst, const float *x, std::size_t n)
{
    std::size_t i = 0;
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(x + i);
        _mm256_storeu_ps(dst + i, _mm256_max_ps(v, zero));
    }
    for (; i < n; ++i)
        dst[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void
reluBackwardAvx2(float *dx, const float *x, const float *dy,
                 std::size_t n)
{
    std::size_t i = 0;
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= n; i += 8) {
        __m256 vx = _mm256_loadu_ps(x + i);
        __m256 vdy = _mm256_loadu_ps(dy + i);
        __m256 mask = _mm256_cmp_ps(vx, zero, _CMP_GT_OQ);
        _mm256_storeu_ps(dx + i, _mm256_and_ps(vdy, mask));
    }
    for (; i < n; ++i)
        dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
}

void
gemvDotRowAvx2(const float *arow, const float *b, float *crow,
               std::size_t n, std::size_t k, bool accumulate)
{
    // Two output columns per pass share the arow loads; accumulation
    // stays per-column blocked so each crow[j] equals dotAvx2(arow, b_j)
    // exactly (the parity suite compares against the scalar reference).
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2) {
        const float *b0 = b + j * k;
        const float *b1 = b0 + k;
        double t0 = 0.0, t1 = 0.0;
        for (std::size_t base = 0; base < k; base += kReduceBlock) {
            const std::size_t lim = std::min(k, base + kReduceBlock);
            const std::size_t len = lim - base;
            std::size_t i = 0;
            __m256d a00 = _mm256_setzero_pd();
            __m256d a01 = _mm256_setzero_pd();
            __m256d a10 = _mm256_setzero_pd();
            __m256d a11 = _mm256_setzero_pd();
            const float *ap = arow + base;
            const float *bp0 = b0 + base;
            const float *bp1 = b1 + base;
            for (; i + 8 <= len; i += 8) {
                const __m256 va = _mm256_loadu_ps(ap + i);
                const __m256 v0 = _mm256_loadu_ps(bp0 + i);
                const __m256 v1 = _mm256_loadu_ps(bp1 + i);
                const __m256d alo =
                    _mm256_cvtps_pd(_mm256_castps256_ps128(va));
                const __m256d ahi =
                    _mm256_cvtps_pd(_mm256_extractf128_ps(va, 1));
                a00 = _mm256_fmadd_pd(
                    alo, _mm256_cvtps_pd(_mm256_castps256_ps128(v0)),
                    a00);
                a01 = _mm256_fmadd_pd(
                    ahi, _mm256_cvtps_pd(_mm256_extractf128_ps(v0, 1)),
                    a01);
                a10 = _mm256_fmadd_pd(
                    alo, _mm256_cvtps_pd(_mm256_castps256_ps128(v1)),
                    a10);
                a11 = _mm256_fmadd_pd(
                    ahi, _mm256_cvtps_pd(_mm256_extractf128_ps(v1, 1)),
                    a11);
            }
            alignas(32) double t[4];
            _mm256_store_pd(t, _mm256_add_pd(a00, a01));
            double blk0 = t[0] + t[1] + t[2] + t[3];
            _mm256_store_pd(t, _mm256_add_pd(a10, a11));
            double blk1 = t[0] + t[1] + t[2] + t[3];
            for (; i < len; ++i) {
                const double av = ap[i];
                blk0 += av * static_cast<double>(bp0[i]);
                blk1 += av * static_cast<double>(bp1[i]);
            }
            t0 += blk0;
            t1 += blk1;
        }
        const float f0 = static_cast<float>(t0);
        const float f1 = static_cast<float>(t1);
        crow[j] = accumulate ? crow[j] + f0 : f0;
        crow[j + 1] = accumulate ? crow[j + 1] + f1 : f1;
    }
    for (; j < n; ++j) {
        const float v = static_cast<float>(dotAvx2(arow, b + j * k, k));
        crow[j] = accumulate ? crow[j] + v : v;
    }
}

// ---- register-tiled GEMMs -------------------------------------------
//
// gemmABt keeps an R x C tile of outputs in registers. Each output owns
// the two 4-lane double accumulators dotBlock uses (elements 8t..8t+3
// and 8t+4..8t+7 of every kReduceBlock block), so its arithmetic is
// dotBlock's exactly; the tile only shares the loads and conversions of
// A and B between outputs. Under plain AVX2 (16 ymm registers) a 2 x 2
// tile needs 8 accumulators plus 3 operands; with AVX-512VL's 32
// registers the 4 x 2 tile's 16 accumulators fit as well.
#if defined(__AVX512VL__)
constexpr int kTileRows = 4;
#else
constexpr int kTileRows = 2;
#endif

/**
 * Lane x of the result is ((v_x[0] + v_x[1]) + v_x[2]) + v_x[3]: four
 * outputs' horizontal sums at once, in dotBlock's lane order.
 */
inline __m256d
laneSums4(__m256d v0, __m256d v1, __m256d v2, __m256d v3)
{
    const __m256d t0 = _mm256_unpacklo_pd(v0, v1);
    const __m256d t1 = _mm256_unpackhi_pd(v0, v1);
    const __m256d t2 = _mm256_unpacklo_pd(v2, v3);
    const __m256d t3 = _mm256_unpackhi_pd(v2, v3);
    const __m256d l0 = _mm256_permute2f128_pd(t0, t2, 0x20);
    const __m256d l1 = _mm256_permute2f128_pd(t1, t3, 0x20);
    const __m256d l2 = _mm256_permute2f128_pd(t0, t2, 0x31);
    const __m256d l3 = _mm256_permute2f128_pd(t1, t3, 0x31);
    return _mm256_add_pd(_mm256_add_pd(_mm256_add_pd(l0, l1), l2), l3);
}

/** Four floats widened to double. */
inline __m256d
loadWiden(const float *p)
{
    return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/** One R x C output tile of gemmABt over the full k. */
template <int R, int C>
inline void
tileABt(const float *a, std::size_t lda, const float *b, std::size_t ldb,
        float *c, std::size_t ldc, std::size_t k, bool accumulate)
{
    constexpr int N = R * C; // output x = r * C + q
    alignas(32) double total[N] = {};
    for (std::size_t base = 0; base < k; base += kReduceBlock) {
        const std::size_t len = std::min(k, base + kReduceBlock) - base;
        const float *ap = a + base;
        const float *bp = b + base;
        __m256d lo[N], hi[N];
        for (int x = 0; x < N; ++x) {
            lo[x] = _mm256_setzero_pd();
            hi[x] = _mm256_setzero_pd();
        }
        std::size_t i = 0;
        for (; i + 8 <= len; i += 8) {
            __m256d bv[C];
            for (int q = 0; q < C; ++q)
                bv[q] = loadWiden(bp + q * ldb + i);
            for (int r = 0; r < R; ++r) {
                const __m256d av = loadWiden(ap + r * lda + i);
                for (int q = 0; q < C; ++q)
                    lo[r * C + q] =
                        _mm256_fmadd_pd(av, bv[q], lo[r * C + q]);
            }
            for (int q = 0; q < C; ++q)
                bv[q] = loadWiden(bp + q * ldb + i + 4);
            for (int r = 0; r < R; ++r) {
                const __m256d av = loadWiden(ap + r * lda + i + 4);
                for (int q = 0; q < C; ++q)
                    hi[r * C + q] =
                        _mm256_fmadd_pd(av, bv[q], hi[r * C + q]);
            }
        }
        alignas(32) double blk[N];
        int x = 0;
        for (; x + 4 <= N; x += 4) {
            _mm256_store_pd(
                blk + x,
                laneSums4(_mm256_add_pd(lo[x], hi[x]),
                          _mm256_add_pd(lo[x + 1], hi[x + 1]),
                          _mm256_add_pd(lo[x + 2], hi[x + 2]),
                          _mm256_add_pd(lo[x + 3], hi[x + 3])));
        }
        for (; x < N; ++x) {
            alignas(32) double t[4];
            _mm256_store_pd(t, _mm256_add_pd(lo[x], hi[x]));
            blk[x] = t[0] + t[1] + t[2] + t[3];
        }
        // Sequential tail of the block, as in dotBlock.
        for (; i < len; ++i) {
            for (int r = 0; r < R; ++r) {
                const double av = ap[r * lda + i];
                for (int q = 0; q < C; ++q)
                    blk[r * C + q] +=
                        av * static_cast<double>(bp[q * ldb + i]);
            }
        }
        for (x = 0; x < N; ++x)
            total[x] += blk[x];
    }
    for (int r = 0; r < R; ++r) {
        for (int q = 0; q < C; ++q) {
            const float v = static_cast<float>(total[r * C + q]);
            float &out = c[r * ldc + q];
            out = accumulate ? out + v : v;
        }
    }
}

/** All n columns of an R-row strip of gemmABt. */
template <int R>
inline void
stripABt(const float *a, std::size_t lda, const float *b, std::size_t ldb,
         float *c, std::size_t ldc, std::size_t n, std::size_t k,
         bool accumulate)
{
    std::size_t j = 0;
    for (; j + 2 <= n; j += 2)
        tileABt<R, 2>(a, lda, b + j * ldb, ldb, c + j, ldc, k, accumulate);
    if (j < n)
        tileABt<R, 1>(a, lda, b + j * ldb, ldb, c + j, ldc, k, accumulate);
}

void
gemmABtAvx2(const float *a, std::size_t lda, const float *b,
            std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
            std::size_t n, std::size_t k, bool accumulate)
{
    std::size_t i = 0;
    for (; i + kTileRows <= m; i += kTileRows)
        stripABt<kTileRows>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, n,
                            k, accumulate);
    for (; i < m; ++i)
        stripABt<1>(a + i * lda, lda, b, ldb, c + i * ldc, ldc, n, k,
                    accumulate);
}

// gemmAxpy holds a panel of one output row in registers across every
// nonzero coefficient of that row, instead of loading and storing the
// row once per coefficient as the axpy loop does. Each element still
// sees one fused multiply-add per nonzero coefficient in ascending kk
// -- axpyAvx2's arithmetic exactly. Coefficients are compacted per row
// first (skipping zeros without a branch in the panel loop), for a
// group of rows and a strip of kk at a time, so a panel of B is reused
// by every row of the group while it is in L1.
constexpr std::size_t kAxpyGroupRows = 8;
constexpr std::size_t kAxpyStripK = 256;

struct AxpyCoef
{
    std::uint32_t kk;
    float v;
};

/** c[0, 8V) += coef * b_kk[0, 8V) over one row's compacted coefs. */
template <int V>
inline void
axpyPanel(const AxpyCoef *cf, std::size_t count, const float *b,
          std::size_t ldb, float *c)
{
    __m256 acc[V];
    for (int v = 0; v < V; ++v)
        acc[v] = _mm256_loadu_ps(c + 8 * v);
    for (std::size_t t = 0; t < count; ++t) {
        const __m256 av = _mm256_set1_ps(cf[t].v);
        const float *bp = b + cf[t].kk * ldb;
        for (int v = 0; v < V; ++v)
            acc[v] = _mm256_fmadd_ps(av, _mm256_loadu_ps(bp + 8 * v),
                                     acc[v]);
    }
    for (int v = 0; v < V; ++v)
        _mm256_storeu_ps(c + 8 * v, acc[v]);
}

/** The last width < 8 columns, through masked loads and stores. */
inline void
axpyPanelTail(const AxpyCoef *cf, std::size_t count, const float *b,
              std::size_t ldb, float *c, std::size_t width)
{
    alignas(32) static const std::int32_t kMask[16] = {
        -1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0};
    const __m256i mask = _mm256_loadu_si256(
        reinterpret_cast<const __m256i *>(kMask + 8 - width));
    __m256 acc = _mm256_maskload_ps(c, mask);
    for (std::size_t t = 0; t < count; ++t) {
        acc = _mm256_fmadd_ps(_mm256_set1_ps(cf[t].v),
                              _mm256_maskload_ps(b + cf[t].kk * ldb, mask),
                              acc);
    }
    _mm256_maskstore_ps(c, mask, acc);
}

void
gemmAxpyAvx2(const float *a, std::size_t a_rs, std::size_t a_cs,
             const float *b, std::size_t ldb, float *c, std::size_t ldc,
             std::size_t m, std::size_t n, std::size_t k)
{
    AxpyCoef coef[kAxpyGroupRows][kAxpyStripK];
    std::size_t count[kAxpyGroupRows];
    for (std::size_t i0 = 0; i0 < m; i0 += kAxpyGroupRows) {
        const std::size_t rows = std::min(kAxpyGroupRows, m - i0);
        for (std::size_t k0 = 0; k0 < k; k0 += kAxpyStripK) {
            const std::size_t klen = std::min(kAxpyStripK, k - k0);
            for (std::size_t r = 0; r < rows; ++r) {
                const float *ar = a + (i0 + r) * a_rs;
                std::size_t z = 0;
                for (std::size_t kk = k0; kk < k0 + klen; ++kk) {
                    const float av = ar[kk * a_cs];
                    if (av != 0.0f)
                        coef[r][z++] = {static_cast<std::uint32_t>(kk), av};
                }
                count[r] = z;
            }
            std::size_t j = 0;
            for (; j + 32 <= n; j += 32)
                for (std::size_t r = 0; r < rows; ++r)
                    axpyPanel<4>(coef[r], count[r], b + j, ldb,
                                 c + (i0 + r) * ldc + j);
            for (; j + 8 <= n; j += 8)
                for (std::size_t r = 0; r < rows; ++r)
                    axpyPanel<1>(coef[r], count[r], b + j, ldb,
                                 c + (i0 + r) * ldc + j);
            if (j < n)
                for (std::size_t r = 0; r < rows; ++r)
                    axpyPanelTail(coef[r], count[r], b + j, ldb,
                                  c + (i0 + r) * ldc + j, n - j);
        }
    }
}

void
poolRowsAvx2(float *dst, const float *table, const std::uint32_t *rows,
             std::size_t count, std::size_t dim)
{
    fillAvx2(dst, dim, 0.0f);
    for (std::size_t i = 0; i < count; ++i) {
        const float *src =
            table + static_cast<std::size_t>(rows[i]) * dim;
        addAvx2(dst, dst, src, dim);
    }
}

void
scatterAxpyRowsAvx2(float *table, const std::uint32_t *rows,
                    const float *vals, std::size_t count, std::size_t dim,
                    float a)
{
    for (std::size_t i = 0; i < count; ++i) {
        axpyAvx2(table + static_cast<std::size_t>(rows[i]) * dim,
                 vals + i * dim, dim, a);
    }
}

std::size_t
streamWithOpsAvx2(float *dst, const float *x, std::size_t n, int n_ops)
{
    const float mul_c = 1.000001f;
    const float add_c = 1e-7f;
    std::size_t i = 0;
    const __m256 vm = _mm256_set1_ps(mul_c);
    const __m256 va = _mm256_set1_ps(add_c);
    // Four independent vector chains per loop iteration so the core is
    // throughput-bound (as Box-Muller's polynomial ILP is), not bound
    // by the latency of one dependent chain.
    for (; i + 32 <= n; i += 32) {
        __m256 v0 = _mm256_loadu_ps(x + i);
        __m256 v1 = _mm256_loadu_ps(x + i + 8);
        __m256 v2 = _mm256_loadu_ps(x + i + 16);
        __m256 v3 = _mm256_loadu_ps(x + i + 24);
        for (int k = 0; k < n_ops; k += 2) {
            v0 = _mm256_mul_ps(v0, vm);
            v1 = _mm256_mul_ps(v1, vm);
            v2 = _mm256_mul_ps(v2, vm);
            v3 = _mm256_mul_ps(v3, vm);
            if (k + 1 < n_ops) {
                v0 = _mm256_add_ps(v0, va);
                v1 = _mm256_add_ps(v1, va);
                v2 = _mm256_add_ps(v2, va);
                v3 = _mm256_add_ps(v3, va);
            }
        }
        _mm256_storeu_ps(dst + i, v0);
        _mm256_storeu_ps(dst + i + 8, v1);
        _mm256_storeu_ps(dst + i + 16, v2);
        _mm256_storeu_ps(dst + i + 24, v3);
    }
    for (; i + 8 <= n; i += 8) {
        __m256 v = _mm256_loadu_ps(x + i);
        for (int k = 0; k < n_ops; k += 2) {
            v = _mm256_mul_ps(v, vm);
            if (k + 1 < n_ops)
                v = _mm256_add_ps(v, va);
        }
        _mm256_storeu_ps(dst + i, v);
    }
    for (; i < n; ++i) {
        float v = x[i];
        for (int k = 0; k < n_ops; k += 2) {
            v = v * mul_c;
            if (k + 1 < n_ops)
                v = v + add_c;
        }
        dst[i] = v;
    }
    return n * static_cast<std::size_t>(n_ops);
}

/**
 * 8-wide Philox4x32-10: computes blocks (ctr_hi, lo_base + lane) for
 * lanes 0..7 in SoA form (x0..x3 each hold one output word of all
 * 8 blocks).
 */
inline void
philoxAvx2(std::uint32_t key0, std::uint32_t key1, std::uint64_t ctr_hi,
           std::uint64_t lo_base, __m256i &x0, __m256i &x1, __m256i &x2,
           __m256i &x3)
{
    alignas(32) std::uint32_t c0v[8], c1v[8];
    for (int lane = 0; lane < 8; ++lane) {
        const std::uint64_t lo = lo_base + static_cast<std::uint64_t>(lane);
        c0v[lane] = static_cast<std::uint32_t>(lo);
        c1v[lane] = static_cast<std::uint32_t>(lo >> 32);
    }
    __m256i c0 = _mm256_load_si256(reinterpret_cast<const __m256i *>(c0v));
    __m256i c1 = _mm256_load_si256(reinterpret_cast<const __m256i *>(c1v));
    __m256i c2 = _mm256_set1_epi32(static_cast<int>(
        static_cast<std::uint32_t>(ctr_hi)));
    __m256i c3 = _mm256_set1_epi32(static_cast<int>(
        static_cast<std::uint32_t>(ctr_hi >> 32)));
    __m256i k0 = _mm256_set1_epi32(static_cast<int>(key0));
    __m256i k1 = _mm256_set1_epi32(static_cast<int>(key1));

    const __m256i m0 = _mm256_set1_epi32(static_cast<int>(0xD2511F53u));
    const __m256i m1 = _mm256_set1_epi32(static_cast<int>(0xCD9E8D57u));
    const __m256i w0 = _mm256_set1_epi32(static_cast<int>(0x9E3779B9u));
    const __m256i w1 = _mm256_set1_epi32(static_cast<int>(0xBB67AE85u));

    auto mulhilo = [](__m256i a, __m256i m, __m256i &hi, __m256i &lo) {
        // 32x32->64 products for even and odd lanes, then re-blend.
        const __m256i prod_e = _mm256_mul_epu32(a, m);
        const __m256i prod_o =
            _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
        lo = _mm256_blend_epi32(prod_e, _mm256_slli_epi64(prod_o, 32),
                                0b10101010);
        hi = _mm256_blend_epi32(_mm256_srli_epi64(prod_e, 32), prod_o,
                                0b10101010);
    };

    for (int round = 0; round < 10; ++round) {
        __m256i hi0, lo0, hi1, lo1;
        mulhilo(c0, m0, hi0, lo0);
        mulhilo(c2, m1, hi1, lo1);
        const __m256i n0 =
            _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
        const __m256i n2 =
            _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
        c1 = lo1;
        c3 = lo0;
        c0 = n0;
        c2 = n2;
        k0 = _mm256_add_epi32(k0, w0);
        k1 = _mm256_add_epi32(k1, w1);
    }
    x0 = c0;
    x1 = c1;
    x2 = c2;
    x3 = c3;
}

/** u32 vector -> uniform (0,1) floats. */
inline __m256
toUniformPs(__m256i x)
{
    const __m256 f = _mm256_cvtepi32_ps(_mm256_srli_epi32(x, 8));
    return _mm256_mul_ps(_mm256_add_ps(f, _mm256_set1_ps(0.5f)),
                         _mm256_set1_ps(1.0f / 16777216.0f));
}

void
gaussianFillKeyedAvx2(const Philox4x32 &philox, std::uint64_t ctr_hi,
                      std::uint64_t lo_base, float *dst, std::size_t dim,
                      float sigma, float scale, bool accumulate)
{
    const std::uint32_t key0 =
        static_cast<std::uint32_t>(philox.seed());
    const std::uint32_t key1 =
        static_cast<std::uint32_t>(philox.seed() >> 32);
    const __m256 vsigma = _mm256_set1_ps(sigma);

    std::size_t b = 0;
    const std::size_t blocks = (dim + 3) / 4;
    // Full groups of 8 blocks -> 32 contiguous output samples.
    for (; b + 8 <= blocks && (dim - 4 * b) >= 32; b += 8) {
        __m256i x0, x1, x2, x3;
        philoxAvx2(key0, key1, ctr_hi, lo_base + b, x0, x1, x2, x3);

        const __m256 u0 = toUniformPs(x0);
        const __m256 u1 = toUniformPs(x1);
        const __m256 u2 = toUniformPs(x2);
        const __m256 u3 = toUniformPs(x3);

        // radius = sigma * sqrt(-2 ln u)
        const __m256 neg2 = _mm256_set1_ps(-2.0f);
        const __m256 r0 = _mm256_mul_ps(
            vsigma,
            _mm256_sqrt_ps(_mm256_mul_ps(neg2, avxm::logPs(u0))));
        const __m256 r1 = _mm256_mul_ps(
            vsigma,
            _mm256_sqrt_ps(_mm256_mul_ps(neg2, avxm::logPs(u2))));

        __m256 s0, c0p, s1, c1p;
        avxm::sinCos2PiPs(u1, s0, c0p);
        avxm::sinCos2PiPs(u3, s1, c1p);

        // lane l of zj corresponds to output element 4*(b+l) + j
        const __m256 z0 = _mm256_mul_ps(r0, c0p);
        const __m256 z1 = _mm256_mul_ps(r0, s0);
        const __m256 z2 = _mm256_mul_ps(r1, c1p);
        const __m256 z3 = _mm256_mul_ps(r1, s1);

        alignas(32) float t0[8], t1[8], t2[8], t3[8];
        _mm256_store_ps(t0, z0);
        _mm256_store_ps(t1, z1);
        _mm256_store_ps(t2, z2);
        _mm256_store_ps(t3, z3);

        float *out = dst + 4 * b;
        if (accumulate) {
            for (int lane = 0; lane < 8; ++lane) {
                out[4 * lane + 0] += scale * t0[lane];
                out[4 * lane + 1] += scale * t1[lane];
                out[4 * lane + 2] += scale * t2[lane];
                out[4 * lane + 3] += scale * t3[lane];
            }
        } else {
            for (int lane = 0; lane < 8; ++lane) {
                out[4 * lane + 0] = scale * t0[lane];
                out[4 * lane + 1] = scale * t1[lane];
                out[4 * lane + 2] = scale * t2[lane];
                out[4 * lane + 3] = scale * t3[lane];
            }
        }
    }
    // Remainder via the scalar kernel (identical counter mapping).
    if (4 * b < dim) {
        gaussianFillKeyedScalar(philox, ctr_hi, lo_base + b, dst + 4 * b,
                                dim - 4 * b, sigma, scale, accumulate);
    }
}

} // namespace

const KernelTable *
avx2Table()
{
    if (!cpuFeatures().avx2 || !cpuFeatures().fma)
        return nullptr;
    static const KernelTable table = {
        KernelBackend::Avx2,
        "avx2",
        GaussianKernel::Avx2,
        fillAvx2,
        axpyAvx2,
        axpbyAvx2,
        addAvx2,
        scaleAvx2,
        dotAvx2,
        squaredNormAvx2,
        reluForwardAvx2,
        reluBackwardAvx2,
        gemvDotRowAvx2,
        gemmABtAvx2,
        gemmAxpyAvx2,
        poolRowsAvx2,
        scatterAxpyRowsAvx2,
        streamWithOpsAvx2,
        gaussianFillKeyedAvx2,
    };
    return &table;
}

} // namespace kernels_detail
} // namespace lazydp

#else // !(__AVX2__ && __FMA__)

namespace lazydp {
namespace kernels_detail {

// Compiler without AVX2 support: the backend simply does not exist.
const KernelTable *
avx2Table()
{
    return nullptr;
}

} // namespace kernels_detail
} // namespace lazydp

#endif // __AVX2__ && __FMA__
