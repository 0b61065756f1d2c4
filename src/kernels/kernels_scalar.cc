/**
 * @file
 * Scalar reference implementations of every registry primitive.
 *
 * These are the golden path: plain loops, no intrinsics, fixed-width
 * blocked reductions (kReduceBlock elements per double partial). The
 * golden-model regression hashes and all cross-backend parity
 * tolerances are anchored to the outputs of this file.
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include "kernels/kernels_internal.h"
#include "rng/philox.h"

namespace lazydp {
namespace kernels_detail {

namespace {

void
fillScalar(float *dst, std::size_t n, float v)
{
    std::fill(dst, dst + n, v);
}

void
axpyScalar(float *y, const float *x, std::size_t n, float a)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] += a * x[i];
}

void
axpbyScalar(float *y, const float *x, std::size_t n, float a, float b)
{
    for (std::size_t i = 0; i < n; ++i)
        y[i] = a * x[i] + b * y[i];
}

void
addScalar(float *dst, const float *a, const float *b, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = a[i] + b[i];
}

void
scaleScalar(float *dst, std::size_t n, float a)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] *= a;
}

// Blocked double accumulation: each kReduceBlock-element block sums
// into its own double partial, partials added in block order. float x
// float products are exact in double, so the only rounding is the
// in-order double additions -- deterministic and ISA-independent
// block boundaries.
double
dotScalar(const float *a, const float *b, std::size_t n)
{
    double total = 0.0;
    for (std::size_t base = 0; base < n; base += kReduceBlock) {
        const std::size_t lim = std::min(n, base + kReduceBlock);
        double blk = 0.0;
        for (std::size_t i = base; i < lim; ++i)
            blk += static_cast<double>(a[i]) * static_cast<double>(b[i]);
        total += blk;
    }
    return total;
}

double
squaredNormScalar(const float *x, std::size_t n)
{
    // One blocking scheme to rule them all: the dot==squaredNorm
    // bit-identity is pinned by the tensor and parity suites.
    return dotScalar(x, x, n);
}

void
reluForwardScalar(float *dst, const float *x, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = x[i] > 0.0f ? x[i] : 0.0f;
}

void
reluBackwardScalar(float *dx, const float *x, const float *dy,
                   std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        dx[i] = x[i] > 0.0f ? dy[i] : 0.0f;
}

void
gemvDotRowScalar(const float *arow, const float *b, float *crow,
                 std::size_t n, std::size_t k, bool accumulate)
{
    for (std::size_t j = 0; j < n; ++j) {
        const float v = static_cast<float>(dotScalar(arow, b + j * k, k));
        crow[j] = accumulate ? crow[j] + v : v;
    }
}

// The scalar GEMM entries are the row loops the reference has always
// run; the tiled backends must reproduce them output for output.
void
gemmABtScalar(const float *a, std::size_t lda, const float *b,
              std::size_t ldb, float *c, std::size_t ldc, std::size_t m,
              std::size_t n, std::size_t k, bool accumulate)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const float v =
                static_cast<float>(dotScalar(a + i * lda, b + j * ldb, k));
            float &out = c[i * ldc + j];
            out = accumulate ? out + v : v;
        }
    }
}

void
gemmAxpyScalar(const float *a, std::size_t a_rs, std::size_t a_cs,
               const float *b, std::size_t ldb, float *c, std::size_t ldc,
               std::size_t m, std::size_t n, std::size_t k)
{
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a[i * a_rs + kk * a_cs];
            if (av == 0.0f)
                continue;
            axpyScalar(c + i * ldc, b + kk * ldb, n, av);
        }
    }
}

void
poolRowsScalar(float *dst, const float *table, const std::uint32_t *rows,
               std::size_t count, std::size_t dim)
{
    std::fill(dst, dst + dim, 0.0f);
    for (std::size_t i = 0; i < count; ++i) {
        const float *src = table + static_cast<std::size_t>(rows[i]) * dim;
        for (std::size_t j = 0; j < dim; ++j)
            dst[j] += src[j];
    }
}

void
scatterAxpyRowsScalar(float *table, const std::uint32_t *rows,
                      const float *vals, std::size_t count,
                      std::size_t dim, float a)
{
    for (std::size_t i = 0; i < count; ++i) {
        float *dst = table + static_cast<std::size_t>(rows[i]) * dim;
        const float *src = vals + i * dim;
        for (std::size_t j = 0; j < dim; ++j)
            dst[j] += a * src[j];
    }
}

std::size_t
streamWithOpsScalar(float *dst, const float *x, std::size_t n, int n_ops)
{
    // A dependent chain of alternating mul/add per element; constants
    // chosen so the value neither explodes nor denormalizes over 124
    // chained ops (see the Figure 6 roofline bench).
    const float mul_c = 1.000001f;
    const float add_c = 1e-7f;
    for (std::size_t i = 0; i < n; ++i) {
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

constexpr float kTwoPi = 6.28318530717958647692f;

/** u32 -> uniform float in (0, 1): 24 mantissa bits + half-ulp offset. */
inline float
toUniform(std::uint32_t x)
{
    return (static_cast<float>(x >> 8) + 0.5f) * (1.0f / 16777216.0f);
}

/** Scalar Box-Muller over one Philox block -> 4 samples. */
inline void
blockToGaussians(const Philox4x32::Block &blk, float sigma, float out[4])
{
    const float u0 = toUniform(blk[0]);
    const float u1 = toUniform(blk[1]);
    const float u2 = toUniform(blk[2]);
    const float u3 = toUniform(blk[3]);
    const float r0 = sigma * std::sqrt(-2.0f * std::log(u0));
    const float r1 = sigma * std::sqrt(-2.0f * std::log(u2));
    out[0] = r0 * std::cos(kTwoPi * u1);
    out[1] = r0 * std::sin(kTwoPi * u1);
    out[2] = r1 * std::cos(kTwoPi * u3);
    out[3] = r1 * std::sin(kTwoPi * u3);
}

} // namespace

void
gaussianFillKeyedScalar(const Philox4x32 &philox, std::uint64_t ctr_hi,
                        std::uint64_t lo_base, float *dst, std::size_t dim,
                        float sigma, float scale, bool accumulate)
{
    const std::size_t blocks = (dim + 3) / 4;
    for (std::size_t b = 0; b < blocks; ++b) {
        float z[4];
        blockToGaussians(philox.block(ctr_hi, lo_base + b), sigma, z);
        const std::size_t base = 4 * b;
        const std::size_t lim = std::min<std::size_t>(4, dim - base);
        for (std::size_t j = 0; j < lim; ++j) {
            const float v = scale * z[j];
            dst[base + j] = accumulate ? dst[base + j] + v : v;
        }
    }
}

const KernelTable &
scalarTable()
{
    static const KernelTable table = {
        KernelBackend::Scalar,
        "scalar",
        GaussianKernel::Scalar,
        fillScalar,
        axpyScalar,
        axpbyScalar,
        addScalar,
        scaleScalar,
        dotScalar,
        squaredNormScalar,
        reluForwardScalar,
        reluBackwardScalar,
        gemvDotRowScalar,
        gemmABtScalar,
        gemmAxpyScalar,
        poolRowsScalar,
        scatterAxpyRowsScalar,
        streamWithOpsScalar,
        gaussianFillKeyedScalar,
    };
    return table;
}

} // namespace kernels_detail
} // namespace lazydp
