/**
 * @file
 * Parity of the register-tiled GEMM entries with the row paths they
 * replace:
 *
 *  - gemmABt against one gemvDotRow call per output, and gemmAxpy
 *    against the zero-skipping loop of axpy calls, on the SAME backend:
 *    bit-identical (memcmp), because every output keeps the row path's
 *    operation order (with NaN inputs, any NaN matches any NaN);
 *  - every backend against the scalar reference within the registry's
 *    tolerances: ULP-close for the double-accumulated dot, and the
 *    standard float GEMM error bound for the axpy family (a float
 *    accumulation of k fused or unfused multiply-adds).
 *
 * Shapes cross every tile-edge remainder (m, n) with k around the
 * vector width and the kReduceBlock boundary, on unaligned, padded
 * slices, with accumulation on and off, and with -0.0, +-inf, NaN and
 * zero coefficients in the operands.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

#include "kernels/kernel_registry.h"

namespace lazydp {
namespace {

const std::size_t kMs[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 256};
const std::size_t kKs[] = {1, 7, 8, 63, 64, 65, 128, 479};
const std::size_t kNs[] = {1, 2, 3, 127, 128, 479};

/** Shapes above this many multiply-adds run only at the largest size. */
constexpr std::size_t kWorkBudget = std::size_t{1} << 22;

/** Leading-dimension padding and base offset: unaligned, strided. */
constexpr std::size_t kPad = 3;
constexpr std::size_t kOffset = 1;

std::vector<const KernelTable *>
backends()
{
    std::vector<const KernelTable *> out{kernelTable(KernelBackend::Scalar)};
    if (const KernelTable *avx2 = kernelTable(KernelBackend::Avx2))
        out.push_back(avx2);
    return out;
}

bool
runShape(std::size_t m, std::size_t n, std::size_t k)
{
    return m * n * k <= kWorkBudget || (m == 256 && n == 479 && k == 479);
}

/** A padded row-major matrix living kOffset floats into its buffer. */
struct Matrix
{
    std::size_t rows, cols, ld;
    std::vector<float> buf;

    Matrix(std::size_t r, std::size_t c)
        : rows(r), cols(c), ld(c + kPad), buf(kOffset + r * ld, 7.0f)
    {
    }
    float *data() { return buf.data() + kOffset; }
    const float *data() const { return buf.data() + kOffset; }
    float &at(std::size_t i, std::size_t j) { return data()[i * ld + j]; }
    float at(std::size_t i, std::size_t j) const
    {
        return data()[i * ld + j];
    }
};

/** Uniform values in [-2, 2], with a fraction set to exact zero. */
void
randomize(Matrix &x, std::mt19937 &rng, double zero_frac = 0.0)
{
    std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    for (std::size_t i = 0; i < x.rows; ++i)
        for (std::size_t j = 0; j < x.cols; ++j)
            x.at(i, j) = coin(rng) < zero_frac ? 0.0f : dist(rng);
}

/** Scatter -0.0, +-inf, NaN and zeros into about 1 in 8 entries. */
void
sprinkleSpecials(Matrix &x, std::mt19937 &rng)
{
    const float specials[] = {-0.0f,
                              0.0f,
                              std::numeric_limits<float>::infinity(),
                              -std::numeric_limits<float>::infinity(),
                              std::numeric_limits<float>::quiet_NaN()};
    for (std::size_t i = 0; i < x.rows; ++i)
        for (std::size_t j = 0; j < x.cols; ++j)
            if (rng() % 8 == 0)
                x.at(i, j) = specials[rng() % 5];
}

/** Row path of gemmABt: one gemvDotRow call per output. */
void
rowABt(const KernelTable &kt, const Matrix &a, const Matrix &b, Matrix &c,
       bool accumulate)
{
    for (std::size_t i = 0; i < a.rows; ++i)
        for (std::size_t j = 0; j < b.rows; ++j)
            kt.gemvDotRow(a.data() + i * a.ld, b.data() + j * b.ld,
                          &c.at(i, j), 1, a.cols, accumulate);
}

/** Row path of gemmAxpy: the zero-skipping loop of axpy calls. */
void
rowAxpy(const KernelTable &kt, const float *a, std::size_t a_rs,
        std::size_t a_cs, const Matrix &b, Matrix &c, std::size_t k)
{
    for (std::size_t i = 0; i < c.rows; ++i) {
        for (std::size_t kk = 0; kk < k; ++kk) {
            const float av = a[i * a_rs + kk * a_cs];
            if (av == 0.0f)
                continue;
            kt.axpy(c.data() + i * c.ld, b.data() + kk * b.ld, c.cols, av);
        }
    }
}

void
expectSameBits(const Matrix &want, const Matrix &got, const char *what,
               const KernelTable &kt, std::size_t m, std::size_t n,
               std::size_t k)
{
    ASSERT_EQ(want.buf.size(), got.buf.size());
    // The whole buffer: outputs and the padding around them.
    ASSERT_EQ(0, std::memcmp(want.buf.data(), got.buf.data(),
                             want.buf.size() * sizeof(float)))
        << what << " differs from its row path on " << kt.name
        << " at m=" << m << " n=" << n << " k=" << k;
}

/**
 * Bitwise equal, except that two NaNs match whatever their sign and
 * payload: which NaN operand an x86 FMA or add propagates depends on
 * the instruction form the compiler picked, and no contract pins it.
 */
void
expectSameBitsOrBothNaN(const Matrix &want, const Matrix &got,
                        const char *what, const KernelTable &kt,
                        std::size_t m, std::size_t n, std::size_t k)
{
    ASSERT_EQ(want.buf.size(), got.buf.size());
    for (std::size_t i = 0; i < want.buf.size(); ++i) {
        const float w = want.buf[i];
        const float g = got.buf[i];
        if (std::isnan(w) && std::isnan(g))
            continue;
        ASSERT_EQ(0, std::memcmp(&w, &g, sizeof(float)))
            << what << " differs from its row path on " << kt.name
            << " at m=" << m << " n=" << n << " k=" << k << " slot " << i
            << ": " << w << " vs " << g;
    }
}

TEST(GemmParityTest, ABtTileMatchesRowKernelBitwise)
{
    std::mt19937 rng(0xAB7);
    for (const KernelTable *kt : backends()) {
        for (const std::size_t m : kMs)
            for (const std::size_t k : kKs)
                for (const std::size_t n : kNs) {
                    if (!runShape(m, n, k))
                        continue;
                    Matrix a(m, k), b(n, k), c0(m, n);
                    randomize(a, rng);
                    randomize(b, rng);
                    randomize(c0, rng);
                    for (const bool accumulate : {false, true}) {
                        Matrix want = c0, got = c0;
                        rowABt(*kt, a, b, want, accumulate);
                        kt->gemmABt(a.data(), a.ld, b.data(), b.ld,
                                    got.data(), got.ld, m, n, k,
                                    accumulate);
                        expectSameBits(want, got, "gemmABt", *kt, m, n, k);
                    }
                }
    }
}

TEST(GemmParityTest, AxpyTileMatchesRowLoopBitwise)
{
    std::mt19937 rng(0xA9);
    for (const KernelTable *kt : backends()) {
        for (const std::size_t m : kMs)
            for (const std::size_t k : kKs)
                for (const std::size_t n : kNs) {
                    if (!runShape(m, n, k))
                        continue;
                    // A (m x k) walked by rows and its transpose stored
                    // as (k x m), walked by columns; ReLU-like zeros.
                    Matrix a(m, k), at(k, m), b(k, n), c0(m, n);
                    randomize(a, rng, 0.5);
                    for (std::size_t i = 0; i < m; ++i)
                        for (std::size_t kk = 0; kk < k; ++kk)
                            at.at(kk, i) = a.at(i, kk);
                    randomize(b, rng);
                    randomize(c0, rng);
                    for (const bool accumulate : {false, true}) {
                        Matrix start = c0;
                        if (!accumulate)
                            std::fill(start.buf.begin(), start.buf.end(),
                                      0.0f);
                        Matrix want = start, got = start, got_t = start;
                        rowAxpy(*kt, a.data(), a.ld, 1, b, want, k);
                        kt->gemmAxpy(a.data(), a.ld, 1, b.data(), b.ld,
                                     got.data(), got.ld, m, n, k);
                        kt->gemmAxpy(at.data(), 1, at.ld, b.data(), b.ld,
                                     got_t.data(), got_t.ld, m, n, k);
                        expectSameBits(want, got, "gemmAxpy", *kt, m, n, k);
                        expectSameBits(want, got_t, "gemmAxpy (A^T walk)",
                                       *kt, m, n, k);
                    }
                }
    }
}

TEST(GemmParityTest, SpecialValuesKeepTheRowPathBits)
{
    std::mt19937 rng(0x5BEC);
    const std::size_t ms[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 17};
    for (const KernelTable *kt : backends()) {
        for (const std::size_t m : ms)
            for (const std::size_t k : {std::size_t{7}, std::size_t{8},
                                        std::size_t{65}})
                for (const std::size_t n : {std::size_t{3}, std::size_t{17},
                                            std::size_t{40}}) {
                    Matrix a(m, k), bt(n, k), b(k, n), c0(m, n);
                    randomize(a, rng, 0.25);
                    randomize(bt, rng);
                    randomize(b, rng);
                    randomize(c0, rng);
                    sprinkleSpecials(a, rng);
                    sprinkleSpecials(bt, rng);
                    sprinkleSpecials(b, rng);
                    sprinkleSpecials(c0, rng);
                    for (const bool accumulate : {false, true}) {
                        Matrix want = c0, got = c0;
                        rowABt(*kt, a, bt, want, accumulate);
                        kt->gemmABt(a.data(), a.ld, bt.data(), bt.ld,
                                    got.data(), got.ld, m, n, k,
                                    accumulate);
                        expectSameBitsOrBothNaN(want, got,
                                                "gemmABt specials", *kt, m,
                                                n, k);
                    }
                    Matrix want = c0, got = c0;
                    rowAxpy(*kt, a.data(), a.ld, 1, b, want, k);
                    kt->gemmAxpy(a.data(), a.ld, 1, b.data(), b.ld,
                                 got.data(), got.ld, m, n, k);
                    expectSameBitsOrBothNaN(want, got, "gemmAxpy specials",
                                            *kt, m, n, k);
                }
    }
}

TEST(GemmParityTest, SkippedZeroCoefficientsShieldNonFiniteRows)
{
    // Row kk of B is all inf/NaN but every coefficient on it is +-0:
    // the skip keeps it out of C entirely (0 * inf would be NaN).
    const float inf = std::numeric_limits<float>::infinity();
    for (const KernelTable *kt : backends()) {
        const std::size_t m = 9, k = 5, n = 37;
        Matrix a(m, k), b(k, n), c(m, n);
        std::mt19937 rng(0x5C1);
        randomize(a, rng);
        randomize(b, rng);
        for (std::size_t i = 0; i < m; ++i)
            a.at(i, 2) = i % 2 == 0 ? 0.0f : -0.0f;
        for (std::size_t j = 0; j < n; ++j)
            b.at(2, j) = j % 2 == 0 ? inf : std::nanf("");
        std::fill(c.buf.begin(), c.buf.end(), 0.0f);
        kt->gemmAxpy(a.data(), a.ld, 1, b.data(), b.ld, c.data(), c.ld, m,
                     n, k);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t j = 0; j < n; ++j)
                ASSERT_TRUE(std::isfinite(c.at(i, j)))
                    << kt->name << " leaked a skipped row at " << i << ","
                    << j;
    }
}

TEST(GemmParityTest, BackendsAgreeWithScalarWithinTolerance)
{
    const KernelTable &ref = *kernelTable(KernelBackend::Scalar);
    std::mt19937 rng(0x70E);
    for (const KernelTable *kt : backends()) {
        for (const std::size_t m : {std::size_t{5}, std::size_t{17}})
            for (const std::size_t k : kKs)
                for (const std::size_t n : kNs) {
                    Matrix a(m, k), bt(n, k), b(k, n), c0(m, n);
                    randomize(a, rng, 0.3);
                    randomize(bt, rng);
                    randomize(b, rng);
                    randomize(c0, rng);

                    Matrix want = c0, got = c0;
                    ref.gemmABt(a.data(), a.ld, bt.data(), bt.ld,
                                want.data(), want.ld, m, n, k, true);
                    kt->gemmABt(a.data(), a.ld, bt.data(), bt.ld,
                                got.data(), got.ld, m, n, k, true);
                    for (std::size_t i = 0; i < m; ++i)
                        for (std::size_t j = 0; j < n; ++j) {
                            const double w = want.at(i, j);
                            ASSERT_NEAR(w, got.at(i, j),
                                        1e-6 + 1e-6 * std::abs(w))
                                << kt->name << " gemmABt " << m << "x" << n
                                << "x" << k;
                        }

                    want = c0;
                    got = c0;
                    ref.gemmAxpy(a.data(), a.ld, 1, b.data(), b.ld,
                                 want.data(), want.ld, m, n, k);
                    kt->gemmAxpy(a.data(), a.ld, 1, b.data(), b.ld,
                                 got.data(), got.ld, m, n, k);
                    for (std::size_t i = 0; i < m; ++i)
                        for (std::size_t j = 0; j < n; ++j) {
                            // |error| <= 2 (k + 1) u sum |terms|, u = 2^-24
                            double mag = std::abs(c0.at(i, j));
                            for (std::size_t kk = 0; kk < k; ++kk)
                                mag += std::abs(static_cast<double>(
                                                    a.at(i, kk)) *
                                                b.at(kk, j));
                            const double bound =
                                2.0 * static_cast<double>(k + 1) *
                                std::ldexp(1.0, -24) * mag;
                            ASSERT_NEAR(want.at(i, j), got.at(i, j), bound)
                                << kt->name << " gemmAxpy " << m << "x"
                                << n << "x" << k;
                        }
                }
    }
}

} // namespace
} // namespace lazydp
