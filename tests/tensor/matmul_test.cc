/** @file Unit tests for the GEMM kernels against naive references. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/thread_pool.h"
#include "rng/xoshiro.h"
#include "tensor/matmul.h"

namespace lazydp {
namespace {

Tensor
randomTensor(std::size_t r, std::size_t c, std::uint64_t seed)
{
    Tensor t(r, c);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < t.size(); ++i)
        t.data()[i] = 2.0f * rng.nextFloat() - 1.0f;
    return t;
}

struct Shape
{
    std::size_t m, k, n;
};

class MatmulShapeTest : public ::testing::TestWithParam<Shape>
{
};

TEST_P(MatmulShapeTest, ABtMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 1);
    const Tensor b = randomTensor(n, k, 2);
    Tensor c(m, n);
    matmulABt(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(i, kk)) * b.at(j, kk);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4) << i << "," << j;
        }
    }
}

TEST_P(MatmulShapeTest, ABMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(m, k, 3);
    const Tensor b = randomTensor(k, n, 4);
    Tensor c(m, n);
    matmulAB(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(i, kk)) * b.at(kk, j);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

TEST_P(MatmulShapeTest, AtBMatchesNaive)
{
    const auto [m, k, n] = GetParam();
    const Tensor a = randomTensor(k, m, 5);
    const Tensor b = randomTensor(k, n, 6);
    Tensor c(m, n);
    matmulAtB(a, b, c);
    for (std::size_t i = 0; i < m; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            double ref = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                ref += static_cast<double>(a.at(kk, i)) * b.at(kk, j);
            EXPECT_NEAR(c.at(i, j), ref, 1e-4);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, MatmulShapeTest,
    ::testing::Values(Shape{1, 1, 1}, Shape{2, 3, 4}, Shape{8, 8, 8},
                      Shape{5, 17, 3}, Shape{16, 33, 9},
                      Shape{31, 64, 31}));

TEST(MatmulTest, AccumulateAddsIntoOutput)
{
    const Tensor a = randomTensor(2, 3, 7);
    const Tensor b = randomTensor(4, 3, 8);
    Tensor c(2, 4);
    c.fill(1.0f);
    Tensor c2(2, 4);
    matmulABt(a, b, c2);
    matmulABt(a, b, c, /*accumulate=*/true);
    for (std::size_t i = 0; i < c.size(); ++i)
        EXPECT_NEAR(c.data()[i], c2.data()[i] + 1.0f, 1e-5);
}

TEST(MatmulTest, AddRowBiasBroadcasts)
{
    Tensor x(3, 2);
    x.fill(1.0f);
    Tensor bias(1, 2);
    bias.data()[0] = 0.5f;
    bias.data()[1] = -0.5f;
    addRowBias(x, bias);
    for (std::size_t r = 0; r < 3; ++r) {
        EXPECT_EQ(x.at(r, 0), 1.5f);
        EXPECT_EQ(x.at(r, 1), 0.5f);
    }
}

TEST(MatmulTest, ReduceRowsSumsColumns)
{
    Tensor dy(3, 2);
    for (std::size_t r = 0; r < 3; ++r) {
        dy.at(r, 0) = static_cast<float>(r + 1);
        dy.at(r, 1) = 10.0f;
    }
    Tensor bias_grad(1, 2);
    reduceRows(dy, bias_grad);
    EXPECT_EQ(bias_grad.at(0, 0), 6.0f);
    EXPECT_EQ(bias_grad.at(0, 1), 30.0f);
}

bool
sameBits(const Tensor &a, const Tensor &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(MatmulTest, ThreadedProductsMatchSerialBitwise)
{
    // Row counts on both sides of the tile switch and across row-block
    // edges; ReLU-like zeros in the axpy operands. Pool workers share A
    // and B and write disjoint rows of C.
    ThreadPool pool(4);
    ExecContext exec(&pool);
    const Shape shapes[] = {{1, 33, 17},   {3, 64, 9},    {4, 65, 40},
                            {17, 479, 31}, {256, 128, 64}, {61, 13, 130}};
    std::uint64_t seed = 100;
    for (const auto &[m, k, n] : shapes) {
        const Tensor a = randomTensor(m, k, ++seed);
        const Tensor bt = randomTensor(n, k, ++seed);
        Tensor serial(m, n), threaded(m, n);
        matmulABt(a, bt, serial);
        matmulABt(a, bt, threaded, false, exec);
        EXPECT_TRUE(sameBits(serial, threaded)) << "ABt m=" << m;

        Tensor sparse = randomTensor(m, k, ++seed);
        for (std::size_t i = 0; i < sparse.size(); i += 2)
            sparse.data()[i] = 0.0f;
        const Tensor b = randomTensor(k, n, ++seed);
        matmulAB(sparse, b, serial);
        matmulAB(sparse, b, threaded, false, exec);
        EXPECT_TRUE(sameBits(serial, threaded)) << "AB m=" << m;

        Tensor sparse_t(k, m);
        for (std::size_t i = 0; i < m; ++i)
            for (std::size_t kk = 0; kk < k; ++kk)
                sparse_t.at(kk, i) = sparse.at(i, kk);
        Tensor serial_t(m, n), threaded_t(m, n);
        matmulAtB(sparse_t, b, serial_t);
        matmulAtB(sparse_t, b, threaded_t, false, exec);
        EXPECT_TRUE(sameBits(serial_t, threaded_t)) << "AtB m=" << m;
        EXPECT_TRUE(sameBits(serial, serial_t)) << "AtB != AB m=" << m;
    }
}

} // namespace
} // namespace lazydp
