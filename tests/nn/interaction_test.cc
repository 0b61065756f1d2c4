/** @file Tests for the dot-product feature interaction. */

#include <gtest/gtest.h>

#include <cstring>

#include "common/thread_pool.h"
#include "nn/interaction.h"
#include "rng/xoshiro.h"
#include "tensor/simd_kernels.h"

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

/**
 * The per-pair loops DotInteraction ran before the tiled kernels, kept
 * as the reference: one dot per pair for the forward, and for the
 * backward a zeroed gradient plus two axpy calls per nonzero pair
 * gradient, pairs in (i, j) order.
 */
void
referenceForward(const std::vector<const Tensor *> &inputs, Tensor &out)
{
    const std::size_t n = inputs.size();
    const std::size_t dim = inputs[0]->cols();
    for (std::size_t e = 0; e < inputs[0]->rows(); ++e) {
        float *dst = out.data() + e * out.cols();
        std::memcpy(dst, inputs[0]->data() + e * dim, dim * sizeof(float));
        std::size_t k = dim;
        for (std::size_t i = 0; i < n; ++i)
            for (std::size_t j = i + 1; j < n; ++j)
                dst[k++] = static_cast<float>(
                    simd::dot(inputs[i]->data() + e * dim,
                              inputs[j]->data() + e * dim, dim));
    }
}

void
referenceBackward(const Tensor &d_out,
                  const std::vector<const Tensor *> &inputs,
                  std::vector<Tensor> &d_inputs)
{
    const std::size_t n = inputs.size();
    const std::size_t dim = inputs[0]->cols();
    for (auto &t : d_inputs)
        t.zero();
    for (std::size_t e = 0; e < d_out.rows(); ++e) {
        const float *g = d_out.data() + e * d_out.cols();
        simd::add(d_inputs[0].data() + e * dim, d_inputs[0].data() + e * dim,
                  g, dim);
        std::size_t k = dim;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                const float gk = g[k++];
                if (gk == 0.0f)
                    continue;
                simd::axpy(d_inputs[i].data() + e * dim,
                           inputs[j]->data() + e * dim, dim, gk);
                simd::axpy(d_inputs[j].data() + e * dim,
                           inputs[i]->data() + e * dim, dim, gk);
            }
        }
    }
}

TEST(InteractionTest, MatchesPerPairReferenceBitwise)
{
    ThreadPool pool(3);
    ExecContext exec(&pool);
    // (num_inputs, dim): the benchmark's 27 x 128 plus odd shapes that
    // leave short tiles and vector tails.
    const std::pair<std::size_t, std::size_t> shapes[] = {
        {27, 128}, {2, 1}, {3, 7}, {9, 33}, {12, 64}, {41, 16}};
    std::uint64_t seed = 11;
    for (const auto &[n, dim] : shapes) {
        for (const std::size_t batch : {std::size_t{1}, std::size_t{37}}) {
            DotInteraction inter(n, dim);
            std::vector<Tensor> feats;
            std::vector<const Tensor *> inputs;
            feats.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                feats.push_back(randomTensor(batch, dim, ++seed));
            for (const auto &t : feats)
                inputs.push_back(&t);

            Tensor want(batch, inter.outputDim());
            Tensor got(batch, inter.outputDim());
            referenceForward(inputs, want);
            inter.forward(inputs, got, exec);
            ASSERT_EQ(0, std::memcmp(want.data(), got.data(),
                                     want.size() * sizeof(float)))
                << "forward n=" << n << " dim=" << dim;

            // Upstream gradient with exact zeros (skipped pairs),
            // including -0.0.
            Tensor d_out = randomTensor(batch, inter.outputDim(), ++seed);
            for (std::size_t i = 0; i < d_out.size(); i += 3)
                d_out.data()[i] = i % 2 == 0 ? 0.0f : -0.0f;
            std::vector<Tensor> want_d(n), got_d(n);
            std::vector<Tensor *> got_ptrs;
            for (std::size_t i = 0; i < n; ++i) {
                want_d[i].resize(batch, dim);
                got_d[i].resize(batch, dim);
                // backward overwrites its outputs; stale values must go
                for (std::size_t x = 0; x < got_d[i].size(); ++x)
                    got_d[i].data()[x] = 9.0f;
                got_ptrs.push_back(&got_d[i]);
            }
            referenceBackward(d_out, inputs, want_d);
            inter.backward(d_out, got_ptrs, exec);
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(0, std::memcmp(want_d[i].data(), got_d[i].data(),
                                         want_d[i].size() * sizeof(float)))
                    << "backward input " << i << " n=" << n
                    << " dim=" << dim;
        }
    }
}

TEST(InteractionTest, OutputDimFormula)
{
    DotInteraction inter(27, 128);
    EXPECT_EQ(inter.outputDim(), 128u + 27u * 26u / 2u);
}

TEST(InteractionTest, ForwardPassThroughAndPairDots)
{
    DotInteraction inter(3, 2);
    Tensor a(1, 2), b(1, 2), c(1, 2);
    a.at(0, 0) = 1.0f;
    a.at(0, 1) = 2.0f;
    b.at(0, 0) = 3.0f;
    b.at(0, 1) = 4.0f;
    c.at(0, 0) = 5.0f;
    c.at(0, 1) = 6.0f;
    Tensor out(1, inter.outputDim());
    inter.forward({&a, &b, &c}, out);
    // passthrough of a
    EXPECT_EQ(out.at(0, 0), 1.0f);
    EXPECT_EQ(out.at(0, 1), 2.0f);
    // dots: a.b = 11, a.c = 17, b.c = 39
    EXPECT_EQ(out.at(0, 2), 11.0f);
    EXPECT_EQ(out.at(0, 3), 17.0f);
    EXPECT_EQ(out.at(0, 4), 39.0f);
}

TEST(InteractionTest, BackwardNumericalCheck)
{
    const std::size_t n_in = 4;
    const std::size_t dim = 3;
    const std::size_t batch = 2;
    DotInteraction inter(n_in, dim);

    std::vector<Tensor> inputs;
    for (std::size_t i = 0; i < n_in; ++i)
        inputs.push_back(randomTensor(batch, dim, 100 + i));
    const Tensor g = randomTensor(batch, inter.outputDim(), 200);

    auto forward_loss = [&]() {
        std::vector<const Tensor *> ptrs;
        for (auto &t : inputs)
            ptrs.push_back(&t);
        Tensor out(batch, inter.outputDim());
        DotInteraction fresh(n_in, dim);
        fresh.forward(ptrs, out);
        return simd::dot(out.data(), g.data(), out.size());
    };

    // analytic grads
    std::vector<const Tensor *> ptrs;
    for (auto &t : inputs)
        ptrs.push_back(&t);
    Tensor out(batch, inter.outputDim());
    inter.forward(ptrs, out);
    std::vector<Tensor> d_inputs;
    std::vector<Tensor *> d_ptrs;
    for (std::size_t i = 0; i < n_in; ++i) {
        d_inputs.emplace_back(batch, dim);
        d_ptrs.push_back(&d_inputs[i]);
    }
    // build pointer list after vector is fully grown (reallocation!)
    d_ptrs.clear();
    for (auto &t : d_inputs)
        d_ptrs.push_back(&t);
    inter.backward(g, d_ptrs);

    const float eps = 1e-3f;
    for (std::size_t i = 0; i < n_in; ++i) {
        for (std::size_t e = 0; e < batch; ++e) {
            for (std::size_t d = 0; d < dim; ++d) {
                const float orig = inputs[i].at(e, d);
                inputs[i].at(e, d) = orig + eps;
                const double lp = forward_loss();
                inputs[i].at(e, d) = orig - eps;
                const double lm = forward_loss();
                inputs[i].at(e, d) = orig;
                const double num = (lp - lm) / (2.0 * eps);
                EXPECT_NEAR(d_inputs[i].at(e, d), num, 6e-2)
                    << "input " << i << " e " << e << " d " << d;
            }
        }
    }
}

TEST(InteractionTest, BackwardZeroGradGivesZero)
{
    DotInteraction inter(2, 2);
    Tensor a = randomTensor(3, 2, 1);
    Tensor b = randomTensor(3, 2, 2);
    Tensor out(3, inter.outputDim());
    inter.forward({&a, &b}, out);
    Tensor g(3, inter.outputDim()); // zeros
    Tensor da(3, 2), db(3, 2);
    inter.backward(g, {&da, &db});
    for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da.data()[i], 0.0f);
        EXPECT_EQ(db.data()[i], 0.0f);
    }
}

} // namespace
} // namespace lazydp
