#include "nn/interaction.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/macros.h"
#include "kernels/kernel_registry.h"

namespace lazydp {

DotInteraction::DotInteraction(std::size_t num_inputs, std::size_t dim)
    : numInputs_(num_inputs), dim_(dim)
{
    LAZYDP_ASSERT(num_inputs >= 2, "interaction needs >= 2 inputs");
}

std::size_t
DotInteraction::outputDim() const
{
    return dim_ + numInputs_ * (numInputs_ - 1) / 2;
}

void
DotInteraction::forward(const std::vector<const Tensor *> &inputs,
                        Tensor &out, ExecContext &exec)
{
    forwardInto(inputs, out, cache_, exec);
}

void
DotInteraction::forwardInto(const std::vector<const Tensor *> &inputs,
                            Tensor &out, Tensor &cache,
                            ExecContext &exec) const
{
    LAZYDP_ASSERT(inputs.size() == numInputs_, "interaction input count");
    const std::size_t batch = inputs[0]->rows();
    for (const Tensor *t : inputs) {
        LAZYDP_ASSERT(t->rows() == batch && t->cols() == dim_,
                      "interaction input shape");
    }
    LAZYDP_ASSERT(out.rows() == batch && out.cols() == outputDim(),
                  "interaction output shape");

    if (cache.rows() != batch || cache.cols() != numInputs_ * dim_)
        cache.resize(batch, numInputs_ * dim_);

    // Per example, the features are gathered into the example's cache
    // row Z (num_inputs x dim), and the pair dots are the strict upper
    // triangle of the Gram matrix Z Z^T, computed by the tiled A * B^T
    // kernel a block of rows at a time: rows [i0, i0 + kRows) against
    // columns (i0, num_inputs).
    constexpr std::size_t kRows = 8;
    const std::size_t n = numInputs_;
    const KernelTable &kt = kernels();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> gram;
        gram.resize(kRows * n);
        for (std::size_t e = lo; e < hi; ++e) {
            float *dst = out.data() + e * outputDim();
            float *feats = cache.data() + e * n * dim_;
            for (std::size_t i = 0; i < n; ++i) {
                std::memcpy(feats + i * dim_, inputs[i]->data() + e * dim_,
                            dim_ * sizeof(float));
            }
            // pass-through of the dense (bottom MLP) vector
            std::memcpy(dst, feats, dim_ * sizeof(float));
            std::size_t k = dim_;
            for (std::size_t i0 = 0; i0 + 1 < n; i0 += kRows) {
                const std::size_t rows = std::min(kRows, n - 1 - i0);
                const std::size_t cols = n - 1 - i0;
                kt.gemmABt(feats + i0 * dim_, dim_, feats + (i0 + 1) * dim_,
                           dim_, gram.data(), n, rows, cols, dim_, false);
                // row i's pairs (i, j > i) start at column i - i0
                for (std::size_t r = 0; r < rows; ++r) {
                    std::memcpy(dst + k, gram.data() + r * n + r,
                                (cols - r) * sizeof(float));
                    k += cols - r;
                }
            }
        }
    });
}

void
DotInteraction::backward(const Tensor &d_out,
                         const std::vector<Tensor *> &d_inputs,
                         ExecContext &exec) const
{
    backwardFrom(d_out, d_inputs, cache_, exec);
}

void
DotInteraction::backwardFrom(const Tensor &d_out,
                             const std::vector<Tensor *> &d_inputs,
                             const Tensor &cache, ExecContext &exec) const
{
    LAZYDP_ASSERT(d_inputs.size() == numInputs_, "interaction grad count");
    const std::size_t batch = d_out.rows();
    LAZYDP_ASSERT(d_out.cols() == outputDim(), "interaction grad width");
    LAZYDP_ASSERT(cache.rows() == batch,
                  "interaction backward without forward");

    for (const Tensor *t : d_inputs) {
        LAZYDP_ASSERT(t->rows() == batch && t->cols() == dim_,
                      "interaction d_input shape");
    }

    // Per example, dZ = pass-through + G Z, where G is the symmetric
    // (zero-diagonal) matrix of pair gradients: row r of dZ receives
    // g(r, s) * z_s for every s in ascending order, skipping zero
    // gradients -- exactly the zero-skipping axpy order of matmulAB,
    // so the tiled axpy kernel computes it.
    const std::size_t n = numInputs_;
    const KernelTable &kt = kernels();
    parallelFor(exec, batch, [&](std::size_t lo, std::size_t hi) {
        thread_local std::vector<float> coef;
        thread_local std::vector<float> dz;
        coef.resize(n * n);
        dz.resize(n * dim_);
        for (std::size_t e = lo; e < hi; ++e) {
            const float *g = d_out.data() + e * outputDim();
            const float *feats = cache.data() + e * n * dim_;
            std::size_t k = dim_;
            for (std::size_t i = 0; i < n; ++i) {
                coef[i * n + i] = 0.0f;
                for (std::size_t j = i + 1; j < n; ++j) {
                    coef[i * n + j] = g[k];
                    coef[j * n + i] = g[k];
                    ++k;
                }
            }
            kt.fill(dz.data(), dz.size(), 0.0f);
            // pass-through gradient into input 0
            kt.add(dz.data(), dz.data(), g, dim_);
            kt.gemmAxpy(coef.data(), n, 1, feats, dim_, dz.data(), dim_, n,
                        dim_, n);
            for (std::size_t i = 0; i < n; ++i) {
                std::memcpy(d_inputs[i]->data() + e * dim_,
                            dz.data() + i * dim_, dim_ * sizeof(float));
            }
        }
    });
}

} // namespace lazydp
