#include "tensor/matmul.h"

#include <algorithm>

#include "common/macros.h"
#include "kernels/kernel_registry.h"
#include "tensor/simd_kernels.h"

// The DLRM GEMMs are embarrassingly parallel across output rows; each
// output's accumulation stays within one kernel call, in an order that
// does not depend on which rows share the call, so the results are
// bit-identical at any thread count (only the row partition changes).

namespace lazydp {

namespace {

/** Rows handed to one tiled kernel call at a time (a multiple of every
 *  backend's tile height, so only the last block has a short tile). */
constexpr std::size_t kRowBlock = 8;

/** Run body(row_lo, row_hi) over [0, m) in kRowBlock-row blocks. */
template <typename Body>
void
forRowBlocks(ExecContext &exec, std::size_t m, const Body &body)
{
    const std::size_t blocks = (m + kRowBlock - 1) / kRowBlock;
    parallelFor(exec, blocks, [&](std::size_t lo, std::size_t hi) {
        body(lo * kRowBlock, std::min(m, hi * kRowBlock));
    });
}

} // namespace

void
matmulABt(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
          ExecContext &exec)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    LAZYDP_ASSERT(b.cols() == k, "matmulABt inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulABt out shape");

    const KernelTable &kt = kernels();
    forRowBlocks(exec, m, [&](std::size_t lo, std::size_t hi) {
        kt.gemmABt(a.data() + lo * k, k, b.data(), k, c.data() + lo * n, n,
                   hi - lo, n, k, accumulate);
    });
}

void
matmulAB(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
         ExecContext &exec)
{
    const std::size_t m = a.rows();
    const std::size_t k = a.cols();
    const std::size_t n = b.cols();
    LAZYDP_ASSERT(b.rows() == k, "matmulAB inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulAB out shape");

    if (!accumulate)
        c.zero();
    // Row i of C accumulates a(i, kk) * row kk of B over ascending kk.
    const KernelTable &kt = kernels();
    forRowBlocks(exec, m, [&](std::size_t lo, std::size_t hi) {
        kt.gemmAxpy(a.data() + lo * k, k, 1, b.data(), n, c.data() + lo * n,
                    n, hi - lo, n, k);
    });
}

void
matmulAtB(const Tensor &a, const Tensor &b, Tensor &c, bool accumulate,
          ExecContext &exec)
{
    const std::size_t k = a.rows();
    const std::size_t m = a.cols();
    const std::size_t n = b.cols();
    LAZYDP_ASSERT(b.rows() == k, "matmulAtB inner-dim mismatch");
    LAZYDP_ASSERT(c.rows() == m && c.cols() == n, "matmulAtB out shape");

    if (!accumulate)
        c.zero();
    // Row i of C accumulates a(kk, i) * row kk of B: column i of A is
    // the coefficient row, walked with stride m.
    const KernelTable &kt = kernels();
    forRowBlocks(exec, m, [&](std::size_t lo, std::size_t hi) {
        kt.gemmAxpy(a.data() + lo, 1, m, b.data(), n, c.data() + lo * n, n,
                    hi - lo, n, k);
    });
}

void
addRowBias(Tensor &x, const Tensor &bias)
{
    LAZYDP_ASSERT(bias.rows() == 1 && bias.cols() == x.cols(),
                  "addRowBias shape mismatch");
    for (std::size_t r = 0; r < x.rows(); ++r)
        simd::add(x.data() + r * x.cols(), x.data() + r * x.cols(),
                  bias.data(), x.cols());
}

void
reduceRows(const Tensor &dy, Tensor &bias_grad)
{
    LAZYDP_ASSERT(bias_grad.rows() == 1 && bias_grad.cols() == dy.cols(),
                  "reduceRows shape mismatch");
    bias_grad.zero();
    for (std::size_t r = 0; r < dy.rows(); ++r)
        simd::add(bias_grad.data(), bias_grad.data(),
                  dy.data() + r * dy.cols(), dy.cols());
}

} // namespace lazydp
