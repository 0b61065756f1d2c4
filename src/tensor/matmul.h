/**
 * @file
 * GEMMs for the DLRM MLP layers, dispatched to the kernel registry.
 *
 * Each product has one per-output operation order, and every backend,
 * tile shape and thread count reproduces it exactly:
 *
 *  - matmulABt: each output is float(dot(a_i, b_j)), the registry's
 *    blocked dot (float products widened to double, kReduceBlock
 *    partials added in block order; see kernels/kernel_registry.h).
 *  - matmulAB / matmulAtB: row i of C starts from zero (or its old
 *    value when accumulating) and receives coef * row kk of B for every
 *    kk in ascending order whose coefficient is nonzero, as a loop of
 *    axpy calls would; zero coefficients of either sign are skipped.
 *
 * matmulABt always runs the register-tiled KernelTable::gemmABt over
 * blocks of rows, serve batches of one row included (the tile then
 * runs one-row strips, as fast as the row kernel gemvDotRow);
 * matmulAB and matmulAtB always run KernelTable::gemmAxpy.
 */

#ifndef LAZYDP_TENSOR_MATMUL_H
#define LAZYDP_TENSOR_MATMUL_H

#include <cstddef>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace lazydp {

/**
 * C = A * B^T.
 *
 * A is (m x k), B is (n x k) — i.e. B is stored row-major with rows of
 * length k, matching a Linear layer whose weight is (out x in) applied
 * to activations (batch x in).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 * @param exec rows of C are partitioned across the context's threads
 */
void matmulABt(const Tensor &a, const Tensor &b, Tensor &c,
               bool accumulate = false,
               ExecContext &exec = ExecContext::serial());

/**
 * C = A * B.
 *
 * A is (m x k), B is (k x n). Used for backward data:
 * dX = dY (batch x out) * W (out x in).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 */
void matmulAB(const Tensor &a, const Tensor &b, Tensor &c,
              bool accumulate = false,
              ExecContext &exec = ExecContext::serial());

/**
 * C = A^T * B.
 *
 * A is (k x m), B is (k x n). Used for weight gradients:
 * dW = dY^T (out x batch) * X (batch x in) expressed as
 * matmulAtB(dY, X, dW).
 *
 * @param accumulate when true, adds into C instead of overwriting.
 */
void matmulAtB(const Tensor &a, const Tensor &b, Tensor &c,
               bool accumulate = false,
               ExecContext &exec = ExecContext::serial());

/** y[r] += bias for every row r of (batch x dim) tensor. */
void addRowBias(Tensor &x, const Tensor &bias);

/** bias_grad[c] = sum_r dy(r, c). */
void reduceRows(const Tensor &dy, Tensor &bias_grad);

} // namespace lazydp

#endif // LAZYDP_TENSOR_MATMUL_H
