/**
 * @file
 * Runtime-dispatched SIMD kernel registry for the DP hot loops.
 *
 * Every data-streaming primitive the training loop leans on — the MLP
 * GEMM row kernel and its register-tiled GEMMs, the fused
 * square-accumulate behind per-example gradient norms, the
 * scale-and-add of clipped gradient accumulation, the keyed-Philox
 * Box-Muller fill, and the embedding pooling/scatter kernels — exists
 * in two implementations:
 *
 *  - a **scalar** reference, plain C++ loops compiled for the baseline
 *    ISA, and
 *  - an **AVX2 (+FMA)** variant, compiled in its own translation unit
 *    with `-mavx2 -mfma` so it exists even in portable
 *    (`-DLAZYDP_NATIVE=OFF`) builds and is selected at RUNTIME.
 *
 * One backend is active per process, chosen at startup from (highest
 * priority first) the `--kernels=scalar|avx2|auto` flag of the tools
 * and benches, the `LAZYDP_KERNELS` environment variable, or `auto`
 * (AVX2 whenever the executing CPU supports AVX2+FMA, per the
 * common/cpu_features cpuid probe).
 *
 * Determinism contract:
 *
 *  - Per kernel choice, results are bit-exact run to run: reductions
 *    use fixed-width blocked accumulation (kReduceBlock elements per
 *    partial), and block boundaries depend on the problem size only —
 *    never on the ISA vector width, the thread count, or alignment.
 *    The threads/pipeline bit-identity matrices therefore
 *    hold under either backend.
 *  - Across kernel choices, element-wise kernels without FMA
 *    opportunities (fill/add/scale/relu/pool) are bit-identical;
 *    FMA-bearing kernels (axpy/axpby/scatter/gemv and the tiled
 *    GEMMs) and the blocked reductions agree within a few ULP; the
 *    Box-Muller fill agrees within |diff| < 1e-5 * sigma per sample
 *    (polynomial vs libm transcendentals). The kernel-parity suite
 *    (tests/kernels/) pins these tolerances.
 *  - The scalar backend is the golden reference: the golden-model
 *    regression hashes (tests/kernels/golden_model_test.cc) are
 *    recorded under kernels=scalar.
 */

#ifndef LAZYDP_KERNELS_KERNEL_REGISTRY_H
#define LAZYDP_KERNELS_KERNEL_REGISTRY_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "rng/gaussian_kernel.h"

namespace lazydp {

class Philox4x32;

/** Which kernel implementation set to dispatch to. */
enum class KernelBackend
{
    Auto,   //!< resolve to Avx2 when available, else Scalar
    Scalar, //!< portable reference implementations (the golden path)
    Avx2    //!< AVX2+FMA vector implementations
};

/**
 * Fixed accumulation block width (elements) shared by every reduction
 * kernel in every backend. A multiple of all supported vector widths so
 * blocked partials land on identical boundaries regardless of ISA.
 */
constexpr std::size_t kReduceBlock = 64;

/**
 * One backend's implementations of the hot primitives. All pointers are
 * non-null in a registered table; slices may be unaligned and
 * zero-length (every kernel must handle n == 0).
 */
struct KernelTable
{
    KernelBackend backend; //!< concrete backend (never Auto)
    const char *name;      //!< "scalar" / "avx2"
    GaussianKernel gaussian; //!< Box-Muller implementation to match

    /** dst[i] = v */
    void (*fill)(float *dst, std::size_t n, float v);
    /** y[i] += a * x[i] — clipped-grad accumulation / model update. */
    void (*axpy)(float *y, const float *x, std::size_t n, float a);
    /** y[i] = a * x[i] + b * y[i] — update fused with weight decay. */
    void (*axpby)(float *y, const float *x, std::size_t n, float a,
                  float b);
    /** dst[i] = a[i] + b[i] */
    void (*add)(float *dst, const float *a, const float *b,
                std::size_t n);
    /** dst[i] *= a */
    void (*scale)(float *dst, std::size_t n, float a);
    /** sum_i a[i]*b[i], double accumulation in kReduceBlock blocks. */
    double (*dot)(const float *a, const float *b, std::size_t n);
    /** Fused square-accumulate sum_i x[i]^2 (per-example norms). */
    double (*squaredNorm)(const float *x, std::size_t n);
    /** dst[i] = max(x[i], 0) */
    void (*reluForward)(float *dst, const float *x, std::size_t n);
    /** dx[i] = x[i] > 0 ? dy[i] : 0 */
    void (*reluBackward)(float *dx, const float *x, const float *dy,
                         std::size_t n);

    /**
     * GEMV row kernel of C = A * B^T: crow[j] (+)= dot(arow, b_j) for
     * j in [0, n), where b_j = b + j*k is row j of the (n x k) matrix
     * B. The reference row path that gemmABt must reproduce; the MLP
     * GEMMs themselves run gemmABt.
     */
    void (*gemvDotRow)(const float *arow, const float *b, float *crow,
                       std::size_t n, std::size_t k, bool accumulate);

    /**
     * Tiled C = A * B^T over strided row-major slices:
     * c[i*ldc + j] (+)= float(dot(a + i*lda, b + j*ldb, k)) for i < m,
     * j < n. Every output is bit-identical to the backend's gemvDotRow
     * (and dot): the same kReduceBlock partials summed in the same
     * order. The scalar entry is the per-row gemvDotRow loop; the AVX2
     * entry holds a register tile of outputs and streams A and B once
     * per tile instead of once per output row.
     */
    void (*gemmABt)(const float *a, std::size_t lda, const float *b,
                    std::size_t ldb, float *c, std::size_t ldc,
                    std::size_t m, std::size_t n, std::size_t k,
                    bool accumulate);

    /**
     * Zero-skipping axpy GEMM, the order of C += A * B as a row loop of
     * axpy calls: for every i < m and kk = 0..k-1 in ascending order
     * with coef = a[i*a_rs + kk*a_cs] != 0,
     * c_i[j] += coef * b[kk*ldb + j] for j < n (one fused multiply-add
     * per element on the AVX2 backend, the backend's axpy otherwise).
     * Zero coefficients (either sign) are skipped, so a NaN or inf in a
     * skipped row of B never reaches C. (a_rs, a_cs) = (lda, 1) walks A
     * (m x k); (1, lda) walks A^T of a (k x m) matrix.
     */
    void (*gemmAxpy)(const float *a, std::size_t a_rs, std::size_t a_cs,
                     const float *b, std::size_t ldb, float *c,
                     std::size_t ldc, std::size_t m, std::size_t n,
                     std::size_t k);

    /**
     * Embedding sum-pooling: dst[j] = sum_i table[rows[i]*dim + j]
     * (dst overwritten; count may be 0 -> dst zeroed). Rows may repeat.
     */
    void (*poolRows)(float *dst, const float *table,
                     const std::uint32_t *rows, std::size_t count,
                     std::size_t dim);

    /**
     * Sparse scatter-update: table[rows[i]*dim + j] += a * vals[i*dim+j]
     * for every i in [0, count). Rows MUST be unique (callers pass
     * coalesced row lists) so destination rows never alias.
     */
    void (*scatterAxpyRows)(float *table, const std::uint32_t *rows,
                            const float *vals, std::size_t count,
                            std::size_t dim, float a);

    /**
     * Roofline microbenchmark kernel (paper Figure 6): a dependent
     * chain of n_ops alternating mul/add per element.
     * @return flop count (n * n_ops).
     */
    std::size_t (*streamWithOps)(float *dst, const float *x,
                                 std::size_t n, int n_ops);

    /**
     * Keyed Box-Muller Gaussian fill: writes (or accumulates) scale*z
     * for dim samples where sample 4b+j derives from Philox block
     * (ctr_hi, lo_base + b). Counter consumption is identical across
     * backends; see rng/gaussian.h for the full contract.
     */
    void (*gaussianFillKeyed)(const Philox4x32 &philox,
                              std::uint64_t ctr_hi, std::uint64_t lo_base,
                              float *dst, std::size_t dim, float sigma,
                              float scale, bool accumulate);
};

/**
 * Parse a backend name ("scalar", "avx2", "auto"; case-sensitive).
 * @return true on success (out untouched on failure).
 */
bool parseKernelBackend(const std::string &s, KernelBackend &out);

/** @return canonical name of a backend ("auto"/"scalar"/"avx2"). */
const char *kernelBackendName(KernelBackend b);

/** @return true if @p b can execute on this build + CPU. */
bool kernelBackendAvailable(KernelBackend b);

/**
 * Select the process-wide active backend. Auto resolves to Avx2 when
 * available, else Scalar; an explicit request for an unavailable
 * backend warns and falls back to Scalar (so a forced
 * LAZYDP_KERNELS=avx2 CI matrix leg degrades gracefully on old
 * hardware instead of crashing).
 *
 * Call BEFORE constructing engines: elementwise/reduction kernels
 * follow the new table immediately, but the Box-Muller choice is
 * latched when a NoiseProvider/GaussianSampler resolves
 * GaussianKernel::Auto at construction — deliberately, so one run's
 * noise stream never switches implementations mid-flight. An engine
 * built under the old backend keeps its old noise kernel.
 */
void setKernelBackend(KernelBackend b);

/** @return the active backend (resolved, never Auto). */
KernelBackend activeKernelBackend();

/**
 * @return the active kernel table. First use resolves the
 * LAZYDP_KERNELS environment variable (or Auto when unset/garbage).
 */
const KernelTable &kernels();

/**
 * @return the table for a concrete backend, or nullptr when it cannot
 * run here. The parity tests iterate backends through this without
 * flipping the process-wide selection.
 */
const KernelTable *kernelTable(KernelBackend b);

} // namespace lazydp

#endif // LAZYDP_KERNELS_KERNEL_REGISTRY_H
