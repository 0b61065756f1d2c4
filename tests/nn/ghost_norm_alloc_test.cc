/**
 * @file
 * Allocation counts on two paths that promise not to allocate:
 *  - the embedding ghost norm allocates nothing per example: the
 *    number of heap allocations across
 *    DlrmModel::accumulateEmbeddingGhostNormSq is the same at batch 64
 *    and batch 256;
 *  - a serve lane's steady-state forward (serve/serve_engine.cc) makes
 *    the same number of allocations at every micro-batch size up to
 *    the one its workspace has seen.
 * This binary replaces the global operator new to count allocations
 * (counting only while armed).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "data/synthetic_dataset.h"
#include "nn/dlrm.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocations{0};

} // namespace

void *
operator new(std::size_t bytes)
{
    if (g_counting.load(std::memory_order_relaxed))
        g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(bytes == 0 ? 1 : bytes))
        return p;
    throw std::bad_alloc();
}

// Out of line, so the compiler does not pair these free() calls with a
// new-expression at an inlined call site and warn about a mismatch.
[[gnu::noinline]] void
operator delete(void *p) noexcept
{
    std::free(p);
}

[[gnu::noinline]] void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace lazydp {
namespace {

/** Allocations made by one ghost-norm call over a @p batch -example lot. */
std::size_t
ghostNormAllocations(std::size_t batch)
{
    auto mc = ModelConfig::tiny();
    mc.rowsPerTable = 16; // pooling 2 over 16 rows: many duplicate ids
    mc.pooling = 2;
    DlrmModel model(mc, 23);

    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = batch;
    dc.seed = 0xA11C;
    SyntheticDataset ds(dc);
    const MiniBatch mb = ds.batch(0);

    DlrmWorkspace ws;
    Tensor logits;
    model.forward(mb, logits, ws, ExecContext::serial());
    Tensor d_logits(batch, 1);
    for (std::size_t e = 0; e < batch; ++e)
        d_logits.at(e, 0) = 0.25f;
    model.backward(d_logits, nullptr, /*skip_param_grads=*/true, ws,
                   nullptr, ExecContext::serial());

    std::vector<double> norms(batch, 0.0);
    g_allocations = 0;
    g_counting = true;
    model.accumulateEmbeddingGhostNormSq(mb, norms, ws);
    g_counting = false;
    return g_allocations.load();
}

TEST(GhostNormAllocTest, AllocationsDoNotGrowWithBatch)
{
    EXPECT_EQ(ghostNormAllocations(64), ghostNormAllocations(256));
}

// serve_engine.cc says steady-state serving allocates nothing. It does
// not yet: every warm forward makes 3 allocations whatever the batch
// size -- the table-gather closure handed to parallelFor as a
// std::function (32 B), the interaction's input-pointer vector (32 B,
// 8 B per input) and a 56 B closure inside DotInteraction::forwardInto.
// Until those go, the test pins the count as flat in the batch size.
TEST(ServeForwardAllocTest, WarmForwardAllocationsDoNotGrowWithBatch)
{
    const auto mc = ModelConfig::tiny();
    const DlrmModel model(mc, 23);
    constexpr std::size_t kMaxBatch = 8;
    std::vector<MiniBatch> batches;
    for (std::size_t m = 1; m <= kMaxBatch; ++m) {
        DatasetConfig dc;
        dc.numDense = mc.numDense;
        dc.numTables = mc.numTables;
        dc.rowsPerTable = mc.rowsPerTable;
        dc.pooling = mc.pooling;
        dc.batchSize = m;
        dc.seed = 0x5E12 + m;
        batches.push_back(SyntheticDataset(dc).batch(0));
    }

    // A serve lane's scoring state: one workspace and logits tensor,
    // reused for every micro-batch, warmed by one full-size batch.
    DlrmWorkspace ws;
    Tensor logits;
    model.forward(batches.back(), logits, ws, ExecContext::serial());
    std::vector<std::size_t> allocations;
    for (const MiniBatch &mb : batches) {
        g_allocations = 0;
        g_counting = true;
        model.forward(mb, logits, ws, ExecContext::serial());
        g_counting = false;
        allocations.push_back(g_allocations.load());
    }
    for (std::size_t m = 1; m <= kMaxBatch; ++m)
        EXPECT_EQ(allocations[m - 1], allocations[0])
            << "micro-batch of " << m;
}

} // namespace
} // namespace lazydp
