/**
 * @file
 * Delta (copy-on-write) snapshot publishing:
 *
 * 1. PARITY: the model a Delta store publishes is row-for-row
 *    bit-identical to a Full store's copy -- across engines (sparse
 *    oracles AND dense-fallback ones) x pipeline {off, on} x threads
 *    {1, 2, 4, 8}, publishing after every iteration.
 * 2. SHARING INVARIANTS: pages whose rows were untouched since the
 *    previous version are the SAME TablePage object (pointer-equal) in
 *    both snapshots; the tracker is consumed (reset) by publish.
 * 3. RECYCLING: retired shells and pages flow back through the
 *    free-list once their readers drop them.
 * 4. SEALING: mprotect'ed pages still serve correct bits.
 * 5. LIVENESS (TSan leg): serve lanes score concurrently with a
 *    --publish-every=1 delta-publishing trainer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/factory.h"
#include "data/data_loader.h"
#include "data/synthetic_dataset.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"
#include "serve/snapshot_store.h"
#include "train/dirty_tracker.h"
#include "train/trainer.h"

namespace lazydp {
namespace {

ModelConfig
tinyConfig()
{
    auto mc = ModelConfig::tiny();
    mc.rowsPerTable = 64;
    return mc;
}

DatasetConfig
dataConfig(const ModelConfig &mc)
{
    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = 8;
    dc.seed = 77;
    return dc;
}

TrainHyper
testHyper()
{
    TrainHyper h;
    h.noiseSeed = 0xC4C4;
    return h;
}

/**
 * Row-for-row bytewise equality that works for BOTH storage layouts
 * (dense tensor and bound pages) via the const rowPtr indirection.
 */
bool
modelsRowEqual(const DlrmModel &a, const DlrmModel &b)
{
    for (std::size_t t = 0; t < a.tables().size(); ++t) {
        const EmbeddingTable &ta = a.tables()[t];
        const EmbeddingTable &tb = b.tables()[t];
        if (ta.rows() != tb.rows() || ta.dim() != tb.dim())
            return false;
        for (std::uint64_t r = 0; r < ta.rows(); ++r)
            if (std::memcmp(ta.rowPtr(r), tb.rowPtr(r),
                            ta.dim() * sizeof(float)) != 0)
                return false;
    }
    auto mlp_equal = [](const Mlp &ma, const Mlp &mb) {
        for (std::size_t l = 0; l < ma.layers().size(); ++l) {
            const auto &la = ma.layers()[l];
            const auto &lb = mb.layers()[l];
            if (std::memcmp(la.weight().data(), lb.weight().data(),
                            la.weight().size() * sizeof(float)) != 0)
                return false;
            if (std::memcmp(la.bias().data(), lb.bias().data(),
                            la.bias().size() * sizeof(float)) != 0)
                return false;
        }
        return true;
    };
    return mlp_equal(a.bottomMlp(), b.bottomMlp()) &&
           mlp_equal(a.topMlp(), b.topMlp());
}

// --- DirtyRowTracker unit tests -------------------------------------

TEST(DirtyRowTrackerTest, MarksAtPageGranularity)
{
    DirtyRowTracker tracker({100, 40}, /*page_rows=*/16);
    EXPECT_EQ(tracker.numTables(), 2u);
    EXPECT_EQ(tracker.pageCount(0), 7u); // ceil(100/16)
    EXPECT_EQ(tracker.pageCount(1), 3u); // ceil(40/16)
    EXPECT_EQ(tracker.dirtyPageCount(), 0u);

    const std::uint32_t rows[] = {0, 15, 17, 99};
    tracker.markRows(0, rows);
    EXPECT_TRUE(tracker.pageDirty(0, 0));  // rows 0, 15
    EXPECT_TRUE(tracker.pageDirty(0, 1));  // row 17
    EXPECT_FALSE(tracker.pageDirty(0, 2));
    EXPECT_TRUE(tracker.pageDirty(0, 6));  // row 99
    EXPECT_FALSE(tracker.pageDirty(1, 0)); // other table untouched
    EXPECT_EQ(tracker.dirtyPageCount(), 3u);
}

TEST(DirtyRowTrackerTest, MarkAllDirtyCoversEveryPageUntilReset)
{
    DirtyRowTracker tracker({100, 40}, /*page_rows=*/16);
    tracker.markAllDirty();
    EXPECT_TRUE(tracker.allDirty());
    EXPECT_TRUE(tracker.pageDirty(0, 3));
    EXPECT_TRUE(tracker.pageDirty(1, 2));
    EXPECT_EQ(tracker.dirtyPageCount(), 10u);

    tracker.reset();
    EXPECT_FALSE(tracker.allDirty());
    EXPECT_EQ(tracker.dirtyPageCount(), 0u);
    EXPECT_FALSE(tracker.pageDirty(0, 3));
}

TEST(DirtyRowTrackerTest, ResetClearsRowMarks)
{
    DirtyRowTracker tracker({64}, /*page_rows=*/8);
    const std::uint32_t rows[] = {5, 60};
    tracker.markRows(0, rows);
    EXPECT_EQ(tracker.dirtyPageCount(), 2u);
    tracker.reset();
    EXPECT_EQ(tracker.dirtyPageCount(), 0u);
}

// --- Delta-store publication ----------------------------------------

/** @return a store with the given mode and a small page size. */
SnapshotOptions
deltaOptions(std::size_t page_rows = 16, bool seal = false)
{
    SnapshotOptions o;
    o.mode = SnapshotMode::Delta;
    o.pageRows = page_rows;
    o.sealPages = seal;
    return o;
}

TEST(DeltaSnapshotTest, FirstPublishCopiesEverythingWithoutATracker)
{
    const ModelConfig mc = tinyConfig();
    DlrmModel model(mc, 42);
    ModelSnapshotStore store(deltaOptions());

    const PublishReceipt r = store.publish(model, 3);
    auto snap = store.current();
    ASSERT_NE(snap, nullptr);
    EXPECT_EQ(snap->mode, SnapshotMode::Delta);
    EXPECT_EQ(snap->version, 1u);
    EXPECT_EQ(snap->iteration, 3u);
    EXPECT_TRUE(snap->model.tables()[0].paged());
    EXPECT_TRUE(modelsRowEqual(snap->model, model));

    std::uint64_t total_rows = 0;
    for (const auto &t : model.tables())
        total_rows += t.rows();
    EXPECT_EQ(r.rowsCopied, total_rows);
    EXPECT_EQ(r.pagesShared, 0u);
}

TEST(DeltaSnapshotTest, CleanPagesArePointerSharedAcrossVersions)
{
    const ModelConfig mc = tinyConfig(); // 64 rows per table
    const std::size_t kPageRows = 16;    // 4 pages per table
    DlrmModel model(mc, 42);
    ModelSnapshotStore store(deltaOptions(kPageRows));
    auto tracker = DirtyRowTracker::forModel(mc, kPageRows);

    store.publish(model, 1, tracker.get());
    auto v1 = store.current();

    // Dirty exactly one row of table 0 (page 2) and republish.
    const std::uint32_t dirty_row = 2 * kPageRows + 3;
    model.tables()[0].rowPtr(dirty_row)[0] += 1.0f;
    const std::uint32_t marked[] = {dirty_row};
    tracker->markRows(0, marked);
    const PublishReceipt r = store.publish(model, 2, tracker.get());
    auto v2 = store.current();

    EXPECT_TRUE(modelsRowEqual(v2->model, model));
    EXPECT_EQ(r.pagesCopied, 1u);
    EXPECT_EQ(r.rowsCopied, kPageRows);

    // Pointer identity: every page except (table 0, page 2) is the
    // same object in both snapshots.
    std::uint64_t shared = 0;
    for (std::size_t t = 0; t < mc.numTables; ++t) {
        const auto &p1 = v1->model.tables()[t].pages();
        const auto &p2 = v2->model.tables()[t].pages();
        ASSERT_EQ(p1.size(), p2.size());
        for (std::size_t p = 0; p < p1.size(); ++p) {
            const bool is_dirty = t == 0 && p == 2;
            EXPECT_EQ(p1[p].get() == p2[p].get(), !is_dirty)
                << "table " << t << " page " << p;
            shared += p1[p].get() == p2[p].get() ? 1 : 0;
        }
    }
    EXPECT_EQ(r.pagesShared, shared);
}

TEST(DeltaSnapshotTest, PublishConsumesTheTracker)
{
    const ModelConfig mc = tinyConfig();
    const std::size_t kPageRows = 16;
    DlrmModel model(mc, 7);
    ModelSnapshotStore store(deltaOptions(kPageRows));
    auto tracker = DirtyRowTracker::forModel(mc, kPageRows);
    tracker->markAllDirty();

    store.publish(model, 1, tracker.get());
    EXPECT_EQ(tracker->dirtyPageCount(), 0u); // reset by publish

    // Nothing marked since: the next publish shares every page.
    const PublishReceipt r = store.publish(model, 2, tracker.get());
    EXPECT_EQ(r.pagesCopied, 0u);
    EXPECT_EQ(r.rowsCopied, 0u);
    EXPECT_TRUE(modelsRowEqual(store.current()->model, model));
}

TEST(DeltaSnapshotTest, RetiredBuffersAreRecycled)
{
    const ModelConfig mc = tinyConfig();
    const std::size_t kPageRows = 16;
    DlrmModel model(mc, 7);
    ModelSnapshotStore store(deltaOptions(kPageRows));
    auto tracker = DirtyRowTracker::forModel(mc, kPageRows);
    tracker->markAllDirty();

    // No reader holds the intermediate versions, so each publish
    // retires the previous snapshot into the pool; marking everything
    // dirty forces fresh pages, which must come from the free-list.
    for (std::uint64_t i = 1; i <= 6; ++i) {
        store.publish(model, i, tracker.get());
        tracker->markAllDirty();
    }
    const PublishTotals totals = store.totals();
    EXPECT_EQ(totals.publishes, 6u);
    EXPECT_GT(totals.snapshotsRecycled, 0u);
    EXPECT_GT(totals.pagesRecycled, 0u);
    EXPECT_TRUE(modelsRowEqual(store.current()->model, model));
}

TEST(DeltaSnapshotTest, FullModeAlsoRecyclesShells)
{
    const ModelConfig mc = tinyConfig();
    DlrmModel model(mc, 7);
    ModelSnapshotStore store; // Full mode, default options
    for (std::uint64_t i = 1; i <= 4; ++i)
        store.publish(model, i);
    EXPECT_GT(store.totals().snapshotsRecycled, 0u);
}

TEST(DeltaSnapshotTest, SealedPagesServeCorrectBits)
{
    const ModelConfig mc = tinyConfig();
    const std::size_t kPageRows = 16;
    DlrmModel model(mc, 11);
    ModelSnapshotStore store(deltaOptions(kPageRows, /*seal=*/true));
    auto tracker = DirtyRowTracker::forModel(mc, kPageRows);

    store.publish(model, 1, tracker.get());
    model.tables()[0].rowPtr(5)[0] = 9.0f;
    const std::uint32_t marked[] = {5};
    tracker->markRows(0, marked);
    store.publish(model, 2, tracker.get());

    auto snap = store.current();
    EXPECT_TRUE(modelsRowEqual(snap->model, model));
    for (const auto &t : snap->model.tables())
        for (const auto &page : t.pages())
            if (page->mmapped())
                EXPECT_TRUE(page->sealed());
}

// --- Full-vs-delta training parity ----------------------------------

/**
 * Two identical training runs -- one publishing into a Full store,
 * one into a Delta store, after EVERY iteration -- must leave
 * row-for-row bit-identical latest snapshots. Exercises the sparse
 * dirty oracles (lazydp, eana, sgd) and the dense-update fallback
 * (dpsgd-f, no tracker) under every schedule.
 */
void
runModeParityCase(const std::string &algo_name, bool pipeline,
                  std::size_t threads)
{
    SCOPED_TRACE("algo=" + algo_name +
                 " pipeline=" + std::to_string(pipeline) +
                 " threads=" + std::to_string(threads));
    const ModelConfig mc = tinyConfig();
    const std::uint64_t kIters = 6;

    auto run = [&](ModelSnapshotStore &store) {
        DlrmModel model(mc, 1);
        SyntheticDataset dataset(dataConfig(mc));
        SequentialLoader loader(dataset);
        auto algo = makeAlgorithm(algo_name, model, testHyper());
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        Trainer trainer(*algo, loader, &exec);
        TrainOptions options;
        options.pipeline = pipeline;
        options.publishEveryIters = 1;
        options.snapshotStore = &store;
        options.runFinalize = false; // mid-run state
        trainer.run(kIters, options);
    };

    ModelSnapshotStore full_store;
    run(full_store);
    ModelSnapshotStore delta_store(deltaOptions());
    run(delta_store);

    auto full = full_store.current();
    auto delta = delta_store.current();
    ASSERT_NE(full, nullptr);
    ASSERT_NE(delta, nullptr);
    EXPECT_EQ(full->version, kIters);
    EXPECT_EQ(delta->version, kIters);
    EXPECT_TRUE(delta->model.tables()[0].paged());
    ASSERT_TRUE(modelsRowEqual(delta->model, full->model));
}

TEST(DeltaModeParityTest, LazyDp)
{
    for (const bool pipeline : {false, true})
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            runModeParityCase("lazydp", pipeline, threads);
}

TEST(DeltaModeParityTest, Eana)
{
    for (const bool pipeline : {false, true})
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            runModeParityCase("eana", pipeline, threads);
}

TEST(DeltaModeParityTest, Sgd)
{
    for (const bool pipeline : {false, true})
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            runModeParityCase("sgd", pipeline, threads);
}

TEST(DeltaModeParityTest, DpSgdFDenseFallback)
{
    for (const bool pipeline : {false, true})
        for (const std::size_t threads : {1u, 2u, 4u, 8u})
            runModeParityCase("dpsgd-f", pipeline, threads);
}

/**
 * A mid-run finalize-style dense mutation is outside the sparse
 * oracle; the trainer covers the run START with markAllDirty, and
 * LazyDP's finalize marks all-dirty itself. This checks the tracker
 * escape hatch end to end: finalize between two published runs.
 */
TEST(DeltaModeParityTest, LazyDpFinalizeFullCopyFallback)
{
    const ModelConfig mc = tinyConfig();

    auto run = [&](ModelSnapshotStore &store) {
        DlrmModel model(mc, 1);
        SyntheticDataset dataset(dataConfig(mc));
        SequentialLoader loader(dataset);
        auto algo = makeAlgorithm("lazydp", model, testHyper());
        Trainer trainer(*algo, loader, nullptr);
        TrainOptions options;
        options.publishEveryIters = 1;
        options.snapshotStore = &store;
        options.runFinalize = true; // dense pending-noise flush
        trainer.run(4, options);
        // Second segment republishes the post-finalize weights.
        TrainOptions seg2 = options;
        seg2.startIter = 4;
        seg2.runFinalize = false;
        trainer.run(2, seg2);
    };

    ModelSnapshotStore full_store;
    run(full_store);
    ModelSnapshotStore delta_store(deltaOptions());
    run(delta_store);
    ASSERT_TRUE(modelsRowEqual(delta_store.current()->model,
                               full_store.current()->model));
}

// --- Serve-while-train (TSan leg) -----------------------------------

/**
 * Delta publishing after EVERY iteration while serve lanes score
 * concurrently: the TSan job runs this to prove page recycling +
 * sharing never races with readers.
 */
TEST(DeltaServeWhileTrainTest, PublishEveryIterationUnderLoad)
{
    const ModelConfig mc = tinyConfig();
    DlrmModel model(mc, 3);
    ModelSnapshotStore store(deltaOptions());
    store.publish(model, 0);

    ThreadPool pool(4);
    ExecContext exec(&pool);
    ServeOptions serve_opts;
    serve_opts.threads = 2;
    serve_opts.batch.maxBatch = 4;
    serve_opts.batch.maxDelayUs = 50;
    ServeEngine engine(store, mc, pool, serve_opts);

    LoadOptions load_opts;
    load_opts.requests = 400;
    load_opts.concurrency = 3;
    load_opts.seed = 9;
    LoadGenerator generator(engine, mc, load_opts);

    LoadReport report;
    std::thread load_thread(
        [&generator, &report] { report = generator.run(); });

    SyntheticDataset dataset(dataConfig(mc));
    SequentialLoader loader(dataset);
    auto algo = makeAlgorithm("lazydp", model, testHyper());
    Trainer trainer(*algo, loader, &exec);
    TrainOptions options;
    options.publishEveryIters = 1;
    options.snapshotStore = &store;
    options.runFinalize = false;
    trainer.run(30, options);

    load_thread.join();
    engine.stop();

    EXPECT_EQ(report.completed, load_opts.requests);
    EXPECT_EQ(store.version(), 31u); // startup + one per iteration
    EXPECT_GE(report.maxVersion, report.minVersion);
    EXPECT_TRUE(modelsRowEqual(store.current()->model, model));
}

} // namespace
} // namespace lazydp
