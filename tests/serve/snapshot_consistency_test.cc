/**
 * @file
 * Snapshot-consistency guarantees of the train-and-serve system:
 *
 * 1. PARITY: a snapshot the Trainer publishes at iteration k is
 *    bit-identical (memcmp over every parameter tensor) to a
 *    checkpoint written by a separate run stopped at iteration k --
 *    for pipeline {off, on} x threads {1, 2, 4, 8}. The snapshot path and
 *    the checkpoint path must agree on what "the model at iteration k"
 *    means, under every training schedule.
 *
 * 2. NO TORN READS (TSan-exercised): while a publisher thread swaps
 *    versions, every served score must equal the score a fully
 *    published version produces -- computed bit-exactly from a
 *    reference model per version. A torn read (mixed versions inside
 *    one forward) would produce a score matching no version. Also
 *    asserts per-client version monotonicity (seq_cst snapshot loads).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/factory.h"
#include "data/data_loader.h"
#include "data/synthetic_dataset.h"
#include "io/checkpoint.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"
#include "serve/snapshot_store.h"
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

bool
weightsEqual(const DlrmModel &a, const DlrmModel &b)
{
    for (std::size_t t = 0; t < a.tables().size(); ++t) {
        const Tensor &wa = a.tables()[t].weights();
        const Tensor &wb = b.tables()[t].weights();
        if (std::memcmp(wa.data(), wb.data(),
                        wa.size() * sizeof(float)) != 0)
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

/**
 * Snapshot-vs-checkpoint parity at every published iteration under one
 * (pipeline, threads) schedule: for k in {4, 8, 12}, a run publishing
 * every 4 iterations up to k must leave a latest snapshot bit-equal to
 * the checkpoint a SERIAL run stopped at iteration k writes.
 */
void
runParityCase(bool pipeline, std::size_t threads)
{
    SCOPED_TRACE("pipeline=" + std::to_string(pipeline) +
                 " threads=" + std::to_string(threads));
    const ModelConfig mc = tinyConfig();
    const std::uint64_t kPublishEvery = 4;

    for (std::uint64_t k = kPublishEvery; k <= 12; k += kPublishEvery) {
        SCOPED_TRACE("iteration=" + std::to_string(k));

        // Publishing run under the schedule being tested.
        ModelSnapshotStore store;
        {
            DlrmModel model(mc, 1);
            SyntheticDataset dataset(dataConfig(mc));
            SequentialLoader loader(dataset);
            auto algo = makeAlgorithm("lazydp", model, testHyper());
            ThreadPool pool(threads);
            ExecContext exec(&pool);
            Trainer trainer(*algo, loader, &exec);
            TrainOptions options;
            options.pipeline = pipeline;
            options.publishEveryIters = kPublishEvery;
            options.snapshotStore = &store;
            options.runFinalize = false; // mid-run state
            trainer.run(k, options);
        }
        auto snap = store.current();
        ASSERT_NE(snap, nullptr);
        EXPECT_EQ(snap->version, k / kPublishEvery);
        EXPECT_EQ(snap->iteration, k);

        // Serial reference run, stopped at k, checkpointed + reloaded.
        DlrmModel model(mc, 1);
        SyntheticDataset dataset(dataConfig(mc));
        SequentialLoader loader(dataset);
        auto algo = makeAlgorithm("lazydp", model, testHyper());
        Trainer trainer(*algo, loader, nullptr);
        TrainOptions options;
        options.runFinalize = false;
        trainer.run(k, options);

        const std::string path =
            ::testing::TempDir() + "lazydp_snap_parity_" +
            std::to_string(::getpid()) + "_" + std::to_string(k) +
            ".bin";
        io::saveModel(path, model);
        DlrmModel reloaded(mc, 999);
        io::loadModel(path, reloaded);
        std::remove(path.c_str());

        // Checkpoint round-trip == the serial reference model, and the
        // published snapshot == that checkpoint, bit for bit.
        ASSERT_TRUE(weightsEqual(reloaded, model));
        ASSERT_TRUE(weightsEqual(snap->model, reloaded));
    }
}

TEST(SnapshotParityTest, MatchesCheckpointSerial)
{
    for (const std::size_t threads : {1u, 2u, 4u, 8u})
        runParityCase(/*pipeline=*/false, threads);
}

TEST(SnapshotParityTest, MatchesCheckpointPipelined)
{
    for (const std::size_t threads : {1u, 2u, 4u, 8u})
        runParityCase(/*pipeline=*/true, threads);
}

/** Set every parameter of @p m to the constant @p v. */
void
fillWeights(DlrmModel &m, float v)
{
    for (auto &t : m.tables())
        t.weights().fill(v);
    for (auto *mlp : {&m.bottomMlp(), &m.topMlp()})
        for (auto &layer : mlp->layers()) {
            layer.weight().fill(v);
            layer.bias().fill(v);
        }
}

/**
 * Serve-during-publish torn-read check (run under TSan in CI): every
 * served score must bit-match the score its reported version's
 * reference model produces.
 */
TEST(ServeDuringTrainTest, EveryScoreComesFromAFullyPublishedVersion)
{
    const ModelConfig mc = tinyConfig();
    const std::uint64_t kVersions = 40;
    const std::size_t kQueries = 16;
    const std::size_t kClients = 3;
    const std::uint64_t kRequestsPerClient = 300;

    // Reference scores: expected[v][q] for every version x query,
    // computed on private models (weights = v * 0.01).
    auto weight_of = [](std::uint64_t version) {
        return 0.01f * static_cast<float>(version);
    };
    LoadOptions query_opts;
    query_opts.seed = 5;

    ModelSnapshotStore store;
    ThreadPool pool(2);
    ServeOptions serve_opts;
    serve_opts.threads = 2;
    serve_opts.batch.maxBatch = 4;
    serve_opts.batch.maxDelayUs = 100;
    ServeEngine engine(store, mc, pool, serve_opts);
    LoadGenerator generator(engine, mc, query_opts);

    std::vector<ServeQuery> queries;
    for (std::size_t q = 0; q < kQueries; ++q)
        queries.push_back(generator.makeQuery(q));

    std::vector<std::vector<float>> expected(kVersions + 1);
    {
        DlrmModel ref(mc, 0);
        DlrmWorkspace ws;
        Tensor logits;
        MiniBatch mb;
        mb.resize(1, mc.numTables, mc.pooling, mc.numDense);
        for (std::uint64_t v = 1; v <= kVersions; ++v) {
            fillWeights(ref, weight_of(v));
            expected[v].resize(kQueries);
            for (std::size_t q = 0; q < kQueries; ++q) {
                std::memcpy(mb.dense.row(0).data(),
                            queries[q].dense.data(),
                            mc.numDense * sizeof(float));
                for (std::size_t t = 0; t < mc.numTables; ++t)
                    std::memcpy(mb.indices.data() + t * mc.pooling,
                                queries[q].indices.data() +
                                    t * mc.pooling,
                                mc.pooling * sizeof(std::uint32_t));
                ref.forward(mb, logits, ws, ExecContext::serial());
                expected[v][q] =
                    1.0f / (1.0f + std::exp(-logits.at(0, 0)));
            }
        }
    }

    // Publisher: version v has ALL weights = v * 0.01, so a torn read
    // (rows from two versions inside one forward) produces a score
    // matching no version's reference.
    DlrmModel live(mc, 0);
    fillWeights(live, weight_of(1));
    store.publish(live, 1);

    std::atomic<bool> stop_publishing{false};
    std::thread publisher([&] {
        for (std::uint64_t v = 2;
             v <= kVersions && !stop_publishing.load(); ++v) {
            fillWeights(live, weight_of(v));
            store.publish(live, v);
            std::this_thread::sleep_for(
                std::chrono::microseconds(500));
        }
    });

    std::atomic<std::uint64_t> mismatches{0};
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            std::uint64_t last_version = 0;
            for (std::uint64_t i = 0; i < kRequestsPerClient; ++i) {
                const std::size_t q = (c + i * kClients) % kQueries;
                auto request = engine.submit(queries[q]);
                ASSERT_NE(request, nullptr);
                const ServeResult &r = request->wait();
                ASSERT_GE(r.version, 1u);
                ASSERT_LE(r.version, kVersions);
                // Bit-exact: same forward path, same kernels; only a
                // torn read could miss.
                if (r.score != expected[r.version][q])
                    mismatches.fetch_add(1);
                // seq_cst snapshot loads make versions monotone per
                // client.
                EXPECT_GE(r.version, last_version);
                last_version = r.version;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop_publishing.store(true);
    publisher.join();
    engine.stop();

    EXPECT_EQ(mismatches.load(), 0u);
    const ServeStats stats = engine.stats();
    EXPECT_EQ(stats.served, kClients * kRequestsPerClient);
    EXPECT_GE(stats.maxVersion, stats.minVersion);
    EXPECT_GE(stats.minVersion, 1u);
}

/**
 * Real train-and-serve integration: LazyDP trains and publishes while
 * a closed-loop load generator serves -- the tool flow, in-process.
 */
TEST(ServeDuringTrainTest, ServesWhileLazyDpTrains)
{
    const ModelConfig mc = tinyConfig();
    DlrmModel model(mc, 1);
    SyntheticDataset dataset(dataConfig(mc));
    SequentialLoader loader(dataset);
    auto algo = makeAlgorithm("lazydp", model, testHyper());
    ThreadPool pool(2);
    ExecContext exec(&pool);

    ModelSnapshotStore store;
    store.publish(model, 0);
    ServeOptions serve_opts;
    serve_opts.threads = 2;
    serve_opts.batch.maxBatch = 8;
    serve_opts.batch.maxDelayUs = 200;
    ServeEngine engine(store, mc, pool, serve_opts);

    LoadOptions load_opts;
    load_opts.requests = 400;
    load_opts.concurrency = 2;
    load_opts.seed = 11;
    LoadGenerator generator(engine, mc, load_opts);

    LoadReport report;
    std::thread load_thread(
        [&generator, &report] { report = generator.run(); });

    Trainer trainer(*algo, loader, &exec);
    TrainOptions options;
    options.pipeline = true;
    options.publishEveryIters = 2;
    options.snapshotStore = &store;
    trainer.run(20, options);
    load_thread.join();
    engine.stop();

    EXPECT_EQ(report.completed, load_opts.requests);
    EXPECT_GT(report.qps(), 0.0);
    EXPECT_GE(report.minVersion, 1u);
    EXPECT_EQ(store.version(), 11u); // initial + 20/2 training publishes
    for (const double p :
         {report.latency.p50, report.latency.p99})
        EXPECT_GT(p, 0.0);
    EXPECT_LE(report.latency.p50, report.latency.p99);
}

} // namespace
} // namespace lazydp
