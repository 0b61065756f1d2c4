/**
 * @file Lot-sharded data-parallel equivalence sweeps.
 *
 * The lot shards run inline at width 1 and on the pool's workers at
 * any wider width, composed with the stage pipeline, and must never
 * change the trained model: the lot always decomposes into the same
 * kLotShards microbatch shards, clipped shard gradients merge through
 * a fixed-shape tree, and the keyed noise add + update run once on the
 * aggregate. This suite pins the repo's signature invariant for every
 * engine: bit-identical final models AND loss trajectories for
 * threads {1,2,4,8} x pipeline {off,on}.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>

#include "common/thread_pool.h"
#include "core/factory.h"
#include "data/synthetic_dataset.h"
#include "train/trainer.h"

namespace lazydp {
namespace {

ModelConfig
testModel()
{
    auto mc = ModelConfig::tiny();
    mc.rowsPerTable = 64;
    mc.pooling = 2;
    return mc;
}

DatasetConfig
testData(const ModelConfig &mc)
{
    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = 8;
    dc.seed = 31337;
    dc.access = AccessConfig::criteoHigh(); // skew: uneven shard load
    return dc;
}

struct RunOutcome
{
    std::unique_ptr<DlrmModel> model;
    std::vector<double> losses;
};

/** Train `algo` for 12 iterations under the given schedule. */
RunOutcome
train(const std::string &algo, float weight_decay, std::size_t threads,
      bool pipeline)
{
    const auto mc = testModel();
    TrainHyper hyper;
    hyper.lr = 0.05f;
    hyper.clipNorm = 0.8f;
    hyper.noiseMultiplier = 1.0f;
    hyper.noiseSeed = 0xBEEF;
    hyper.weightDecay = weight_decay;

    RunOutcome out;
    out.model = std::make_unique<DlrmModel>(mc, 23);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    auto algorithm = makeAlgorithm(algo, *out.model, hyper);

    ThreadPool pool(threads);
    ExecContext exec(&pool);
    TrainOptions options;
    options.pipeline = pipeline;
    out.losses =
        Trainer(*algorithm, loader, &exec).run(12, options).losses;
    return out;
}

void
expectBitIdentical(const DlrmModel &a, const DlrmModel &b,
                   const std::string &what)
{
    for (std::size_t t = 0; t < a.tables().size(); ++t) {
        const Tensor &wa = a.tables()[t].weights();
        const Tensor &wb = b.tables()[t].weights();
        ASSERT_EQ(wa.size(), wb.size());
        EXPECT_EQ(std::memcmp(wa.data(), wb.data(),
                              wa.size() * sizeof(float)),
                  0)
            << "table " << t << " differs: " << what;
    }
    auto check_mlp = [&](const Mlp &ma, const Mlp &mb, const char *which) {
        for (std::size_t l = 0; l < ma.layers().size(); ++l) {
            const Tensor &wa = ma.layers()[l].weight();
            const Tensor &wb = mb.layers()[l].weight();
            EXPECT_EQ(std::memcmp(wa.data(), wb.data(),
                                  wa.size() * sizeof(float)),
                      0)
                << which << " mlp layer " << l << " differs: " << what;
            const Tensor &ba = ma.layers()[l].bias();
            const Tensor &bb = mb.layers()[l].bias();
            EXPECT_EQ(std::memcmp(ba.data(), bb.data(),
                                  ba.size() * sizeof(float)),
                      0)
                << which << " mlp bias " << l << " differs: " << what;
        }
    };
    check_mlp(a.bottomMlp(), b.bottomMlp(), "bottom");
    check_mlp(a.topMlp(), b.topMlp(), "top");
}

class ReplicaEquivalenceTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplicaEquivalenceTest, ModelBitIdenticalAcrossThreadMatrix)
{
    const std::string algo = GetParam();
    const RunOutcome reference =
        train(algo, 0.0f, /*threads=*/1, /*pipeline=*/false);
    for (const bool pipeline : {false, true}) {
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            const RunOutcome run = train(algo, 0.0f, threads, pipeline);
            const std::string what =
                algo + ": pipeline " + (pipeline ? "on" : "off") + ", " +
                std::to_string(threads) + " threads";
            expectBitIdentical(*reference.model, *run.model, what);
            // Losses come from the forward pass, so any weight
            // divergence mid-run shows up here even if the final bytes
            // matched.
            EXPECT_EQ(reference.losses, run.losses) << what;
        }
    }
}

TEST_P(ReplicaEquivalenceTest, DeferredDecayAlsoWidthInvariant)
{
    const std::string algo = GetParam();
    if (algo == "eana" || algo == "sgd")
        GTEST_SKIP() << algo << " rejects weight decay";
    const RunOutcome reference = train(algo, 0.1f, 1, false);
    const RunOutcome run = train(algo, 0.1f, 8, true);
    expectBitIdentical(*reference.model, *run.model,
                       algo + ": decay, 8 threads, pipeline on");
    EXPECT_EQ(reference.losses, run.losses);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, ReplicaEquivalenceTest,
    ::testing::Values("sgd", "dpsgd-b", "dpsgd-r", "dpsgd-f", "eana",
                      "lazydp", "lazydp-noans"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(ReplicaScheduleTest, LotSmallerThanShardCountStillWorks)
{
    // batch 2 < kLotShards: two shards carry one example each, two are
    // empty (exact-zero partials); the tree reduction must be intact.
    const auto mc = testModel();
    auto dc = testData(mc);
    dc.batchSize = 2;
    TrainHyper hyper;
    hyper.noiseSeed = 0xBEEF;

    DlrmModel ref_model(mc, 23);
    SyntheticDataset ds(dc);
    {
        SequentialLoader loader(ds);
        auto algo = makeAlgorithm("dpsgd-f", ref_model, hyper);
        Trainer(*algo, loader).run(4);
    }
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        DlrmModel model(mc, 23);
        SequentialLoader loader(ds);
        auto algo = makeAlgorithm("dpsgd-f", model, hyper);
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        Trainer(*algo, loader, &exec).run(4);
        expectBitIdentical(ref_model, model,
                           "tiny lot, " + std::to_string(threads) +
                               " threads");
    }
}

/**
 * Ragged lots: batch sizes NOT divisible by kLotShards decompose into
 * shards of size floor and floor+1 (larger shards first). The width
 * matrix must stay bit-identical on them — this is where an off-by-one
 * in the bounds or the lot-wide gather would surface as example loss,
 * duplication, or a misaligned gather offset.
 */
TEST(ReplicaScheduleTest, RaggedLotBitIdenticalAcrossWidths)
{
    const auto mc = testModel();
    for (const std::size_t batch : {5u, 6u, 7u}) {
        auto dc = testData(mc);
        dc.batchSize = batch;
        TrainHyper hyper;
        hyper.noiseSeed = 0xBEEF;

        DlrmModel ref_model(mc, 23);
        SyntheticDataset ds(dc);
        {
            SequentialLoader loader(ds);
            auto algo = makeAlgorithm("lazydp", ref_model, hyper);
            Trainer(*algo, loader).run(5);
        }
        for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
            DlrmModel model(mc, 23);
            SequentialLoader loader(ds);
            auto algo = makeAlgorithm("lazydp", model, hyper);
            ThreadPool pool(threads);
            ExecContext exec(&pool);
            Trainer(*algo, loader, &exec).run(5);
            expectBitIdentical(ref_model, model,
                               "ragged batch " + std::to_string(batch) +
                                   ", " + std::to_string(threads) +
                                   " threads");
        }
    }
}

} // namespace
} // namespace lazydp
