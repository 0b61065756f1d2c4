/**
 * @file Pipeline equivalence sweeps: the two-stage software pipeline
 * (prepare(i+1) + batch prefetch overlapped with apply(i)) must train
 * a BIT-identical model to the serial schedule for every engine, at
 * every pool width -- the PR-1 thread-sweep guarantee extended to the
 * overlapped schedule. A TrainOptions::iterationGate that stalls
 * between iterations must not change the model under either schedule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

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
    dc.seed = 24601;
    dc.access = AccessConfig::criteoHigh(); // skew: uneven shard load
    return dc;
}

struct RunOutcome
{
    std::unique_ptr<DlrmModel> model;
    std::vector<double> losses;
};

constexpr std::uint64_t kTrainIters = 12;

/** Train `algo` for kTrainIters iterations on `threads` threads, with
 *  `gate` (if any) installed as the iteration gate. */
RunOutcome
train(const std::string &algo, float weight_decay, std::size_t threads,
      bool pipeline, std::function<void()> gate = {})
{
    const auto mc = testModel();
    TrainHyper hyper;
    hyper.lr = 0.05f;
    hyper.clipNorm = 0.8f;
    hyper.noiseMultiplier = 1.0f;
    hyper.noiseSeed = 0xFACE;
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
    options.iterationGate = std::move(gate);
    out.losses = Trainer(*algorithm, loader, &exec)
                     .run(kTrainIters, options)
                     .losses;
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
        }
    };
    check_mlp(a.bottomMlp(), b.bottomMlp(), "bottom");
    check_mlp(a.topMlp(), b.topMlp(), "top");
}

class PipelineEquivalenceTest
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(PipelineEquivalenceTest, PipelinedModelBitIdenticalToSerial)
{
    const std::string algo = GetParam();
    const RunOutcome reference = train(algo, 0.0f, 1, /*pipeline=*/false);
    for (const std::size_t threads : {1u, 2u, 8u}) {
        const RunOutcome piped =
            train(algo, 0.0f, threads, /*pipeline=*/true);
        expectBitIdentical(*reference.model, *piped.model,
                           "pipeline on, " + std::to_string(threads) +
                               " threads");
        // Losses come from the forward pass, so any weight divergence
        // mid-run shows up here even if the final bytes matched.
        EXPECT_EQ(reference.losses, piped.losses)
            << algo << " at " << threads << " threads";
    }
}

TEST_P(PipelineEquivalenceTest, DeferredDecayAlsoPipelineInvariant)
{
    const std::string algo = GetParam();
    if (algo == "eana" || algo == "sgd")
        GTEST_SKIP() << algo << " rejects weight decay";
    const RunOutcome reference = train(algo, 0.1f, 1, /*pipeline=*/false);
    const RunOutcome piped = train(algo, 0.1f, 8, /*pipeline=*/true);
    expectBitIdentical(*reference.model, *piped.model,
                       "decay, pipeline on, 8 threads");
    EXPECT_EQ(reference.losses, piped.losses);
}

INSTANTIATE_TEST_SUITE_P(
    Engines, PipelineEquivalenceTest,
    ::testing::Values("sgd", "dpsgd-b", "dpsgd-r", "dpsgd-f", "eana",
                      "lazydp", "lazydp-noans"),
    [](const ::testing::TestParamInfo<const char *> &info) {
        std::string name = info.param;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

TEST(PipelineScheduleTest, LoaderStillConsumesOneBatchPerIteration)
{
    const auto mc = testModel();
    DlrmModel model(mc, 23);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    auto algo = makeAlgorithm("lazydp", model, hyper);
    ThreadPool pool(2);
    ExecContext exec(&pool);
    TrainOptions options;
    options.pipeline = true;
    Trainer(*algo, loader, &exec).run(7, options);
    // One fetch per iteration: the pipeline prefetches earlier, it
    // never fetches more.
    EXPECT_EQ(loader.produced(), 7u);
}

TEST(PipelineScheduleTest, IterationGateLeavesModelUnchanged)
{
    // The gate sleeps, so every iteration boundary really stalls; the
    // trained bits and the losses must not notice.
    for (const bool pipeline : {false, true}) {
        const char *what = pipeline ? "pipeline on" : "pipeline off";
        const RunOutcome plain = train("lazydp", 0.0f, 2, pipeline);
        std::uint64_t calls = 0;
        const RunOutcome gated =
            train("lazydp", 0.0f, 2, pipeline, [&calls] {
                ++calls;
                std::this_thread::sleep_for(
                    std::chrono::microseconds(500));
            });
        expectBitIdentical(*plain.model, *gated.model, what);
        EXPECT_EQ(plain.losses, gated.losses) << what;
        // Between iterations only: never after the final one.
        EXPECT_EQ(calls, kTrainIters - 1) << what;
    }
}

TEST(PipelineScheduleTest, SerialExecFallsBackAndMatches)
{
    // pipeline=true without a pool: the Trainer silently runs the
    // serial schedule; results must match a plain run.
    const auto mc = testModel();
    TrainHyper hyper;
    hyper.noiseSeed = 0xFACE;

    DlrmModel plain_model(mc, 23);
    DlrmModel fallback_model(mc, 23);
    SyntheticDataset ds(testData(mc));
    {
        SequentialLoader loader(ds);
        auto algo = makeAlgorithm("lazydp", plain_model, hyper);
        Trainer(*algo, loader).run(6);
    }
    {
        SequentialLoader loader(ds);
        auto algo = makeAlgorithm("lazydp", fallback_model, hyper);
        TrainOptions options;
        options.pipeline = true;
        Trainer(*algo, loader).run(6, options);
    }
    expectBitIdentical(plain_model, fallback_model, "serial fallback");
}

} // namespace
} // namespace lazydp
