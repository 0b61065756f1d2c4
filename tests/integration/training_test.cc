/**
 * @file Integration tests: full training runs through the Trainer for
 * every algorithm, checking learning progress and stage accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

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
    mc.rowsPerTable = 128;
    return mc;
}

DatasetConfig
testData(const ModelConfig &mc, std::size_t batch = 32)
{
    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = batch;
    dc.seed = 31337;
    return dc;
}

class AlgorithmRunTest : public ::testing::TestWithParam<std::string>
{
};

TEST_P(AlgorithmRunTest, RunsAndRecordsAllIterations)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    hyper.noiseMultiplier = 0.5f;
    auto algo = makeAlgorithm(GetParam(), model, hyper);
    Trainer trainer(*algo, loader);
    const TrainResult result = trainer.run(10);

    EXPECT_EQ(result.iterations, 10u);
    EXPECT_EQ(result.losses.size(), 10u);
    for (double l : result.losses) {
        EXPECT_TRUE(std::isfinite(l));
        EXPECT_GT(l, 0.0);
    }
    EXPECT_GT(result.wallSeconds, 0.0);
    EXPECT_GT(result.secondsPerIteration(), 0.0);
}

TEST_P(AlgorithmRunTest, StageTimerCoversMostOfWallTime)
{
    const auto mc = testModel();
    // Width 4 runs the lot shards concurrently: their busy time must
    // still be booked as wall time.
    for (const std::size_t threads : {1u, 4u}) {
        DlrmModel model(mc, 5);
        SyntheticDataset ds(testData(mc));
        SequentialLoader loader(ds);
        TrainHyper hyper;
        auto algo = makeAlgorithm(GetParam(), model, hyper);
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        Trainer trainer(*algo, loader, &exec);
        const TrainResult result = trainer.run(5);
        // timed stages must account for a large share of wall time
        // (the remainder is data loading, which is untimed)
        EXPECT_GT(result.timer.totalSeconds(), 0.0) << threads;
        EXPECT_LE(result.timer.totalSeconds(),
                  result.wallSeconds * 1.001)
            << threads << " threads";
    }
}

INSTANTIATE_TEST_SUITE_P(AllAlgorithms, AlgorithmRunTest,
                         ::testing::ValuesIn(algorithmNames()));

TEST(LearningTest, SgdLossDecreasesOnPlantedSignal)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc, 128));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    hyper.lr = 1.0f;
    auto algo = makeAlgorithm("sgd", model, hyper);
    Trainer trainer(*algo, loader);
    const TrainResult result = trainer.run(250);

    const double first =
        std::accumulate(result.losses.begin(),
                        result.losses.begin() + 25, 0.0) /
        25.0;
    const double last =
        std::accumulate(result.losses.end() - 25, result.losses.end(),
                        0.0) /
        25.0;
    EXPECT_LT(last, first - 0.02) << "no learning progress";
}

TEST(LearningTest, LazyDpLearnsWithModerateNoise)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc, 128));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    hyper.lr = 0.3f;
    hyper.clipNorm = 0.3f;
    hyper.noiseMultiplier = 0.02f; // weak noise so signal dominates
    auto algo = makeAlgorithm("lazydp", model, hyper);
    Trainer trainer(*algo, loader);
    const TrainResult result = trainer.run(300);

    const double first =
        std::accumulate(result.losses.begin(),
                        result.losses.begin() + 25, 0.0) /
        25.0;
    const double last =
        std::accumulate(result.losses.end() - 25, result.losses.end(),
                        0.0) /
        25.0;
    EXPECT_LT(last, first - 0.01) << "no private learning progress";
}

TEST(TrainerTest, ZeroIterationsIsANoOp)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    auto algo = makeAlgorithm("sgd", model, hyper);
    Trainer trainer(*algo, loader);
    const TrainResult result = trainer.run(0);
    EXPECT_EQ(result.iterations, 0u);
    EXPECT_TRUE(result.losses.empty());
}

TEST(TrainerTest, LossRecordingCanBeDisabled)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    auto algo = makeAlgorithm("sgd", model, hyper);
    Trainer trainer(*algo, loader);
    TrainOptions options;
    options.recordLosses = false;
    const TrainResult result = trainer.run(3, options);
    EXPECT_TRUE(result.losses.empty());
    EXPECT_EQ(result.iterations, 3u);
}

TEST(TrainerTest, LoaderConsumesExactlyOneBatchPerIteration)
{
    const auto mc = testModel();
    DlrmModel model(mc, 5);
    SyntheticDataset ds(testData(mc));
    SequentialLoader loader(ds);
    TrainHyper hyper;
    auto algo = makeAlgorithm("lazydp", model, hyper);
    Trainer trainer(*algo, loader);
    trainer.run(7);
    // 7 iterations -> 7 batches fetched (the lookahead reuses them)
    EXPECT_EQ(loader.produced(), 7u);
}

} // namespace
} // namespace lazydp
