/**
 * @file Out-of-core bit-identity sweeps: the tiered (DRAM hot tier +
 * file-backed cold tier) embedding backend must train the EXACT same
 * model as all-DRAM for every engine, under the serial and pipelined
 * schedules, at thread widths 1, 2, 4 and 8, with a hot budget small
 * enough to force steady eviction/write-back traffic -- plus the
 * prefetch-off worst case and a checkpoint byte-identity leg.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/factory.h"
#include "data/synthetic_dataset.h"
#include "io/checkpoint.h"
#include "train/trainer.h"

namespace lazydp {
namespace {

struct TieredCase
{
    const char *algo;
    bool pipeline;
    std::size_t threads;
};

std::ostream &
operator<<(std::ostream &os, const TieredCase &c)
{
    return os << c.algo << (c.pipeline ? "_pipe" : "_serial") << "_t"
              << c.threads;
}

ModelConfig
modelConfig()
{
    auto mc = ModelConfig::tiny();
    mc.rowsPerTable = 256; // 32 pages of 8 rows per table
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
    dc.batchSize = 16;
    dc.seed = 0xD00D;
    // Skewed access stresses the hot tier the way production traffic
    // would: a popular head stays resident, the tail churns.
    dc.access = AccessConfig::criteoHigh();
    return dc;
}

TrainHyper
hyper(const char *algo)
{
    TrainHyper h;
    h.lr = 0.05f;
    h.clipNorm = 0.9f;
    h.noiseMultiplier = 1.0f;
    // Exercise the decayed update paths too (LazyDP's deferred decay
    // reads rows the tiered store must have resident); SGD and EANA
    // reject weight decay (sparse updates cannot decay unaccessed
    // rows), so they run without.
    if (std::strcmp(algo, "sgd") != 0 && std::strcmp(algo, "eana") != 0)
        h.weightDecay = 0.01f;
    h.noiseSeed = 0x5EED;
    return h;
}

/**
 * Train @p iters steps and return a dense copy of every table (tiered
 * and dense models compare through the same copyRowsOut surface).
 */
std::vector<std::vector<float>>
trainAndDump(DlrmModel &model, const char *algo_name, bool pipeline,
             std::size_t threads, std::uint64_t iters)
{
    SyntheticDataset ds(dataConfig(model.config()));
    SequentialLoader loader(ds);
    auto algo = makeAlgorithm(algo_name, model, hyper(algo_name));

    ThreadPool pool(threads);
    ExecContext exec(&pool);
    Trainer trainer(*algo, loader, &exec);
    TrainOptions options;
    options.pipeline = pipeline;
    trainer.run(iters, options);

    std::vector<std::vector<float>> dump;
    for (const auto &t : model.tables()) {
        std::vector<float> w(static_cast<std::size_t>(t.rows()) *
                             t.dim());
        t.copyRowsOut(0, t.rows(), w.data());
        dump.push_back(std::move(w));
    }
    return dump;
}

DlrmModel::TieredModelOptions
tierOptions(const std::string &dir, bool prefetch)
{
    DlrmModel::TieredModelOptions tier;
    // 8 hot pages per table out of 32 (tiny is 8-dim, pages are 8
    // rows): small enough that every iteration promotes and evicts
    // (the interesting regime).
    tier.hotBytes = 8 * (8 * 8 * sizeof(float)) *
                    modelConfig().numTables;
    tier.coldDir = dir;
    tier.pageRows = 8;
    tier.prefetch = prefetch;
    return tier;
}

class TieredParityTest : public ::testing::TestWithParam<TieredCase>
{
  protected:
    void
    SetUp() override
    {
        dir_ = ::testing::TempDir() + "lazydp_tierpar_" +
               std::to_string(::getpid());
        (void)std::system(("mkdir -p " + dir_).c_str());
    }

    void
    TearDown() override
    {
        (void)std::system(("rm -rf " + dir_).c_str());
    }

    std::string dir_;
};

TEST_P(TieredParityTest, TieredModelBitIdenticalToDram)
{
    const TieredCase c = GetParam();
    const std::uint64_t iters = 12;
    const std::uint64_t seed = 11;

    DlrmModel dense_model(modelConfig(), seed);
    const auto dense =
        trainAndDump(dense_model, c.algo, c.pipeline, c.threads, iters);

    DlrmModel tiered_model(modelConfig(), seed,
                           tierOptions(dir_, /*prefetch=*/true));
    ASSERT_TRUE(tiered_model.tiered());
    const auto tiered =
        trainAndDump(tiered_model, c.algo, c.pipeline, c.threads, iters);

    ASSERT_EQ(dense.size(), tiered.size());
    for (std::size_t t = 0; t < dense.size(); ++t) {
        EXPECT_EQ(std::memcmp(dense[t].data(), tiered[t].data(),
                              dense[t].size() * sizeof(float)),
                  0)
            << "table " << t << " diverged (engine " << c.algo << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, TieredParityTest,
    ::testing::Values(
        // Every engine at the serial schedule, shards on 4 threads...
        TieredCase{"sgd", false, 4}, TieredCase{"dpsgd-b", false, 4},
        TieredCase{"dpsgd-r", false, 4},
        TieredCase{"dpsgd-f", false, 4}, TieredCase{"eana", false, 4},
        TieredCase{"lazydp", false, 4},
        TieredCase{"lazydp-noans", false, 4},
        // ...the pipelined schedule (warm submissions race apply)...
        TieredCase{"sgd", true, 4}, TieredCase{"eana", true, 4},
        TieredCase{"lazydp", true, 4},
        TieredCase{"lazydp-noans", true, 4},
        // ...and the other widths: inline shards at 1, fan-out at 2
        // and 8, serial + pipelined.
        TieredCase{"sgd", false, 1}, TieredCase{"lazydp", false, 1},
        TieredCase{"sgd", true, 1}, TieredCase{"lazydp", true, 1},
        TieredCase{"sgd", false, 2}, TieredCase{"lazydp", false, 2},
        TieredCase{"sgd", true, 2}, TieredCase{"lazydp", true, 2},
        TieredCase{"sgd", false, 8}, TieredCase{"lazydp", false, 8},
        TieredCase{"sgd", true, 8}, TieredCase{"lazydp", true, 8}),
    [](const auto &info) {
        std::string n = info.param.algo;
        for (auto &ch : n)
            if (ch == '-')
                ch = '_';
        return n + (info.param.pipeline ? "_pipe" : "_serial") + "_t" +
               std::to_string(info.param.threads);
    });

TEST(TieredWorstCaseTest, PrefetchOffStillBitIdentical)
{
    const std::string dir = ::testing::TempDir() + "lazydp_tiernp_" +
                            std::to_string(::getpid());
    (void)std::system(("mkdir -p " + dir).c_str());

    DlrmModel dense_model(modelConfig(), 11);
    const auto dense =
        trainAndDump(dense_model, "lazydp", /*pipeline=*/true,
                     /*threads=*/4, 12);

    // prefetch=off: every promotion faults synchronously -- the
    // worst-case leg must still train the identical model.
    DlrmModel tiered_model(modelConfig(), 11,
                           tierOptions(dir, /*prefetch=*/false));
    const auto tiered =
        trainAndDump(tiered_model, "lazydp", /*pipeline=*/true,
                     /*threads=*/4, 12);

    for (std::size_t t = 0; t < dense.size(); ++t) {
        EXPECT_EQ(std::memcmp(dense[t].data(), tiered[t].data(),
                              dense[t].size() * sizeof(float)),
                  0);
    }
    (void)std::system(("rm -rf " + dir).c_str());
}

TEST(TieredCheckpointTest, CheckpointBytesMatchDenseRun)
{
    // Checkpoints are part of the bit-identity surface: a tiered
    // model's saved file must be byte-identical to the dense run's
    // (same format, same weights), so downstream tooling can't tell
    // the storage modes apart.
    const std::string dir = ::testing::TempDir() + "lazydp_tierck_" +
                            std::to_string(::getpid());
    (void)std::system(("mkdir -p " + dir).c_str());
    const std::string dense_ckpt = dir + "/dense.bin";
    const std::string tiered_ckpt = dir + "/tiered.bin";

    DlrmModel dense_model(modelConfig(), 11);
    trainAndDump(dense_model, "sgd", false, 1, 6);
    io::saveModel(dense_ckpt, dense_model);

    DlrmModel tiered_model(modelConfig(), 11, tierOptions(dir, true));
    trainAndDump(tiered_model, "sgd", false, 1, 6);
    io::saveModel(tiered_ckpt, tiered_model);

    std::ifstream a(dense_ckpt, std::ios::binary);
    std::ifstream b(tiered_ckpt, std::ios::binary);
    ASSERT_TRUE(a.good());
    ASSERT_TRUE(b.good());
    std::vector<char> abuf(
        (std::istreambuf_iterator<char>(a)),
        std::istreambuf_iterator<char>());
    std::vector<char> bbuf(
        (std::istreambuf_iterator<char>(b)),
        std::istreambuf_iterator<char>());
    EXPECT_EQ(abuf.size(), bbuf.size());
    EXPECT_EQ(std::memcmp(abuf.data(), bbuf.data(), abuf.size()), 0);

    // And loading the tiered checkpoint back into a FRESH tiered
    // model restores the exact weights (readModelBody -> copyRowsIn).
    (void)std::system(("mkdir -p " + dir + "/r").c_str());
    DlrmModel restored(modelConfig(), 77,
                       tierOptions(dir + "/r", true));
    io::loadModel(tiered_ckpt, restored);
    for (std::size_t t = 0; t < restored.tables().size(); ++t) {
        const auto &rt = restored.tables()[t];
        const auto &st = tiered_model.tables()[t];
        std::vector<float> rw(static_cast<std::size_t>(rt.rows()) *
                              rt.dim());
        std::vector<float> sw(rw.size());
        rt.copyRowsOut(0, rt.rows(), rw.data());
        st.copyRowsOut(0, st.rows(), sw.data());
        EXPECT_EQ(std::memcmp(rw.data(), sw.data(),
                              rw.size() * sizeof(float)),
                  0);
    }
    (void)std::system(("rm -rf " + dir).c_str());
}

} // namespace
} // namespace lazydp
