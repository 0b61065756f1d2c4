/**
 * @file
 * Golden-model regression tests: fixed-seed 50-iteration runs for all
 * seven engines, pinned by an FNV-1a hash of the final model computed
 * under the SCALAR kernel backend. Any kernel or engine edit that
 * silently changes training numerics fails these loudly.
 *
 * Regen procedure (after an INTENTIONAL numerics change):
 *
 *   1. Build with any configuration, e.g. the tier-1 one
 *      (`cmake -B build -S . && cmake --build build -j`).
 *   2. `LAZYDP_GOLDEN_REGEN=1 build/lazydp_kernels_tests \
 *          --gtest_filter='*GoldenModel*'`
 *      prints one `{"<engine>", 0x<hash>ull},` row per engine.
 *   3. Paste the rows over kGoldenHashes below and re-run the suite
 *      (both kernels=scalar and kernels=avx2 legs must pass: the hash
 *      is checked under a forced scalar backend regardless of the
 *      process-wide selection, so the table is backend-independent).
 *   4. Say WHY the numerics moved in the commit message.
 *
 * The hashes are a function of the code and of IEEE-754 float
 * arithmetic on the scalar reference kernels plus libm transcendentals
 * (BCE loss, Box-Muller). They do not depend on the build flags: the
 * build passes -ffp-contract=off, so the compiler never fuses a
 * multiply-add the source did not ask for, and Release -march=native
 * and Debug -DLAZYDP_NATIVE=OFF builds produce the same table (a CI leg
 * checks both). A different libm may still move them; if a port trips
 * these without any code change, regen on that platform rather than
 * loosening the test.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "core/factory.h"
#include "data/data_loader.h"
#include "data/synthetic_dataset.h"
#include "kernels/kernel_registry.h"
#include "nn/dlrm.h"
#include "train/trainer.h"

namespace lazydp {
namespace {

/** FNV-1a 64-bit over a byte range. */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

/** Hash every trained parameter: tables, MLP weights, MLP biases. */
std::uint64_t
modelHash(const DlrmModel &model)
{
    std::uint64_t h = 0xCBF29CE484222325ull;
    for (const auto &table : model.tables()) {
        h = fnv1a(table.weights().data(),
                  table.weights().size() * sizeof(float), h);
    }
    const auto hash_mlp = [&](const Mlp &mlp) {
        for (const auto &layer : mlp.layers()) {
            h = fnv1a(layer.weight().data(),
                      layer.weight().size() * sizeof(float), h);
            h = fnv1a(layer.bias().data(),
                      layer.bias().size() * sizeof(float), h);
        }
    };
    hash_mlp(model.bottomMlp());
    hash_mlp(model.topMlp());
    return h;
}

struct GoldenEntry
{
    const char *engine;
    std::uint64_t hash;
};

// Regenerate with LAZYDP_GOLDEN_REGEN=1 (see file header).
// dpsgd-r and dpsgd-f legitimately share a hash: their per-example
// clip factors agree to sub-float precision (materialized norms vs
// exact ghost norms), and everything downstream is keyed noise.
// Last regen: the build turned floating-point contraction off. Before,
// -march=native let the compiler fuse mul+add in the scalar TU (and
// how much depended on -O), so the table held only for one flag set.
constexpr GoldenEntry kGoldenHashes[] = {
    {"sgd", 0x2A7B74FA7D0E3270ull},
    {"dpsgd-b", 0x46A7A9E68ECAC770ull},
    {"dpsgd-r", 0x29F278619976BE86ull},
    {"dpsgd-f", 0x29F278619976BE86ull},
    {"eana", 0x9A18F4CC2AB3E7E2ull},
    {"lazydp", 0x9942DF9486F7D48Dull},
    {"lazydp-noans", 0x6B3CE38B19AE7478ull},
};

constexpr std::uint64_t kIters = 50;

/** The fixed training scenario every hash is pinned to. */
std::uint64_t
trainAndHash(const std::string &engine)
{
    // Force the golden backend for the duration of the run; restore
    // the suite's process-wide selection afterwards so the rest of the
    // kernels suite still exercises whatever CI selected.
    const KernelBackend before = activeKernelBackend();
    setKernelBackend(KernelBackend::Scalar);

    auto mc = ModelConfig::tiny();
    mc.rowsPerTable = 96;
    mc.pooling = 2;

    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.pooling = mc.pooling;
    dc.batchSize = 32;
    dc.seed = 0x60DE;
    dc.access = AccessConfig::uniform();

    TrainHyper hyper;
    hyper.lr = 0.05f;
    hyper.clipNorm = 0.9f;
    hyper.noiseMultiplier = 1.0f;
    hyper.noiseSeed = 0x5EED5;

    DlrmModel model(mc, 41);
    SyntheticDataset ds(dc);
    SequentialLoader loader(ds);
    auto algo = makeAlgorithm(engine, model, hyper);
    Trainer(*algo, loader).run(kIters);

    setKernelBackend(before);
    return modelHash(model);
}

class GoldenModelTest : public ::testing::TestWithParam<GoldenEntry>
{
};

TEST_P(GoldenModelTest, FinalModelHashPinned)
{
    const GoldenEntry entry = GetParam();
    const std::uint64_t actual = trainAndHash(entry.engine);
    if (std::getenv("LAZYDP_GOLDEN_REGEN") != nullptr) {
        std::printf("    {\"%s\", 0x%016llXull},\n", entry.engine,
                    static_cast<unsigned long long>(actual));
        GTEST_SKIP() << "regen mode: hash printed, not checked";
    }
    EXPECT_EQ(entry.hash, actual)
        << entry.engine << ": final-model FNV-1a hash moved (got 0x"
        << std::hex << actual << std::dec
        << "). If the numerics change is intentional, follow the regen "
           "procedure in this file's header.";
}

INSTANTIATE_TEST_SUITE_P(
    Engines, GoldenModelTest, ::testing::ValuesIn(kGoldenHashes),
    [](const ::testing::TestParamInfo<GoldenEntry> &info) {
        std::string name = info.param.engine;
        for (auto &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

/**
 * The hash itself must be scalar-backend-stable run to run (guards the
 * registry's determinism contract at the full-training altitude).
 */
TEST(GoldenModelTest, ScalarRunsAreBitStable)
{
    const std::uint64_t a = trainAndHash("lazydp");
    const std::uint64_t b = trainAndHash("lazydp");
    EXPECT_EQ(a, b);
}

} // namespace
} // namespace lazydp
