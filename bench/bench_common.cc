#include "bench_common.h"

#include <cmath>
#include <cstdio>
#include <memory>

#include "common/string_util.h"
#include "core/lazydp.h"
#include "data/data_loader.h"
#include "kernels/kernel_registry.h"
#include "train/trainer.h"

namespace lazydp {
namespace bench {

DatasetConfig
datasetFor(const ModelConfig &model, const AccessConfig &access,
           std::size_t batch, std::uint64_t seed)
{
    DatasetConfig dc;
    dc.numDense = model.numDense;
    dc.numTables = model.numTables;
    dc.rowsPerTable = model.rowsPerTable;
    dc.rowsPerTableVec = model.rowsPerTableVec;
    dc.pooling = model.pooling;
    dc.batchSize = batch;
    dc.access = access;
    dc.seed = seed;
    return dc;
}

double
expectedUniqueRows(std::uint64_t rows, std::size_t batch,
                   std::size_t pooling)
{
    // E[unique] = R * (1 - (1 - 1/R)^(B*p)) under uniform draws.
    const double r = static_cast<double>(rows);
    const double draws = static_cast<double>(batch * pooling);
    return r * (1.0 - std::pow(1.0 - 1.0 / r, draws));
}

double
expectedDelay(const ModelConfig &model, std::size_t batch)
{
    const double unique =
        expectedUniqueRows(model.rowsPerTable, batch, model.pooling);
    return std::max(1.0,
                    static_cast<double>(model.rowsPerTable) / unique);
}

RunStats
runMeasured(const RunSpec &spec)
{
    std::unique_ptr<DlrmModel> model_holder;
    if (!spec.coldDir.empty()) {
        DlrmModel::TieredModelOptions tier;
        tier.hotBytes = spec.hotBytes;
        tier.coldDir = spec.coldDir;
        tier.prefetch = spec.tierPrefetch;
        model_holder = std::make_unique<DlrmModel>(spec.model,
                                                   spec.modelSeed, tier);
    } else {
        model_holder =
            std::make_unique<DlrmModel>(spec.model, spec.modelSeed);
    }
    DlrmModel &model = *model_holder;
    SyntheticDataset dataset(
        datasetFor(spec.model, spec.access, spec.batch, spec.dataSeed));
    auto algo = makeAlgorithm(spec.algo, model, spec.hyper);

    ThreadPool pool(spec.threads == 0 ? hardwareThreads()
                                      : spec.threads);
    ExecContext exec(&pool);

    std::uint64_t start_iter = 0;
    if (spec.warmHistory) {
        if (auto *lazy = dynamic_cast<LazyDpAlgorithm *>(algo.get())) {
            // pretend training has been running long enough that every
            // pending-age is in steady state
            const double delay = expectedDelay(spec.model, spec.batch);
            start_iter =
                static_cast<std::uint64_t>(std::ceil(delay)) * 4 + 16;
            lazy->warmStartHistory(start_iter, delay, 0xA9E5);
        }
    }

    SequentialLoader loader(dataset);
    TrainOptions options;
    options.pipeline = spec.pipeline;
    options.recordLosses = false;
    options.startIter = start_iter;
    options.warmupIters = spec.warmup;
    options.previewFinal = true; // benches always preview a batch
    options.recordIterSeconds = true;
    Trainer trainer(*algo, loader, &exec);
    TrainResult result =
        trainer.run(spec.warmup + spec.iters, options);

    RunStats stats;
    stats.timer = result.timer;
    stats.iters = spec.iters;
    stats.wallSeconds = result.wallSeconds;
    stats.finalizeSeconds = result.finalizeSeconds;
    stats.iterSeconds = std::move(result.iterSeconds);
    stats.tierStats = result.tierStats;
    return stats;
}

double
modeledEagerSeconds(const RunStats &measured,
                    const ModelConfig &measured_model,
                    std::uint64_t target_table_bytes, std::size_t batch)
{
    CostModel cm(MachineSpec::calibratedHost());
    const auto touched = static_cast<std::uint64_t>(
        expectedUniqueRows(measured_model.rowsPerTable, batch,
                           measured_model.pooling) *
        static_cast<double>(measured_model.numTables));
    return cm.extrapolateEagerSeconds(measured.timer, measured.iters,
                                      target_table_bytes, touched,
                                      measured_model.embedDim);
}

double
modeledLazySeconds(const RunStats &measured, const ModelConfig &model,
                   std::size_t batch, bool use_ans,
                   std::uint64_t target_table_bytes)
{
    CostModel cm(MachineSpec::calibratedHost());
    const double iters = static_cast<double>(measured.iters);
    const double fixed =
        (measured.timer.seconds(Stage::Forward) +
         measured.timer.seconds(Stage::BackwardPerExample) +
         measured.timer.seconds(Stage::BackwardPerBatch) +
         measured.timer.seconds(Stage::GradCoalesce) +
         measured.timer.seconds(Stage::LazyOverhead) +
         measured.timer.seconds(Stage::Else)) /
        iters;
    const auto touched = static_cast<std::uint64_t>(
        expectedUniqueRows(model.rowsPerTable, batch, model.pooling) *
        static_cast<double>(model.numTables));
    const auto upd = cm.lazyUpdate(
        touched, model.embedDim, use_ans,
        target_table_bytes / sizeof(float));
    return fixed + upd.total();
}

void
printPreamble(const std::string &figure, const std::string &what)
{
    std::printf("\n################################################\n");
    std::printf("# %s -- %s\n", figure.c_str(), what.c_str());
    std::printf("# rows marked 'measured' ran on this host;\n");
    std::printf("# rows marked 'modeled' extend the series to the\n");
    std::printf("# paper's table sizes via the calibrated roofline\n");
    std::printf("# model (see DESIGN.md, Substitutions).\n");
    std::printf("# kernels: %s (--kernels / LAZYDP_KERNELS)\n",
                kernelBackendName(activeKernelBackend()));
    std::printf("################################################\n");
    std::fflush(stdout);
}

} // namespace bench
} // namespace lazydp
