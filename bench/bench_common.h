/**
 * @file
 * Shared harness for the figure-reproduction benchmarks.
 *
 * Scale note (also see DESIGN.md): the paper's evaluation uses 24-192 GB
 * embedding tables on a 256 GB host; this repository runs on whatever
 * host executes it, so each figure measures *real* executions at sizes
 * scaled to fit local DRAM and extends the series to the paper's sizes
 * with the calibrated roofline model (rows labelled `modeled`). Shapes
 * -- who wins, slopes, crossovers -- are preserved; absolute numbers
 * are host-specific.
 */

#ifndef LAZYDP_BENCH_BENCH_COMMON_H
#define LAZYDP_BENCH_BENCH_COMMON_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "core/factory.h"
#include "data/synthetic_dataset.h"
#include "nn/model_config.h"
#include "nn/tiered_store.h"
#include "sim/cost_model.h"
#include "sim/energy_model.h"
#include "train/algorithm.h"

namespace lazydp {
namespace bench {

/** One measured configuration. */
struct RunSpec
{
    std::string algo = "sgd";     //!< factory algorithm name
    ModelConfig model;            //!< model shape
    AccessConfig access;          //!< table-access distribution
    std::size_t batch = 2048;
    std::uint64_t iters = 2;      //!< measured iterations
    std::uint64_t warmup = 1;     //!< untimed warmup iterations
    bool warmHistory = true;      //!< steady-state HistoryTable ages
    TrainHyper hyper;
    std::uint64_t dataSeed = 0xDA7A;
    std::uint64_t modelSeed = 1;

    /**
     * Execution width for every step/finalize (1 = serial; 0 = all
     * hardware threads). Thread count changes wall time only, never
     * the trained model.
     */
    std::size_t threads = 1;

    /**
     * Run the Trainer's two-stage software pipeline: prepare(i+1) and
     * the batch-(i+2) prefetch overlap apply(i). Changes wall time
     * only, never the trained model.
     */
    bool pipeline = false;

    /**
     * Out-of-core mode: nonempty = back the embedding tables with the
     * tiered DRAM-hot / file-cold store, cold files under this
     * directory. Bit-identical model; only residency traffic and wall
     * time change.
     */
    std::string coldDir;

    /** Tiered only: DRAM hot-tier budget in bytes. */
    std::uint64_t hotBytes = 64ull << 20;

    /** Tiered only: lookahead warming on the prefetch lane (off =
     * every promotion faults synchronously -- the worst-case leg). */
    bool tierPrefetch = true;
};

/** Measured outcome of a RunSpec. */
struct RunStats
{
    StageTimer timer;             //!< measured iterations only
    std::uint64_t iters = 0;
    double wallSeconds = 0.0;     //!< wall time of measured iterations
    double finalizeSeconds = 0.0; //!< one-time LazyDP flush (excluded)

    /** Out-of-core residency counters (all zero unless RunSpec::coldDir
     * was set); covers warmup AND measured iterations. */
    TierStats tierStats;

    /** Per-measured-iteration wall seconds (percentile source). */
    std::vector<double> iterSeconds;

    /**
     * Nearest-rank percentiles of the per-iteration wall times: the
     * tail (p95/p99) next to the mean secondsPerIter() -- a run whose
     * p99 diverges from its mean has jitter the mean hides.
     */
    stats::Percentiles
    iterPercentiles() const
    {
        return stats::computePercentiles(iterSeconds);
    }

    /**
     * Mean END-TO-END wall seconds per measured iteration (includes
     * data loading; under the pipeline, overlapped stages count once).
     */
    double
    secondsPerIter() const
    {
        return iters == 0
                   ? 0.0
                   : wallSeconds / static_cast<double>(iters);
    }

    /**
     * Mean BUSY seconds per iteration: the sum of all timed stages.
     * Equals wall (minus data loading) on the serial schedule; exceeds
     * wall under the pipeline, where prepare stages overlap compute --
     * figures that break time down by stage use this denominator.
     */
    double
    busySecondsPerIter() const
    {
        return iters == 0 ? 0.0
                          : timer.totalSeconds() /
                                static_cast<double>(iters);
    }
};

/**
 * Execute a spec: build model + dataset, warm up, measure.
 *
 * LazyDP variants optionally get a steady-state HistoryTable so the
 * measured per-iteration pending-noise volume matches long-running
 * training rather than a cold start.
 */
RunStats runMeasured(const RunSpec &spec);

/** Expected unique rows gathered per table per iteration. */
double expectedUniqueRows(std::uint64_t rows, std::size_t batch,
                          std::size_t pooling);

/** Steady-state expected pending-noise delay (rows / unique-per-iter). */
double expectedDelay(const ModelConfig &model, std::size_t batch);

/**
 * Modeled per-iteration seconds for an eager DP-SGD at a target table
 * size, reusing a measured run's size-independent stages.
 */
double modeledEagerSeconds(const RunStats &measured,
                           const ModelConfig &measured_model,
                           std::uint64_t target_table_bytes,
                           std::size_t batch);

/** Modeled per-iteration seconds for LazyDP at any table size. */
double modeledLazySeconds(const RunStats &measured,
                          const ModelConfig &model, std::size_t batch,
                          bool use_ans, std::uint64_t target_table_bytes);

/** Shared "dataset config from model config" helper. */
DatasetConfig datasetFor(const ModelConfig &model,
                         const AccessConfig &access, std::size_t batch,
                         std::uint64_t seed);

/** Print the standard scale-note preamble for a figure bench. */
void printPreamble(const std::string &figure, const std::string &what);

} // namespace bench
} // namespace lazydp

#endif // LAZYDP_BENCH_BENCH_COMMON_H
