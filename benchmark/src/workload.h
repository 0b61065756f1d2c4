/**
 * @file
 * The benchmark's workloads and one repetition of a workload.
 *
 * A repetition builds everything from the seed (model, dataset, engine,
 * serving tier), trains warmup + measured iterations under the real
 * Trainer, releases the model (finalize, publish, first request on the
 * released version), and -- on the training-only workloads -- serves
 * the released model under open-loop load. A run repeats this until its
 * time budget is spent, so set-up is measured several times per run.
 */

#ifndef LAZYDP_BENCHMARK_WORKLOAD_H
#define LAZYDP_BENCHMARK_WORKLOAD_H

#include <cstdint>
#include <string>
#include <vector>

#include "core/lazydp.h"
#include "load.h"
#include "nn/tiered_store.h"
#include "serve/snapshot_store.h"
#include "traced_algorithm.h"

namespace bench {

/** One workload: a fixed configuration of the program. */
struct WorkloadSpec
{
    const char *name;
    const char *algo;          //!< factory name of the engine
    std::uint64_t tableMb;     //!< embedding-table budget (MiB)
    std::size_t batch;         //!< lot size
    const char *access;        //!< access-skew preset
    std::size_t width;         //!< training pool width
    std::uint64_t hotDivisor;  //!< tiered: hot tier = tables / this
    std::uint64_t warmup;      //!< warmup iterations per repetition
    std::uint64_t iters;       //!< measured iterations per repetition
    bool serveWhileTrain;      //!< serve during training, not after
};

/** @return every workload, in the order run.sh runs them. */
const std::vector<WorkloadSpec> &workloads();

/** @return the workload called @p name , or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Serving operating point shared by every workload. */
inline constexpr double kServeQps = 2000.0;
/** Latency limit of the serving SLO, from scheduled arrival. */
inline constexpr std::uint64_t kServeSloUs = 10000;
inline constexpr std::size_t kServeMaxBatch = 8;
inline constexpr std::uint64_t kServeMaxDelayUs = 200;
/** Pooled measured iterations a run needs: ten beyond its p90. */
inline constexpr std::uint64_t kMinIterSamples = 100;
/** Requests served after training on the training-only workloads. */
inline constexpr std::uint64_t kPostTrainRequests = 500;

/** Everything one repetition measured. */
struct RepResult
{
    bool traced = false;
    double setupSeconds = 0.0;   //!< rep start -> first measured iter
    double releaseSeconds = 0.0; //!< finalize + publish + first answer
    double wallSeconds = 0.0;    //!< measured iterations
    std::uint64_t iterations = 0;
    std::uint64_t runIterations = 0; //!< warmup + measured
    std::vector<double> iterSeconds;
    std::size_t batch = 0;

    // correctness
    bool lossesFinite = true;
    bool releaseAnswered = false; //!< probe Ok on the released version
    std::uint64_t versionsPublished = 0;
    std::uint64_t versionsExpected = 0;
    std::uint64_t modelHash = 0;

    ServeOutcome serve;
    bool serveCountersMatch = false; //!< client view == engine counters
    double serveMeanBatch = 0.0;

    lazydp::TierStats tier;
    /** Training publishes on serve-while-train, else the release's. */
    lazydp::PublishTotals publish;

    // traced repetitions only
    TracedAlgorithm::Totals stages;
    lazydp::LazyDpAlgorithm::OverheadBreakdown overhead;
    std::uint64_t uniqueRows = 0;      //!< summed over measured batches
    double batchSeconds = 0.0;         //!< data-loader fetches
    std::uint64_t batches = 0;
    double prepareSeconds = 0.0;       //!< measured prepare() calls
    double prepareHiddenSeconds = 0.0; //!< ... overlapping an apply()
    double warmTierSeconds = 0.0;      //!< measured warmTier() calls
};

/**
 * Run one repetition of @p spec from @p seed . With @p traced the
 * engine runs under TracedAlgorithm and spans are recorded. Scratch
 * files (the cold tier) live under @p scratch_dir and are removed.
 */
RepResult runRep(const WorkloadSpec &spec, std::uint64_t seed, bool traced,
                 const std::string &scratch_dir);

/** Achieved rates of the kernels at one workload's shapes. */
struct KernelRates
{
    double gaussianFillGbps = 0.0;
    double gaussianRooflineFrac = 0.0;
    double scatterAxpyGbps = 0.0;
    double poolRowsGbps = 0.0;
    double gemvGflops = 0.0;
};

/** Time the kernel registry's primitives at @p spec 's shapes. */
KernelRates probeKernels(const WorkloadSpec &spec, std::uint64_t seed);

} // namespace bench

#endif // LAZYDP_BENCHMARK_WORKLOAD_H
