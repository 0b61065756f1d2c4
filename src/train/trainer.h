/**
 * @file
 * Stage-timed training loop with an optional two-stage software
 * pipeline.
 *
 * Owns the mini-batch lookahead (InputQueue) so every algorithm sees
 * the same data flow the paper describes: one new batch fetched per
 * iteration, with the next batch visible to algorithms that want it
 * (LazyDP's Algorithm 1, lines 6-7).
 *
 * Pipelined schedule (`TrainOptions::pipeline`): while the main thread
 * runs the weight-dependent half of iteration i (forward/backward,
 * clipping, merged sparse update -- Algorithm::apply), the pool's async
 * lane loads batch i+2 and runs the weight-INDEPENDENT half of
 * iteration i+1 (next-batch dedup, HistoryTable reads, ANS stddev
 * derivation, keyed noise sampling -- Algorithm::prepare):
 *
 *      main thread      apply(1)   apply(2)   apply(3)  ...
 *      async lane     load+prep(2) load+prep(3) ...
 *
 * Prepares execute strictly in iteration order on one lane, all noise
 * is keyed by (iteration, table, row), and prepare owns all
 * HistoryTable state, so the trained model is BIT-identical to the
 * serial schedule at any thread count.
 */

#ifndef LAZYDP_TRAIN_TRAINER_H
#define LAZYDP_TRAIN_TRAINER_H

#include <cstdint>
#include <functional>
#include <vector>

#include "common/timer.h"
#include "data/data_loader.h"
#include "data/input_queue.h"
#include "nn/tiered_store.h"
#include "train/algorithm.h"

namespace lazydp {

class ModelSnapshotStore;

/** Knobs of one Trainer::run invocation. */
struct TrainOptions
{
    /**
     * Overlap prepare(i+1) and the batch-(i+2) load with apply(i) on
     * the pool's async lane. Requires an ExecContext with a pool;
     * silently falls back to the serial schedule without one. Never
     * changes the trained model.
     */
    bool pipeline = false;

    /**
     * Lot-sharded data-parallel worker replicas (train/replica.h):
     * every apply() fans its microbatch-shard gradient production
     * across this many workers (replica 0 = the main thread, the rest
     * on dedicated pool lanes) before the deterministic tree reduction
     * and the single noise-add/update. Must be 1, 2 or 4 (a divisor of
     * the fixed shard count). Requires a pool to actually run
     * concurrently; without one the same dataflow executes inline.
     * Never changes the trained model -- the third orthogonal
     * parallelism axis next to intra-op threads and the pipeline.
     */
    std::size_t replicas = 1;

    /**
     * Run Algorithm::finalize after the last iteration (default). Off
     * for checkpoint-segmented training: finalize flushes LazyDP's
     * pending noise into the weights, which must happen exactly once,
     * at the true end of training -- not at a mid-run checkpoint.
     */
    bool runFinalize = true;

    /** Keep the loss trajectory (benches may disable). */
    bool recordLosses = true;

    /**
     * Iteration-id offset: step k of the run executes as global
     * iteration startIter + k (warm-started HistoryTables require ids
     * beyond the warm-start point).
     */
    std::uint64_t startIter = 0;

    /**
     * First warmupIters iterations accrue into TrainResult::warmupTimer
     * instead of timer, and wallSeconds covers only the remainder.
     */
    std::uint64_t warmupIters = 0;

    /**
     * Fetch one extra batch so even the final iteration sees a `next`
     * (benches measure steady-state lookahead work on every iteration).
     */
    bool previewFinal = false;

    /**
     * Record each measured (post-warmup) iteration's end-to-end wall
     * seconds into TrainResult::iterSeconds, so benches can report
     * per-iteration tail percentiles (p95/p99) next to the mean.
     */
    bool recordIterSeconds = false;

    /**
     * Publish a versioned model snapshot into snapshotStore after
     * every publishEveryIters-th iteration of this run (0 = never).
     * The publish happens after apply() completes -- under the
     * pipelined schedule the only concurrent work is prepare(i+1),
     * which never touches weights, so the copy is race-free. Requires
     * snapshotStore and an algorithm bound to a model.
     */
    std::uint64_t publishEveryIters = 0;

    /** Snapshot exchange serving reads from (not owned; may be null). */
    ModelSnapshotStore *snapshotStore = nullptr;

    /**
     * Optional between-iterations hook, called after iteration i fully
     * completes (apply done, overlapped prepare joined, snapshot
     * published) and before iteration i+1 starts -- never after the
     * final iteration. The benchmark marks iteration boundaries here.
     * The hook runs with no training state in flight and can only
     * delay WHEN the next iteration starts, so it never changes the
     * trained model -- the DP bit-identity matrix holds with any gate
     * installed (tests/integration/pipeline_test.cc).
     */
    std::function<void()> iterationGate;
};

/** Result of a training run. */
struct TrainResult
{
    StageTimer timer;            //!< measured (post-warmup) stage time
    StageTimer warmupTimer;      //!< stage time of the warmup iterations
    StageTimer finalizeTimer;    //!< stage time of Algorithm::finalize
    std::vector<double> losses;  //!< per-iteration training loss

    /**
     * Wall seconds of each measured iteration (only with
     * TrainOptions::recordIterSeconds): the percentile source for
     * per-iteration p95/p99 reporting.
     */
    std::vector<double> iterSeconds;
    double wallSeconds = 0.0;    //!< wall time of the measured iterations
    double finalizeSeconds = 0.0;//!< wall time of Algorithm::finalize
    std::uint64_t iterations = 0;//!< measured (post-warmup) iterations

    // Publish-side costs (zero unless TrainOptions::publishEveryIters),
    // summed over every publish of the run: how much the serving
    // freshness actually cost the training loop.
    double publishSeconds = 0.0;  //!< wall time inside publish()
    std::uint64_t publishes = 0;  //!< snapshots published by this run
    std::uint64_t rowsCopied = 0; //!< embedding rows memcpy'd
    std::uint64_t pagesShared = 0;//!< COW pages shared across versions

    /**
     * Out-of-core residency traffic summed over the model's tiered
     * tables (all zeros for an all-DRAM model): hit rate, promotions,
     * evictions, write-backs and warm coverage of the run. Collected
     * once at the end of run(), after the warm lane drained.
     */
    TierStats tierStats;

    /**
     * Sum of all measured stage times: total CPU-side work. Equals
     * wallSeconds (minus untimed data loading) under the serial
     * schedule; under the pipeline the overlapped prepare stages make
     * busySeconds EXCEED wallSeconds -- report both.
     */
    double busySeconds() const { return timer.totalSeconds(); }

    /** @return average wall seconds per measured iteration. */
    double
    secondsPerIteration() const
    {
        return iterations == 0 ? 0.0
                               : wallSeconds /
                                     static_cast<double>(iterations);
    }
};

/** Drives an Algorithm over a loader for a fixed iteration count. */
class Trainer
{
  public:
    /**
     * @param algorithm algorithm under test (not owned)
     * @param loader mini-batch source (not owned)
     * @param exec execution context handed to every step/finalize
     *        (not owned; nullptr = serial)
     */
    Trainer(Algorithm &algorithm, DataLoader &loader,
            ExecContext *exec = nullptr);

    /**
     * Run @p iterations training steps plus the algorithm's finalize.
     *
     * @param iterations number of optimizer steps
     * @param options schedule / accounting knobs
     */
    TrainResult run(std::uint64_t iterations,
                    const TrainOptions &options = {});

  private:
    /** Serial schedule: prepare+apply inline, one batch per iter. */
    void runSerial(std::uint64_t iterations, const TrainOptions &options,
                   TrainResult &result);

    /** Pipelined schedule: see the file comment. */
    void runPipelined(std::uint64_t iterations,
                      const TrainOptions &options, TrainResult &result);

    /**
     * Publish a snapshot after run-local iteration @p iter when the
     * options ask for one (stamped with the global iteration id),
     * accumulating publish costs into @p result .
     */
    void maybePublish(std::uint64_t iter, const TrainOptions &options,
                      TrainResult &result);

    Algorithm &algorithm_;
    DataLoader &loader_;
    ExecContext *exec_;
    /** Per-run copy of *exec_ carrying TrainOptions::replicas. */
    ExecContext runExec_;
};

} // namespace lazydp

#endif // LAZYDP_TRAIN_TRAINER_H
