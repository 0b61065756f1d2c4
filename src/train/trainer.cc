#include "train/trainer.h"

#include <utility>

#include "common/macros.h"
#include "nn/dlrm.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/snapshot_store.h"

namespace lazydp {

namespace {

/** Registry mirrors of the per-publish receipts. */
struct PublishMetrics
{
    obs::MetricId publishes;
    obs::MetricId rowsCopied;
    obs::MetricId pagesShared;
    obs::MetricId publishNs;
};

const PublishMetrics &
publishMetrics()
{
    static const PublishMetrics ids = {
        obs::internMetric("train.publishes", obs::MetricKind::Counter),
        obs::internMetric("train.rows_copied",
                          obs::MetricKind::Counter),
        obs::internMetric("train.pages_shared",
                          obs::MetricKind::Counter),
        obs::internMetric("train.publish_ns",
                          obs::MetricKind::Histogram),
    };
    return ids;
}

} // namespace

Trainer::Trainer(Algorithm &algorithm, DataLoader &loader,
                 ExecContext *exec)
    : algorithm_(algorithm), loader_(loader),
      exec_(exec != nullptr ? exec : &ExecContext::serial())
{
}

TrainResult
Trainer::run(std::uint64_t iterations, const TrainOptions &options)
{
    TrainResult result;
    if (iterations == 0)
        return result;
    LAZYDP_ASSERT(options.warmupIters < iterations,
                  "warmup would consume every iteration");
    if (options.publishEveryIters != 0) {
        LAZYDP_ASSERT(options.snapshotStore != nullptr,
                      "publishEveryIters needs a snapshotStore");
        LAZYDP_ASSERT(algorithm_.model() != nullptr,
                      "snapshot publishing needs a model-bound "
                      "algorithm");
        // Delta stores want the engine's dirty-row oracle. Mutations
        // BEFORE this run (checkpoint restores, a previous run's
        // finalize, manual edits) predate any tracking, so the first
        // publish of the run must copy everything; engines without a
        // sparse oracle simply leave the tracker null (full-copy
        // fallback on every publish).
        const SnapshotOptions &sopts =
            options.snapshotStore->options();
        if (sopts.mode == SnapshotMode::Delta &&
            algorithm_.enableDirtyTracking(sopts.pageRows))
            algorithm_.dirtyTracker()->markAllDirty();
    }
    if (options.recordLosses)
        result.losses.reserve(iterations);
    if (options.recordIterSeconds)
        result.iterSeconds.reserve(iterations - options.warmupIters);

    // The pipeline needs the pool's async lane; without a pool the
    // serial schedule is the only (and identical-result) option.
    if (options.pipeline && exec_->pool != nullptr)
        runPipelined(iterations, options, result);
    else
        runSerial(iterations, options, result);

    // Join the out-of-core warm lane before finalize: the dense
    // catch-up sweep writes through to cold pages, which must not
    // overlap the warm task's cold reads (and the caller may
    // checkpoint or read stats right after run()).
    if (algorithm_.model() != nullptr)
        algorithm_.model()->drainTierWarm();

    if (options.runFinalize) {
        WallTimer fin;
        algorithm_.finalize(options.startIter + iterations, *exec_,
                            result.finalizeTimer);
        result.finalizeSeconds = fin.seconds();
    }
    result.iterations = iterations - options.warmupIters;
    if (algorithm_.model() != nullptr)
        result.tierStats = algorithm_.model()->tierStats();
    return result;
}

void
Trainer::runSerial(std::uint64_t iterations, const TrainOptions &options,
                   TrainResult &result)
{
    InputQueue queue(2);
    // Bootstrap: load the first mini-batch (Algorithm 1, line 5).
    queue.push(loader_.next());

    WallTimer wall;
    double iter_mark = 0.0; // wall offset of the last recorded iter end
    for (std::uint64_t iter = 1; iter <= iterations; ++iter) {
        // One new batch per iteration (line 7); on the final iteration
        // there is no next batch to preview unless previewFinal asks
        // for steady-state lookahead on every step.
        const bool has_next =
            iter < iterations || options.previewFinal;
        if (has_next) {
            queue.push(loader_.next());
            // Out-of-core lookahead: warm the next batch's rows while
            // this iteration computes. For LazyDP those rows are also
            // exactly THIS apply's pending-noise row set (nextUnique),
            // so one warm serves both sides of the merged update.
            algorithm_.warmTier(queue.at(1), nullptr, exec_->pool);
        }
        if (iter == options.warmupIters + 1) {
            wall.reset();
            iter_mark = 0.0;
        }
        StageTimer &timer = iter <= options.warmupIters
                                ? result.warmupTimer
                                : result.timer;

        double loss = 0.0;
        {
            LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "step", "iter",
                               options.startIter + iter);
            loss = algorithm_.step(
                options.startIter + iter, queue.head(),
                has_next ? &queue.at(1) : nullptr, *exec_, timer);
        }
        if (options.recordLosses)
            result.losses.push_back(loss);
        maybePublish(iter, options);
        if (options.recordIterSeconds && iter > options.warmupIters) {
            const double now = wall.seconds();
            result.iterSeconds.push_back(now - iter_mark);
            iter_mark = now;
        }

        queue.pop();
        if (options.iterationGate && iter < iterations) {
            LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "iteration_gate",
                               "iter", options.startIter + iter);
            options.iterationGate();
        }
    }
    result.wallSeconds = wall.seconds();
}

void
Trainer::runPipelined(std::uint64_t iterations,
                      const TrainOptions &options, TrainResult &result)
{
    // Depth-3 ring: batch i (current), i+1 (being prepared against),
    // i+2 (being prefetched). Slots are stable, so the head reference
    // the main thread computes on stays valid while the async lane
    // pushes the prefetched batch.
    InputQueue queue(3);
    queue.push(loader_.next());
    const bool first_has_next = iterations > 1 || options.previewFinal;
    if (first_has_next)
        queue.push(loader_.next());

    // Double-buffered prepared state: apply(i) drains one buffer while
    // prepare(i+1) fills the other.
    auto buf_a = algorithm_.makePrepared();
    auto buf_b = algorithm_.makePrepared();
    PreparedStep *cur_prep = buf_a.get();
    PreparedStep *next_prep = buf_b.get();

    // The overlapped prepare times into a private timer (the main
    // thread concurrently uses the result timers) merged into the
    // consuming iteration's timer after the join.
    StageTimer prep_timer;

    {
        // Nothing to overlap the first prepare with: run it inline.
        StageTimer &t1 = options.warmupIters >= 1 ? result.warmupTimer
                                                  : result.timer;
        LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "prepare", "iter",
                           options.startIter + 1);
        algorithm_.prepare(options.startIter + 1, queue.head(),
                           first_has_next ? &queue.at(1) : nullptr,
                           *cur_prep, *exec_, t1);
        // Warm the first apply's full row set (batch 1 plus the
        // prepared lookahead rows) while nothing else is running.
        algorithm_.warmTier(queue.head(), cur_prep, exec_->pool);
    }

    WallTimer wall;
    double iter_mark = 0.0; // wall offset of the last recorded iter end
    for (std::uint64_t iter = 1; iter <= iterations; ++iter) {
        if (iter == options.warmupIters + 1) {
            wall.reset();
            iter_mark = 0.0;
        }
        StageTimer &timer = iter <= options.warmupIters
                                ? result.warmupTimer
                                : result.timer;
        const MiniBatch &cur = queue.head();

        // Launch the overlapped stage: prefetch batch iter+2 and
        // prepare iteration iter+1 against it. Runs serially on the
        // async lane -- prepare is exec-invariant (keyed noise, fixed
        // shards), so this changes nothing but wall time.
        TaskHandle pending;
        if (iter < iterations) {
            const bool next_has_next =
                iter + 1 < iterations || options.previewFinal;
            prep_timer.reset();
            const std::uint64_t prep_iter = options.startIter + iter + 1;
            pending = exec_->pool->submit([this, &queue, next_has_next,
                                           prep_iter, next_prep,
                                           &prep_timer] {
                LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "prepare",
                                   "iter", prep_iter);
                if (next_has_next)
                    queue.push(loader_.next());
                algorithm_.prepare(prep_iter, queue.at(1),
                                   next_has_next ? &queue.at(2)
                                                 : nullptr,
                                   *next_prep, ExecContext::serial(),
                                   prep_timer);
                // Warm the NEXT apply's row set (its batch + the rows
                // this prepare just deduped) so the warm I/O overlaps
                // the remainder of the current apply. Submission only
                // -- the warm task runs on its own dedicated lane.
                algorithm_.warmTier(queue.at(1), next_prep,
                                    exec_->pool);
            });
        }

        double loss = 0.0;
        try {
            LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "apply", "iter",
                               options.startIter + iter);
            loss = algorithm_.apply(options.startIter + iter, cur,
                                    *cur_prep, *exec_, timer);
        } catch (...) {
            // Drain the async stage before unwinding: its closure
            // captures this frame's queue and timers.
            if (pending.valid()) {
                try {
                    pending.wait();
                } catch (...) {
                }
            }
            throw;
        }
        if (options.recordLosses)
            result.losses.push_back(loss);
        // Safe while prepare(i+1) is still in flight: prepare never
        // reads or writes model weights (the pipeline's own contract),
        // so the snapshot copy cannot race it -- and the dirty tracker
        // is only ever marked by apply() on this thread.
        maybePublish(iter, options);

        if (pending.valid()) {
            pending.wait();
            StageTimer &consumer = iter + 1 <= options.warmupIters
                                       ? result.warmupTimer
                                       : result.timer;
            consumer.merge(prep_timer);
            std::swap(cur_prep, next_prep);
        }
        // The iteration truly ends once the overlapped stage joined --
        // the next apply cannot start earlier, so the per-iteration
        // wall samples tile the measured wall time exactly.
        if (options.recordIterSeconds && iter > options.warmupIters) {
            const double now = wall.seconds();
            result.iterSeconds.push_back(now - iter_mark);
            iter_mark = now;
        }
        queue.pop();
        // Gate with the pipeline drained: the overlapped prepare has
        // joined, so the pause stalls the whole training side -- the
        // serve lanes get the cores for the full pause.
        if (options.iterationGate && iter < iterations) {
            LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "iteration_gate",
                               "iter", options.startIter + iter);
            options.iterationGate();
        }
    }
    result.wallSeconds = wall.seconds();
}

void
Trainer::maybePublish(std::uint64_t iter, const TrainOptions &options)
{
    if (options.snapshotStore == nullptr ||
        options.publishEveryIters == 0 ||
        iter % options.publishEveryIters != 0)
        return;
    obs::TraceSpan span(obs::TraceCat::Trainer, "publish",
                        {"iter", options.startIter + iter});
    const PublishReceipt receipt = options.snapshotStore->publish(
        *algorithm_.model(), options.startIter + iter,
        algorithm_.dirtyTracker());
    span.setArg("rows_copied", receipt.rowsCopied);
    if (obs::metricsEnabled()) {
        const PublishMetrics &ids = publishMetrics();
        obs::counterAdd(ids.publishes);
        obs::counterAdd(ids.rowsCopied, receipt.rowsCopied);
        obs::counterAdd(ids.pagesShared, receipt.pagesShared);
        obs::histogramRecord(
            ids.publishNs,
            static_cast<std::uint64_t>(receipt.seconds * 1e9));
    }
}

} // namespace lazydp
