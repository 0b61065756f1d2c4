/**
 * @file
 * Online DLRM inference engine: deadline-batched scoring against
 * versioned model snapshots, running concurrently with training.
 *
 * Dataflow per serve lane (worker):
 *
 *   RequestBatcher::pop  ->  micro-batch of 1..maxBatch queries
 *   ModelSnapshotStore::current  ->  one immutable snapshot
 *   assemble MiniBatch  ->  const DlrmModel::forward into the lane's
 *                           own DlrmWorkspace
 *   sigmoid(logit)  ->  PendingRequest::complete
 *
 * Consistency contract: the snapshot is grabbed ONCE per micro-batch,
 * so every query in a batch is scored by the same fully-published
 * version, and the response carries that version id. Because the
 * store's readers are wait-free and the forward path is const over a
 * caller-owned workspace, serving never blocks training and training
 * never tears a serve read (asserted under TSan by tests/serve).
 *
 * Threading: each worker is a dedicated ThreadPool lane
 * (ThreadPool::submitLane), the same primitive the Trainer uses for
 * its pipeline (lane 0) and replica workers (lanes 1..3). Serve lanes
 * default to lane 8 upward so train-and-serve shares one pool without
 * lane collisions; nested-dispatch flattening makes the forward run
 * serially within the lane, which is the right schedule for
 * latency-bound micro-batches.
 */

#ifndef LAZYDP_SERVE_SERVE_ENGINE_H
#define LAZYDP_SERVE_SERVE_ENGINE_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "data/minibatch.h"
#include "nn/dlrm.h"
#include "serve/request_batcher.h"
#include "serve/snapshot_store.h"

namespace lazydp {

/** ServeEngine configuration. */
struct ServeOptions
{
    /** Number of serve lanes (dedicated worker threads). */
    std::size_t threads = 1;

    /**
     * Micro-batching + admission policy (coalescing cap, batching
     * deadline, per-lane queue cap, shed policy). The batcher shards
     * one queue per serve lane (hash-routed push, work-stealing pop).
     */
    BatchPolicy batch;

    /**
     * First ThreadPool lane used for serving; lanes
     * [firstLane, firstLane + threads) must not collide with the
     * trainer's lanes (kPipelineLane, the replica lanes, and the
     * out-of-core warm lane kTierPrefetchLane). The shared lane map
     * lives in common/thread_pool.h.
     */
    std::size_t firstLane = ThreadPool::kServeLaneBase;
};

/** Cumulative serving counters (one engine lifetime). */
struct ServeStats
{
    std::uint64_t served = 0;     //!< requests completed by serve lanes
    std::uint64_t batches = 0;    //!< micro-batches executed

    /**
     * Of `served`, how many were scored within their SLO deadline
     * (taken just before their completions are delivered; requests
     * with no deadline always count). served - okDeadline is the
     * "scored but too late to be useful" tail.
     */
    std::uint64_t okDeadline = 0;
    std::uint64_t minVersion = 0; //!< oldest snapshot version served (0 = none)
    std::uint64_t maxVersion = 0; //!< newest snapshot version served

    // Admission-control outcomes (from the batcher; these requests
    // completed WITHOUT reaching a forward pass and are not in
    // `served`).
    std::uint64_t shed = 0;     //!< rejected by admission control
    std::uint64_t expired = 0;  //!< past their SLO deadline before scoring
    std::uint64_t shutdown = 0; //!< rejected after stop()
    std::uint64_t stolenBatches = 0; //!< batches work-stolen across lanes

    /** @return mean micro-batch size (the batching policy's yield). */
    double
    meanBatch() const
    {
        return batches == 0
                   ? 0.0
                   : static_cast<double>(served) /
                         static_cast<double>(batches);
    }
};

/** Deadline-batched inference engine over a snapshot store. */
class ServeEngine
{
  public:
    /**
     * Start the serve lanes. The store may be empty at construction;
     * lanes serving before the first publish spin-sleep until it
     * arrives OR until stop(), so a train-and-serve startup has no
     * ordering requirement between the first publish and the first
     * request, and shutdown never deadlocks on a store that never
     * published (such requests complete with Status::Shutdown and
     * ServeResult::version 0, the "never scored" marker).
     *
     * @param store snapshot exchange (not owned; written by trainer)
     * @param config model shape queries must match
     * @param pool shared thread pool providing the serve lanes
     * @param options lanes / batching policy
     */
    ServeEngine(const ModelSnapshotStore &store, const ModelConfig &config,
                ThreadPool &pool, const ServeOptions &options);

    /** Stops and drains (see stop()). */
    ~ServeEngine();

    ServeEngine(const ServeEngine &) = delete;
    ServeEngine &operator=(const ServeEngine &) = delete;

    /**
     * Enqueue one query for scoring.
     *
     * ALWAYS returns a request handle whose wait() returns: if the
     * query is shed by admission control or rejected because the
     * engine stopped, the handle is already completed with
     * Status::Shed / Status::Shutdown -- there is no silent-drop path
     * for a client to block on.
     *
     * @param query one example; dense.size() must equal numDense and
     *        indices.size() must equal numTables * pooling
     * @param slo deadline + shed priority class of this request
     * @return handle to wait on (never nullptr)
     */
    PendingRequestPtr submit(ServeQuery query, SloClass slo = {});

    /**
     * Stop accepting new queries, drain everything already queued,
     * and join the serve lanes. Idempotent.
     */
    void stop();

    /** @return a consistent copy of the cumulative counters. */
    ServeStats stats() const;

    const ServeOptions &options() const { return options_; }
    const ModelConfig &config() const { return config_; }

  private:
    /** One serve lane: pop own shard -> snapshot -> forward -> complete. */
    void workerLoop(std::size_t lane);

    const ModelSnapshotStore &store_;
    ModelConfig config_;
    ServeOptions options_;
    RequestBatcher batcher_;
    std::vector<TaskHandle> workers_;
    /**
     * Single stop flag: exchange(true) gives stop() its idempotence
     * check, and the wait-for-first-publish spin observes it.
     */
    std::atomic<bool> stopping_{false};

    mutable std::mutex statsMu_;
    ServeStats stats_;
};

} // namespace lazydp

#endif // LAZYDP_SERVE_SERVE_ENGINE_H
