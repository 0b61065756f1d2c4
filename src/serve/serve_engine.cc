#include "serve/serve_engine.h"

#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>
#include <utility>

#include "common/macros.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace lazydp {

namespace {

/** Registry mirrors of the per-engine ServeStats completion counters.
 *  Global and additive: with several engines in one process they sum,
 *  while each engine's stats() keeps its own exact view. */
struct ServeMetrics
{
    obs::MetricId served;
    obs::MetricId deadlineOk;
    obs::MetricId batches;
    obs::MetricId forwardNs;
    obs::MetricId latencyNs;
    obs::MetricId batchSize;
};

const ServeMetrics &
serveMetrics()
{
    static const ServeMetrics ids = {
        obs::internMetric("serve.requests_served",
                          obs::MetricKind::Counter),
        obs::internMetric("serve.deadline_ok",
                          obs::MetricKind::Counter),
        obs::internMetric("serve.batches", obs::MetricKind::Counter),
        obs::internMetric("serve.forward_ns",
                          obs::MetricKind::Histogram),
        obs::internMetric("serve.latency_ns",
                          obs::MetricKind::Histogram),
        obs::internMetric("serve.batch_size",
                          obs::MetricKind::Histogram),
    };
    return ids;
}

} // namespace

ServeEngine::ServeEngine(const ModelSnapshotStore &store,
                         const ModelConfig &config, ThreadPool &pool,
                         const ServeOptions &options)
    : store_(store), config_(config), options_(options),
      batcher_(options.batch, options.threads)
{
    LAZYDP_ASSERT(options_.threads >= 1, "need at least one serve lane");
    LAZYDP_ASSERT(ThreadPool::kServeLaneBase + options_.threads <=
                      ThreadPool::kMaxLanes,
                  "serve lanes exceed ThreadPool::kMaxLanes");
    workers_.reserve(options_.threads);
    for (std::size_t w = 0; w < options_.threads; ++w) {
        workers_.push_back(pool.submitLane(
            ThreadPool::kServeLaneBase + w, [this, w] { workerLoop(w); }));
    }
}

ServeEngine::~ServeEngine() { stop(); }

PendingRequestPtr
ServeEngine::submit(ServeQuery query, SloClass slo)
{
    LAZYDP_ASSERT(query.dense.size() == config_.numDense,
                  "query dense width != model");
    LAZYDP_ASSERT(query.indices.size() ==
                      config_.numTables * config_.pooling,
                  "query index count != numTables * pooling");
    auto request = std::make_shared<PendingRequest>();
    request->query = std::move(query);
    request->slo = slo;
    // A rejected push (shed / post-stop) already completed the request
    // with its status; the caller gets the handle either way and
    // wait() never hangs.
    batcher_.push(request);
    return request;
}

void
ServeEngine::stop()
{
    if (stopping_.exchange(true))
        return;
    batcher_.stop();
    for (auto &w : workers_)
        w.wait();
}

ServeStats
ServeEngine::stats() const
{
    ServeStats out;
    {
        std::lock_guard<std::mutex> lock(statsMu_);
        out = stats_;
    }
    const BatcherStats b = batcher_.stats();
    out.shed = b.shed;
    out.expired = b.expired;
    out.shutdown = b.shutdown;
    out.stolenBatches = b.stolenBatches;
    return out;
}

void
ServeEngine::workerLoop(std::size_t lane)
{
    // Lane-private scoring state: workspace, logits, batch assembly.
    // Buffers never shrink, so steady-state serving allocates nothing
    // once sizes stabilize at the batching cap.
    DlrmWorkspace ws;
    Tensor logits;
    MiniBatch mb;
    std::vector<PendingRequestPtr> batch;

    while (batcher_.pop(lane, batch) > 0) {
        // One snapshot per micro-batch: every query in it is scored by
        // the same fully-published version (consistency contract).
        auto snap = store_.current();
        while (snap == nullptr &&
               !stopping_.load(std::memory_order_relaxed)) {
            // Requests arrived before the first publish; briefly yield
            // until the trainer (or serve-only driver) publishes v1.
            std::this_thread::sleep_for(std::chrono::microseconds(50));
            snap = store_.current();
        }
        if (snap == nullptr) {
            // Shutting down before anything was ever published: these
            // requests can never be scored. Complete them with the
            // version-0 marker so no client blocks forever. They still
            // count as served/batched (completion accounting must
            // reconcile with submissions); min/maxVersion track only
            // SCORED requests, so they stay untouched.
            // Stats BEFORE complete(): complete() wakes the client,
            // and a client that observed its own completion must see
            // itself counted (stats() would otherwise transiently
            // under-report served).
            {
                std::lock_guard<std::mutex> lock(statsMu_);
                stats_.served += batch.size();
                stats_.batches += 1;
            }
            if (obs::metricsEnabled()) {
                const ServeMetrics &ids = serveMetrics();
                obs::counterAdd(ids.served, batch.size());
                obs::counterAdd(ids.batches);
            }
            ServeResult unscored;
            unscored.status = ServeResult::Status::Shutdown;
            for (auto &request : batch)
                request->complete(unscored);
            continue;
        }

        // Assemble the micro-batch in the standard MiniBatch layout
        // ([table][example][slot]) from the per-query [table][slot]
        // rows, reusing buffers across batches (cf. MiniBatch::slice).
        const std::size_t n = batch.size();
        obs::TraceSpan batchSpan(obs::TraceCat::Serve, "batch",
                                 {"batch", n},
                                 {"version", snap->version});
        const std::size_t pooling = config_.pooling;
        mb.batchSize = n;
        mb.numTables = config_.numTables;
        mb.pooling = pooling;
        mb.dense.resizeNoShrink(n, config_.numDense);
        mb.labels.resize(n);
        mb.indices.resize(config_.numTables * n * pooling);
        for (std::size_t e = 0; e < n; ++e) {
            const ServeQuery &q = batch[e]->query;
            std::memcpy(mb.dense.row(e).data(), q.dense.data(),
                        config_.numDense * sizeof(float));
            for (std::size_t t = 0; t < config_.numTables; ++t) {
                std::memcpy(mb.indices.data() +
                                (t * n + e) * pooling,
                            q.indices.data() + t * pooling,
                            pooling * sizeof(std::uint32_t));
            }
        }

        // Lanes flatten nested dispatch anyway; serial is the honest
        // execution context for a latency-bound micro-batch.
        const auto fwd_begin = PendingRequest::Clock::now();
        {
            LAZYDP_TRACE_SPAN1(obs::TraceCat::Serve, "forward", "batch",
                               n);
            snap->model.forward(mb, logits, ws, ExecContext::serial());
        }
        const auto fwd_end = PendingRequest::Clock::now();

        // Deadline check for the attainment signal: one timestamp for
        // the whole micro-batch, taken before any completion is
        // delivered (the same instant the stats are counted at, so a
        // window sampler can never see a completion that beat its own
        // attainment accounting). deadlineAt is time_point::max() for
        // no-deadline requests -- they always attain.
        const auto scored_at = PendingRequest::Clock::now();
        std::uint64_t in_deadline = 0;
        for (std::size_t e = 0; e < n; ++e)
            if (scored_at <= batch[e]->deadlineAt)
                ++in_deadline;

        // Stats BEFORE complete(): complete() is the client's wakeup,
        // so any observer that saw its own result must also see it
        // counted -- updating after the wakeup let stats().served
        // transiently read N-1 after the N-th client returned.
        {
            std::lock_guard<std::mutex> lock(statsMu_);
            stats_.served += n;
            stats_.batches += 1;
            if (stats_.minVersion == 0 ||
                snap->version < stats_.minVersion)
                stats_.minVersion = snap->version;
            if (snap->version > stats_.maxVersion)
                stats_.maxVersion = snap->version;
        }
        // Registry mirror at the same instant (still before any
        // complete()), so scrape-derived attainment obeys the same
        // counted-before-woken contract the local stats do.
        if (obs::metricsEnabled()) {
            const ServeMetrics &ids = serveMetrics();
            obs::counterAdd(ids.served, n);
            obs::counterAdd(ids.deadlineOk, in_deadline);
            obs::counterAdd(ids.batches);
            obs::histogramRecord(
                ids.forwardNs,
                static_cast<std::uint64_t>(
                    std::chrono::duration_cast<
                        std::chrono::nanoseconds>(fwd_end - fwd_begin)
                        .count()));
            obs::histogramRecord(ids.batchSize, n);
            for (std::size_t e = 0; e < n; ++e) {
                const auto wait = scored_at - batch[e]->enqueuedAt;
                obs::histogramRecord(
                    ids.latencyNs,
                    static_cast<std::uint64_t>(
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(wait)
                            .count()));
            }
        }

        ServeResult result;
        result.version = snap->version;
        result.iteration = snap->iteration;
        result.batchSize = static_cast<std::uint32_t>(n);
        for (std::size_t e = 0; e < n; ++e) {
            const float z = logits.at(e, 0);
            result.score = 1.0f / (1.0f + std::exp(-z));
            batch[e]->complete(result);
            obs::traceInstant(
                obs::TraceCat::Serve, "complete",
                {"in_deadline",
                 scored_at <= batch[e]->deadlineAt ? 1u : 0u},
                {"version", snap->version});
        }
    }
}

} // namespace lazydp
