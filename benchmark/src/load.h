/**
 * @file
 * The load the benchmark drives the program with: a mini-batch source
 * for training and a single-thread open-loop request generator for
 * serving. Both are the benchmark's own, so a change to the program's
 * loaders or load generator cannot move the yardstick.
 */

#ifndef LAZYDP_BENCHMARK_LOAD_H
#define LAZYDP_BENCHMARK_LOAD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "data/data_loader.h"
#include "data/synthetic_dataset.h"
#include "serve/serve_engine.h"

namespace bench {

using Clock = std::chrono::steady_clock;

/**
 * Streams dataset batches 0, 1, 2, ... and records a "batch" span per
 * fetch. Under the pipelined trainer next() runs on the pipeline lane.
 */
class BenchLoader : public lazydp::DataLoader
{
  public:
    explicit BenchLoader(const lazydp::SyntheticDataset &dataset)
        : dataset_(dataset)
    {
    }

    lazydp::MiniBatch next() override;

    std::uint64_t produced() const override { return next_; }

  private:
    const lazydp::SyntheticDataset &dataset_;
    std::uint64_t next_ = 0;
};

/** @return the summed per-table distinct row count of @p mb . */
std::uint64_t uniqueRows(const lazydp::MiniBatch &mb);

/** One issued request and how the generator issued it. */
struct RequestRecord
{
    lazydp::PendingRequestPtr req;
    Clock::time_point due;  //!< scheduled arrival
    double submitUs = 0.0;  //!< time spent inside ServeEngine::submit
    double lagUs = 0.0;     //!< how late the generator sent it
};

/**
 * Open-loop generator on one thread of its own: Poisson arrivals at a
 * fixed rate, seeded, each request timed from its scheduled arrival so
 * a stall counts against every request it delays. Requests carry no
 * deadline, so none is dropped: a late answer misses the SLO instead.
 * Issues until stop() or until @p max_requests were sent (0 = no
 * limit).
 */
class OpenLoop
{
  public:
    OpenLoop(lazydp::ServeEngine &engine,
             const std::vector<lazydp::ServeQuery> &queries, double qps,
             std::uint64_t seed, std::uint64_t max_requests);
    ~OpenLoop();

    OpenLoop(const OpenLoop &) = delete;
    OpenLoop &operator=(const OpenLoop &) = delete;

    /** Start issuing (once). */
    void start();

    /** Stop issuing and join the generator thread (idempotent). */
    void stop();

    /** Join after the generator sent max_requests. */
    void join();

    /** @return the issued requests (valid after stop()/join()). */
    const std::vector<RequestRecord> &records() const { return records_; }

  private:
    void loop();

    lazydp::ServeEngine &engine_;
    const std::vector<lazydp::ServeQuery> &queries_;
    double qps_;
    std::uint64_t seed_;
    std::uint64_t maxRequests_;
    std::vector<RequestRecord> records_;
    std::atomic<bool> stop_{false};
    std::thread thread_;
};

/** What a set of issued requests amounted to. */
struct ServeOutcome
{
    std::uint64_t issued = 0;
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t shutdown = 0;
    std::uint64_t okWithinSlo = 0;
    std::uint64_t badScores = 0;   //!< Ok scores outside (0, 1)
    std::uint64_t badVersions = 0; //!< Ok versions below 1
    std::vector<double> latencyMs;   //!< Ok: scheduled arrival -> done
    std::vector<double> serviceMs;   //!< Ok: enqueued -> done
    std::vector<double> stalenessMs; //!< Ok: version publish -> done
    std::vector<double> submitUs;
    std::vector<double> lagUs;
    std::set<std::uint64_t> versions; //!< distinct Ok versions

    void merge(const ServeOutcome &o);
};

/**
 * Wait for every request of @p records and summarize them. A request
 * is within the SLO when it ended Ok no later than @p slo_us after its
 * scheduled arrival. @p publish_times maps a training iteration to
 * the instant its snapshot became servable.
 */
ServeOutcome
summarize(const std::vector<RequestRecord> &records,
          std::uint64_t slo_us,
          const std::map<std::uint64_t, Clock::time_point> &publish_times);

/**
 * @return @p count serving queries: examples of a dataset shaped like
 * @p config but with its own seed, so no query is a training example.
 */
std::vector<lazydp::ServeQuery>
makeQueries(lazydp::DatasetConfig config, std::size_t count);

} // namespace bench

#endif // LAZYDP_BENCHMARK_LOAD_H
