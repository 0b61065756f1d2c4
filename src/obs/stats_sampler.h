/**
 * @file
 * StatsSampler: the shared telemetry scrape lane.
 *
 * One background thread scrapes the MetricsRegistry on a fixed
 * cadence and appends one JSON object per scrape to a JSONL
 * time-series file (--stats-out).
 *
 * JSONL line schema (one line per scrape; all values cumulative):
 *
 *   {"scrape": N, "ts": seconds_since_sampler_start,
 *    "counters": {"serve.requests_served": 123, ...},
 *    "gauges": {...},
 *    "histograms": {"serve.forward_ns":
 *        {"count": C, "sum": S, "p50": ..., "p95": ..., "p99": ...},
 *     ...}}
 *
 * Histograms with zero recorded values are omitted from their map.
 * Each line is assembled in memory and written with a single fwrite,
 * so concurrent tool output never interleaves mid-line.
 *
 * Threading: sampleOnce() may be driven by hand (tests pass
 * startThread = false); stop() performs one final scrape so even a
 * run shorter than one interval yields a nonzero scrape count -- the
 * CI stats smoke gates on that.
 */

#ifndef LAZYDP_OBS_STATS_SAMPLER_H
#define LAZYDP_OBS_STATS_SAMPLER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

#include "obs/metrics.h"

namespace lazydp {
namespace obs {

/** StatsSampler knobs. */
struct SamplerOptions
{
    /** Scrape cadence in microseconds. */
    std::uint64_t intervalUs = 100000;

    /** JSONL output path; empty = no file (scrapes are only counted). */
    std::string outPath;

    /** Spawn the scrape thread in the constructor (default). Tests
     *  pass false and drive sampleOnce() by hand. */
    bool startThread = true;
};

/** Periodic registry scraper: JSONL time series. */
class StatsSampler
{
  public:
    explicit StatsSampler(const SamplerOptions &options);

    /** Stops and flushes (see stop()). */
    ~StatsSampler();

    StatsSampler(const StatsSampler &) = delete;
    StatsSampler &operator=(const StatsSampler &) = delete;

    /** Scrape once: aggregate the registry, append one JSONL line.
     *  Public so tests can drive scrapes by hand. */
    void sampleOnce();

    /** Stop the thread, take one final scrape, flush and close the
     *  file. Idempotent; the dtor calls it. */
    void stop();

    /** @return scrapes taken so far. */
    std::uint64_t scrapes() const;

    const SamplerOptions &options() const { return options_; }

  private:
    void samplerLoop();

    SamplerOptions options_;
    std::FILE *out_ = nullptr;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> scrapes_{0};
    double startSeconds_ = 0.0;

    std::mutex wakeMu_;
    std::condition_variable wake_;
    std::thread thread_;
};

} // namespace obs
} // namespace lazydp

#endif // LAZYDP_OBS_STATS_SAMPLER_H
