/**
 * @file
 * Lock-free metrics registry: per-thread sharded counters and
 * fixed-bucket log-linear histograms plus process-global gauges,
 * registered by interned id and aggregated on scrape.
 *
 * Design:
 *
 *  - **Interning**: a metric is registered once by name
 *    (internMetric), returning a small dense MetricId. Interning is a
 *    cold path (mutex + hash map); every call site caches the id in a
 *    function-local static, so the hot path never touches a string.
 *
 *  - **Sharding**: counter increments and histogram records go to a
 *    thread-local shard (created on a thread's first record and
 *    registered with the process-global registry), so concurrent
 *    writers never contend on a cache line. Each slot is a relaxed
 *    std::atomic so a concurrent scraper reads torn-free values.
 *    When a thread exits, its shard folds into a retired accumulator
 *    under the registry mutex -- totals stay EXACT across thread
 *    lifetimes (asserted by tests/obs/metrics_test.cc under TSan).
 *
 *  - **Gauges** are process-global atomics (last set wins): they model
 *    low-frequency instantaneous readings, where per-thread
 *    last-write aggregation has no meaning.
 *
 *  - **Scrape**: scrapeMetrics() walks every live shard plus the
 *    retired accumulator under the registry mutex and returns an
 *    owned MetricsSnapshot. Scraping is wait-free for the writers
 *    (they never take the mutex) and exact after writers quiesce.
 *
 *  - **Disabled cost**: every record call first does one relaxed load
 *    of the global enable flag and returns if telemetry is off --
 *    that branch is the entire disabled-mode overhead (the
 *    telemetry_overhead leg of bench/opt_serving.cc measures it
 *    end to end).
 *
 * Histogram buckets are log-linear: 4 linear sub-buckets per power of
 * two (HdrHistogram-style), covering the full uint64 domain in
 * kHistogramBuckets fixed buckets with <= 25% relative bucket width.
 * Values are whatever unit the call site chooses; duration metrics in
 * this codebase record NANOSECONDS and suffix the name `_ns`.
 */

#ifndef LAZYDP_OBS_METRICS_H
#define LAZYDP_OBS_METRICS_H

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace lazydp {
namespace obs {

/** What a metric measures (fixed at intern time; re-interning the same
 *  name with a different kind is a panic). */
enum class MetricKind : std::uint8_t
{
    Counter = 0, //!< monotone sum of per-thread increments
    Gauge,       //!< process-global last-set instantaneous value
    Histogram,   //!< log-linear value distribution
};

/** @return "counter" / "gauge" / "histogram". */
const char *metricKindName(MetricKind kind);

/** Dense metric handle (index into the registry). */
using MetricId = std::uint32_t;

/** Hard registry capacities: shards preallocate their slot arrays so
 *  growth never races the scraper. Interning past a cap is a panic
 *  (these are engineering headroom, not tunables). */
inline constexpr std::size_t kMaxMetrics = 256;
inline constexpr std::size_t kMaxHistograms = 32;

/** Log-linear layout: 4 sub-buckets per power of two over uint64. */
inline constexpr std::size_t kHistogramBuckets = 252;

/** Register (or look up) metric @p name of @p kind.
 *  Same name always returns the same id; a kind mismatch panics. */
MetricId internMetric(const char *name, MetricKind kind);

/** Master switch. Off (the default) reduces every record call to one
 *  relaxed atomic load; scrape still works (counts frozen). */
void setMetricsEnabled(bool enabled);

/** @return the master switch (relaxed; callable from any thread). */
bool metricsEnabled();

/** Add @p delta to counter @p id on this thread's shard. */
void counterAdd(MetricId id, std::uint64_t delta = 1);

/** Set gauge @p id to @p value (process-global, last set wins). */
void gaugeSet(MetricId id, std::int64_t value);

/** Record one @p value into histogram @p id on this thread's shard. */
void histogramRecord(MetricId id, std::uint64_t value);

/** @return the bucket index value @p v falls into. */
std::size_t histogramBucketIndex(std::uint64_t v);

/** @return the smallest value mapping to bucket @p bucket. */
std::uint64_t histogramBucketLowerBound(std::size_t bucket);

/** @return the largest value mapping to bucket @p bucket. */
std::uint64_t histogramBucketUpperBound(std::size_t bucket);

/** One metric's aggregated value at scrape time. */
struct MetricValue
{
    std::string name;
    MetricKind kind = MetricKind::Counter;

    std::uint64_t counter = 0; //!< Counter: summed over shards
    std::int64_t gauge = 0;    //!< Gauge: last set value

    // Histogram aggregate (empty vector for non-histograms).
    std::uint64_t count = 0; //!< total recorded values
    std::uint64_t sum = 0;   //!< sum of recorded values
    std::vector<std::uint64_t> buckets;

    /**
     * Nearest-rank quantile estimate: the upper bound of the bucket
     * holding the rank-ceil(q * count) value. Within one bucket width
     * of the exact nearest-rank sample (tests/obs/metrics_test.cc
     * checks this against stats::Percentiles). @return 0 if empty.
     */
    std::uint64_t quantile(double q) const;
};

/** Owned point-in-time aggregate of the whole registry. */
struct MetricsSnapshot
{
    std::vector<MetricValue> metrics; //!< indexed by MetricId

    /** @return the metric named @p name, or nullptr. */
    const MetricValue *find(const std::string &name) const;

    /** @return counter @p name 's value (0 when absent). */
    std::uint64_t counter(const std::string &name) const;
};

/** Aggregate every metric across all shards (cold path; wait-free for
 *  concurrent writers). */
MetricsSnapshot scrapeMetrics();

} // namespace obs
} // namespace lazydp

#endif // LAZYDP_OBS_METRICS_H
