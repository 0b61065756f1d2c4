#include "obs/stats_sampler.h"

#include <chrono>

#include "common/logging.h"
#include "obs/trace.h"

namespace lazydp {
namespace obs {

namespace {

double
nowSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

void
appendKv(std::string &out, const std::string &name, std::uint64_t v,
         bool &first)
{
    if (!first)
        out.push_back(',');
    first = false;
    out.push_back('"');
    out.append(name);
    out.append("\":");
    out.append(std::to_string(v));
}

} // namespace

StatsSampler::StatsSampler(const SamplerOptions &options)
    : options_(options)
{
    if (options_.intervalUs == 0)
        fatal("stats sampler interval must be positive "
              "(--stats-interval-us)");
    if (!options_.outPath.empty()) {
        out_ = std::fopen(options_.outPath.c_str(), "w");
        if (out_ == nullptr)
            fatal("cannot open stats file ", options_.outPath,
                  " for writing");
    }
    startSeconds_ = nowSeconds();
    if (options_.startThread)
        thread_ = std::thread([this] { samplerLoop(); });
}

StatsSampler::~StatsSampler() { stop(); }

void
StatsSampler::samplerLoop()
{
    traceSetThreadName("stats-sampler");
    while (!stopping_.load(std::memory_order_relaxed)) {
        {
            std::unique_lock<std::mutex> lock(wakeMu_);
            wake_.wait_for(
                lock, std::chrono::microseconds(options_.intervalUs),
                [this] {
                    return stopping_.load(std::memory_order_relaxed);
                });
        }
        if (stopping_.load(std::memory_order_relaxed))
            return;
        sampleOnce();
    }
}

void
StatsSampler::sampleOnce()
{
    TraceSpan span(TraceCat::Sampler, "scrape");
    const MetricsSnapshot snap = scrapeMetrics();
    const std::uint64_t n =
        scrapes_.fetch_add(1, std::memory_order_relaxed) + 1;
    span.setArg("scrape", n);

    if (out_ != nullptr) {
        std::string line;
        line.reserve(1024);
        line.append("{\"scrape\":");
        line.append(std::to_string(n));
        char ts[48];
        std::snprintf(ts, sizeof(ts), ",\"ts\":%.6f",
                      nowSeconds() - startSeconds_);
        line.append(ts);

        line.append(",\"counters\":{");
        bool first = true;
        for (const MetricValue &m : snap.metrics)
            if (m.kind == MetricKind::Counter)
                appendKv(line, m.name, m.counter, first);
        line.append("},\"gauges\":{");
        first = true;
        for (const MetricValue &m : snap.metrics) {
            if (m.kind != MetricKind::Gauge)
                continue;
            if (!first)
                line.push_back(',');
            first = false;
            line.push_back('"');
            line.append(m.name);
            line.append("\":");
            line.append(std::to_string(m.gauge));
        }
        line.append("},\"histograms\":{");
        first = true;
        for (const MetricValue &m : snap.metrics) {
            if (m.kind != MetricKind::Histogram || m.count == 0)
                continue;
            if (!first)
                line.push_back(',');
            first = false;
            line.push_back('"');
            line.append(m.name);
            line.append("\":{\"count\":");
            line.append(std::to_string(m.count));
            line.append(",\"sum\":");
            line.append(std::to_string(m.sum));
            line.append(",\"p50\":");
            line.append(std::to_string(m.quantile(0.50)));
            line.append(",\"p95\":");
            line.append(std::to_string(m.quantile(0.95)));
            line.append(",\"p99\":");
            line.append(std::to_string(m.quantile(0.99)));
            line.push_back('}');
        }
        line.append("}}\n");
        // One fwrite per line: a concurrent logger or a second stream
        // to the same fd can never interleave mid-record.
        std::fwrite(line.data(), 1, line.size(), out_);
    }
}

void
StatsSampler::stop()
{
    if (stopping_.exchange(true))
        return;
    wake_.notify_all();
    if (thread_.joinable())
        thread_.join();
    // Final scrape: even a sub-interval run records its end state (the
    // CI smoke gates on a nonzero scrape count).
    sampleOnce();
    if (out_ != nullptr) {
        std::fclose(out_);
        out_ = nullptr;
    }
}

std::uint64_t
StatsSampler::scrapes() const
{
    return scrapes_.load(std::memory_order_relaxed);
}

} // namespace obs
} // namespace lazydp
