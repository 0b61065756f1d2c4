#include "load.h"

#include <algorithm>
#include <cmath>

#include "rng/xoshiro.h"
#include "spans.h"

namespace bench {

using namespace lazydp;

namespace {

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

} // namespace

MiniBatch
BenchLoader::next()
{
    ScopedSpan span("data", "batch", next_);
    return dataset_.batch(next_++);
}

std::uint64_t
uniqueRows(const MiniBatch &mb)
{
    std::uint64_t total = 0;
    std::vector<std::uint32_t> rows;
    for (std::size_t t = 0; t < mb.numTables; ++t) {
        const auto idx = mb.tableIndices(t);
        rows.assign(idx.begin(), idx.end());
        std::sort(rows.begin(), rows.end());
        total += static_cast<std::uint64_t>(
            std::unique(rows.begin(), rows.end()) - rows.begin());
    }
    return total;
}

OpenLoop::OpenLoop(ServeEngine &engine,
                   const std::vector<ServeQuery> &queries, double qps,
                   std::uint64_t seed, std::uint64_t max_requests)
    : engine_(engine), queries_(queries), qps_(qps), seed_(seed),
      maxRequests_(max_requests)
{
}

OpenLoop::~OpenLoop() { stop(); }

void
OpenLoop::start()
{
    thread_ = std::thread([this] { loop(); });
}

void
OpenLoop::stop()
{
    stop_.store(true, std::memory_order_relaxed);
    join();
}

void
OpenLoop::join()
{
    if (thread_.joinable())
        thread_.join();
}

void
OpenLoop::loop()
{
    spansNameThread("open-loop generator");
    Xoshiro256 rng(seed_);
    const auto period = [&] {
        // Exponential inter-arrival gap of a Poisson process.
        const double u = rng.nextDouble();
        return std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(-std::log1p(-u) / qps_));
    };
    records_.reserve(maxRequests_ != 0
                         ? maxRequests_
                         : static_cast<std::size_t>(qps_ * 64));
    Clock::time_point due = Clock::now() + period();
    for (std::uint64_t k = 0;
         maxRequests_ == 0 || k < maxRequests_; ++k, due += period()) {
        std::this_thread::sleep_until(due);
        if (stop_.load(std::memory_order_relaxed))
            break;
        RequestRecord rec;
        rec.due = due;
        const Clock::time_point sent = Clock::now();
        rec.lagUs = msBetween(due, sent) * 1e3;
        rec.req = engine_.submit(queries_[k % queries_.size()]);
        rec.submitUs = msBetween(sent, Clock::now()) * 1e3;
        records_.push_back(std::move(rec));
    }
}

void
ServeOutcome::merge(const ServeOutcome &o)
{
    issued += o.issued;
    ok += o.ok;
    shed += o.shed;
    expired += o.expired;
    shutdown += o.shutdown;
    okWithinSlo += o.okWithinSlo;
    badScores += o.badScores;
    badVersions += o.badVersions;
    const auto append = [](std::vector<double> &a,
                           const std::vector<double> &b) {
        a.insert(a.end(), b.begin(), b.end());
    };
    append(latencyMs, o.latencyMs);
    append(serviceMs, o.serviceMs);
    append(stalenessMs, o.stalenessMs);
    append(submitUs, o.submitUs);
    append(lagUs, o.lagUs);
    versions.insert(o.versions.begin(), o.versions.end());
}

ServeOutcome
summarize(const std::vector<RequestRecord> &records,
          std::uint64_t slo_us,
          const std::map<std::uint64_t, Clock::time_point> &publish_times)
{
    using Status = ServeResult::Status;
    ServeOutcome out;
    for (const RequestRecord &rec : records) {
        const ServeResult &r = rec.req->wait();
        ++out.issued;
        out.submitUs.push_back(rec.submitUs);
        out.lagUs.push_back(rec.lagUs);
        switch (r.status) {
        case Status::Shed: ++out.shed; continue;
        case Status::Expired: ++out.expired; continue;
        case Status::Shutdown: ++out.shutdown; continue;
        case Status::Ok: break;
        }
        ++out.ok;
        const Clock::time_point done = rec.req->completedAt();
        spanRecordOn(kRequestTrack, "serve", "request", spanNs(rec.due),
                     spanNs(done), r.version);
        const double latency = msBetween(rec.due, done);
        out.latencyMs.push_back(latency);
        out.serviceMs.push_back(msBetween(rec.req->enqueuedAt, done));
        if (latency * 1e3 <= static_cast<double>(slo_us))
            ++out.okWithinSlo;
        if (!(r.score > 0.0f && r.score < 1.0f))
            ++out.badScores;
        if (r.version < 1)
            ++out.badVersions;
        out.versions.insert(r.version);
        // The publish instant is taken just after the snapshot became
        // visible, so a request scored in between reads as age 0.
        const auto pub = publish_times.find(r.iteration);
        if (pub != publish_times.end())
            out.stalenessMs.push_back(
                std::max(0.0, msBetween(pub->second, done)));
    }
    return out;
}

std::vector<ServeQuery>
makeQueries(DatasetConfig config, std::size_t count)
{
    config.batchSize = count;
    const MiniBatch mb = SyntheticDataset(config).batch(0);
    const std::size_t dense = mb.dense.cols();
    std::vector<ServeQuery> queries(count);
    for (std::size_t e = 0; e < count; ++e) {
        ServeQuery &q = queries[e];
        q.dense.assign(mb.dense.data() + e * dense,
                       mb.dense.data() + (e + 1) * dense);
        q.indices.reserve(mb.numTables * mb.pooling);
        for (std::size_t t = 0; t < mb.numTables; ++t) {
            const auto ids = mb.exampleIndices(t, e);
            q.indices.insert(q.indices.end(), ids.begin(), ids.end());
        }
    }
    return queries;
}

} // namespace bench
