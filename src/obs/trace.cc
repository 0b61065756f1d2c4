#include "obs/trace.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <vector>

#include "common/logging.h"

namespace lazydp {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> trace_enabled{false};

/** One buffered event; name/arg keys are unowned string literals. */
struct Event
{
    const char *name;
    std::uint64_t tsNs;
    std::uint64_t durNs; //!< 0 for instants
    TraceArg a;
    TraceArg b;
    TraceCat cat;
    char ph; //!< 'X' complete span, 'i' instant
};

/**
 * One thread's event log. The owning thread appends under `mu`
 * (uncontended in steady state); the serializer locks the same mutex,
 * so writing a trace mid-run is safe, just briefly blocking that
 * thread's next record.
 */
struct Buffer
{
    std::mutex mu;
    std::vector<Event> events;
    std::uint64_t dropped = 0;
    const char *threadName = nullptr;
    std::uint32_t tid = 0;
};

/** Leaky recorder singleton: buffers outlive their threads so a trace
 *  written after a lane exits still contains the lane's spans. */
struct Recorder
{
    std::mutex mu;
    std::vector<Buffer *> buffers; //!< owned, never freed
    std::uint32_t nextTid = 1;
    Clock::time_point epoch = Clock::now();
    bool epochPinned = false;
};

Recorder &
recorder()
{
    static Recorder *r = new Recorder();
    return *r;
}

Buffer &
localBuffer()
{
    thread_local Buffer *buf = nullptr;
    if (buf == nullptr) {
        buf = new Buffer();
        Recorder &r = recorder();
        std::lock_guard<std::mutex> lock(r.mu);
        buf->tid = r.nextTid++;
        r.buffers.push_back(buf);
    }
    return *buf;
}

void
append(Buffer &buf, const Event &e)
{
    std::lock_guard<std::mutex> lock(buf.mu);
    if (buf.events.size() >= kMaxEventsPerThread) {
        ++buf.dropped;
        return;
    }
    if (buf.events.empty())
        buf.events.reserve(4096);
    buf.events.push_back(e);
}

/** Append one event's JSON to @p out (no trailing comma). */
void
printEvent(std::string &out, const Buffer &buf, const Event &e)
{
    char head[160];
    // Chrome "ts"/"dur" are MICROseconds; keep ns precision via the
    // fractional part.
    int n = std::snprintf(
        head, sizeof(head),
        "{\"ph\":\"%c\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,", e.ph,
        buf.tid, static_cast<double>(e.tsNs) / 1e3);
    out.append(head, static_cast<std::size_t>(n));
    if (e.ph == 'X') {
        n = std::snprintf(head, sizeof(head), "\"dur\":%.3f,",
                          static_cast<double>(e.durNs) / 1e3);
        out.append(head, static_cast<std::size_t>(n));
    }
    if (e.ph == 'i')
        out.append("\"s\":\"t\",");
    out.append("\"cat\":\"");
    out.append(traceCatName(e.cat));
    out.append("\",\"name\":\"");
    out.append(e.name);
    out.push_back('"');
    if (e.a.key != nullptr) {
        n = std::snprintf(head, sizeof(head),
                          ",\"args\":{\"%s\":%llu", e.a.key,
                          static_cast<unsigned long long>(e.a.value));
        out.append(head, static_cast<std::size_t>(n));
        if (e.b.key != nullptr) {
            n = std::snprintf(
                head, sizeof(head), ",\"%s\":%llu", e.b.key,
                static_cast<unsigned long long>(e.b.value));
            out.append(head, static_cast<std::size_t>(n));
        }
        out.push_back('}');
    }
    out.push_back('}');
}

} // namespace

const char *
traceCatName(TraceCat cat)
{
    switch (cat) {
    case TraceCat::Trainer: return "trainer";
    case TraceCat::Serve: return "serve";
    case TraceCat::Tier: return "tier";
    case TraceCat::Sampler: return "sampler";
    case TraceCat::NumCats: break;
    }
    return "?";
}

void
traceStart()
{
    Recorder &r = recorder();
    {
        std::lock_guard<std::mutex> lock(r.mu);
        if (!r.epochPinned) {
            r.epoch = Clock::now();
            r.epochPinned = true;
        }
    }
    trace_enabled.store(true, std::memory_order_relaxed);
}

void
traceStop()
{
    trace_enabled.store(false, std::memory_order_relaxed);
}

bool
traceEnabled()
{
    return trace_enabled.load(std::memory_order_relaxed);
}

std::uint64_t
traceNowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - recorder().epoch)
            .count());
}

void
traceSetThreadName(const char *name)
{
    Buffer &buf = localBuffer();
    std::lock_guard<std::mutex> lock(buf.mu);
    buf.threadName = name;
}

void
traceInstant(TraceCat cat, const char *name, TraceArg a, TraceArg b)
{
    if (!traceEnabled())
        return;
    Event e{name, traceNowNs(), 0, a, b, cat, 'i'};
    append(localBuffer(), e);
}

void
traceComplete(TraceCat cat, const char *name, std::uint64_t ts_ns,
              std::uint64_t dur_ns, TraceArg a, TraceArg b)
{
    if (!traceEnabled())
        return;
    Event e{name, ts_ns, dur_ns, a, b, cat, 'X'};
    append(localBuffer(), e);
}

std::uint64_t
traceEventCount()
{
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    std::uint64_t total = 0;
    for (Buffer *buf : r.buffers) {
        std::lock_guard<std::mutex> block(buf->mu);
        total += buf->events.size();
    }
    return total;
}

std::uint64_t
traceDroppedCount()
{
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    std::uint64_t total = 0;
    for (Buffer *buf : r.buffers) {
        std::lock_guard<std::mutex> block(buf->mu);
        total += buf->dropped;
    }
    return total;
}

void
traceResetForTest()
{
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    for (Buffer *buf : r.buffers) {
        std::lock_guard<std::mutex> block(buf->mu);
        buf->events.clear();
        buf->dropped = 0;
    }
}

bool
traceWriteJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot open trace file ", path, " for writing");
        return false;
    }
    std::string out;
    out.reserve(1u << 20);
    out.append("{\"traceEvents\":[\n");
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    bool first = true;
    std::uint64_t dropped = 0;
    for (Buffer *buf : r.buffers) {
        std::lock_guard<std::mutex> block(buf->mu);
        dropped += buf->dropped;
        if (buf->threadName != nullptr) {
            char meta[160];
            const int n = std::snprintf(
                meta, sizeof(meta),
                "%s{\"ph\":\"M\",\"pid\":1,\"tid\":%u,"
                "\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}",
                first ? "" : ",\n", buf->tid, buf->threadName);
            out.append(meta, static_cast<std::size_t>(n));
            first = false;
        }
        for (const Event &e : buf->events) {
            if (!first)
                out.append(",\n");
            first = false;
            printEvent(out, *buf, e);
            if (out.size() >= (1u << 20)) {
                std::fwrite(out.data(), 1, out.size(), f);
                out.clear();
            }
        }
    }
    out.append("\n],\"displayTimeUnit\":\"ms\"}\n");
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    if (dropped > 0)
        warn("trace dropped ", dropped, " events (per-thread cap ",
             kMaxEventsPerThread, ")");
    return true;
}

} // namespace obs
} // namespace lazydp
