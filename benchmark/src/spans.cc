#include "spans.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>

namespace bench {

namespace {

struct Buffer
{
    std::mutex mu;
    std::uint32_t tid = 0;
    const char *threadName = nullptr;
    std::vector<Span> spans;
};

struct Recorder
{
    std::atomic<bool> enabled{false};
    std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    std::mutex mu; // guards buffers
    std::vector<std::unique_ptr<Buffer>> buffers;
};

Recorder &
recorder()
{
    static Recorder r;
    return r;
}

/** The calling thread's buffer, registered on first use. */
Buffer &
threadBuffer()
{
    thread_local Buffer *mine = nullptr;
    if (mine == nullptr) {
        Recorder &r = recorder();
        std::lock_guard<std::mutex> lock(r.mu);
        r.buffers.push_back(std::make_unique<Buffer>());
        mine = r.buffers.back().get();
        mine->tid = static_cast<std::uint32_t>(r.buffers.size());
    }
    return *mine;
}

} // namespace

void
spansEnable(bool on)
{
    recorder().enabled.store(on, std::memory_order_relaxed);
}

bool
spansEnabled()
{
    return recorder().enabled.load(std::memory_order_relaxed);
}

std::uint64_t
spanNs(std::chrono::steady_clock::time_point t)
{
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        t - recorder().epoch)
                        .count();
    return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

std::uint64_t
spanNowNs()
{
    return spanNs(std::chrono::steady_clock::now());
}

void
spansNameThread(const char *name)
{
    Buffer &b = threadBuffer();
    std::lock_guard<std::mutex> lock(b.mu);
    b.threadName = name;
}

void
spanRecordOn(std::uint32_t tid, const char *cat, const char *name,
             std::uint64_t start_ns, std::uint64_t end_ns,
             std::uint64_t iter)
{
    if (!spansEnabled())
        return;
    Buffer &b = threadBuffer();
    std::lock_guard<std::mutex> lock(b.mu);
    b.spans.push_back(Span{cat, name, tid == 0 ? b.tid : tid, start_ns,
                           end_ns > start_ns ? end_ns - start_ns : 0,
                           iter});
}

void
spanRecord(const char *cat, const char *name, std::uint64_t start_ns,
           std::uint64_t end_ns, std::uint64_t iter)
{
    spanRecordOn(0, cat, name, start_ns, end_ns, iter);
}

std::vector<Span>
spansCollect()
{
    std::vector<Span> out;
    Recorder &r = recorder();
    std::lock_guard<std::mutex> lock(r.mu);
    for (const auto &b : r.buffers) {
        std::lock_guard<std::mutex> block(b->mu);
        out.insert(out.end(), b->spans.begin(), b->spans.end());
    }
    return out;
}

bool
spansWriteChromeJson(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(f, "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":%u,\"args\":{\"name\":\"requests\"}}",
                 kRequestTrack);
    {
        Recorder &r = recorder();
        std::lock_guard<std::mutex> lock(r.mu);
        for (const auto &b : r.buffers) {
            std::lock_guard<std::mutex> block(b->mu);
            if (b->threadName != nullptr)
                std::fprintf(f,
                             ",\n{\"name\":\"thread_name\",\"ph\":\"M\","
                             "\"pid\":1,\"tid\":%u,\"args\":{\"name\":"
                             "\"%s\"}}",
                             b->tid, b->threadName);
        }
    }
    for (const Span &s : spansCollect())
        std::fprintf(f,
                     ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                     "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"iter\":%llu}}",
                     s.name, s.cat, s.tid,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.durNs) / 1e3,
                     static_cast<unsigned long long>(s.iter));
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

} // namespace bench
