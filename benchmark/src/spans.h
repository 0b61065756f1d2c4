/**
 * @file
 * The benchmark's own span recorder.
 *
 * Spans are recorded from the benchmark's files only, around the calls
 * it makes into each layer of the program (trainer stages, data
 * loading, serve requests). They stay in memory -- one buffer per
 * thread, tagged with a small thread id and the training iteration --
 * and are written as Chrome-trace JSON when the run ends. Recording is
 * off unless a traced repetition enables it, so untraced repetitions
 * pay one relaxed load per span.
 */

#ifndef LAZYDP_BENCHMARK_SPANS_H
#define LAZYDP_BENCHMARK_SPANS_H

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace bench {

/** One closed span. Names and categories are string literals. */
struct Span
{
    const char *cat = "";
    const char *name = "";
    std::uint32_t tid = 0;
    std::uint64_t startNs = 0;
    std::uint64_t durNs = 0;
    std::uint64_t iter = 0; //!< training iteration or request ordinal
};

/** Turn recording on or off for every thread. */
void spansEnable(bool on);

/** @return true while recording. */
bool spansEnabled();

/** @return steady-clock nanoseconds since the recorder's epoch. */
std::uint64_t spanNowNs();

/** @return @p t as nanoseconds since the recorder's epoch (0 if before). */
std::uint64_t spanNs(std::chrono::steady_clock::time_point t);

/** Name the calling thread in the written trace (literal). */
void spansNameThread(const char *name);

/** Record [start_ns, end_ns) on the calling thread (no-op when off). */
void spanRecord(const char *cat, const char *name, std::uint64_t start_ns,
                std::uint64_t end_ns, std::uint64_t iter);

/** Record on an explicit track id (request spans overlap each other). */
void spanRecordOn(std::uint32_t tid, const char *cat, const char *name,
                  std::uint64_t start_ns, std::uint64_t end_ns,
                  std::uint64_t iter);

/** @return every recorded span of every thread. */
std::vector<Span> spansCollect();

/** Write every recorded span as Chrome-trace JSON. @return success. */
bool spansWriteChromeJson(const std::string &path);

/** Track id the request spans are recorded on. */
inline constexpr std::uint32_t kRequestTrack = 1000;

/** RAII span on the calling thread. */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, const char *name, std::uint64_t iter = 0)
        : cat_(cat), name_(name), iter_(iter), armed_(spansEnabled()),
          start_(armed_ ? spanNowNs() : 0)
    {
    }

    ~ScopedSpan()
    {
        if (armed_)
            spanRecord(cat_, name_, start_, spanNowNs(), iter_);
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *cat_;
    const char *name_;
    std::uint64_t iter_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace bench

#endif // LAZYDP_BENCHMARK_SPANS_H
