/**
 * @file
 * Chrome-trace / Perfetto event recording from per-thread buffers.
 *
 * The recorder collects timestamped events into a per-thread buffer
 * (created on first use, registered with a process-global leaky
 * recorder) and serializes them on demand as Chrome Trace Event
 * Format JSON -- load the file in https://ui.perfetto.dev or
 * chrome://tracing to see trainer stages, serve micro-batches and
 * tiered-store traffic on ONE aligned timeline.
 *
 * Event model:
 *
 *  - **Spans** are emitted as "X" (complete) events: one record
 *    carrying both start timestamp and duration, written by the
 *    TraceSpan RAII guard at scope exit. A complete event IS a
 *    balanced begin/end pair by construction; tools/
 *    lazydp_trace_validate.cc checks the invariant on the serialized
 *    file (every span has ts + dur >= 0, stray "B"/"E" events must
 *    pair).
 *  - **Instants** ("i", thread scope) mark point decisions: request
 *    enqueue/shed/expiry.
 *  - **Metadata** ("M") names each thread (obs::traceSetThreadName;
 *    the ThreadPool names its lanes automatically).
 *
 * Events carry up to two numeric args (e.g. {"batch": 32,
 * "version": 7}); names and arg keys must be string literals (the
 * buffer stores the pointers, not copies).
 *
 * Cost: when tracing is disabled (the default) every record call and
 * every TraceSpan constructor reduces to one relaxed atomic load.
 * When enabled, a record is one clock read plus an append under the
 * buffer's (uncontended, thread-own) mutex; buffers cap at
 * kMaxEventsPerThread and count drops rather than grow unbounded.
 *
 * Timestamps are steady_clock nanoseconds relative to the process
 * trace epoch (captured at the first traceStart()), so train and
 * serve threads share one time base.
 */

#ifndef LAZYDP_OBS_TRACE_H
#define LAZYDP_OBS_TRACE_H

#include <cstdint>
#include <string>

namespace lazydp {
namespace obs {

/** Event category: Perfetto "cat" field, one per subsystem so traces
 *  can be filtered to a lane of the system. */
enum class TraceCat : std::uint8_t
{
    Trainer = 0, //!< prepare/apply/publish/gate on the training side
    Serve,       //!< request lifecycle: enqueue..batch..forward..complete
    Tier,        //!< tiered-store promotions/evictions/write-backs/warms
    Sampler,     //!< stats-sampler scrapes
    NumCats
};

/** @return the "cat" string ("trainer" / "serve" / ...). */
const char *traceCatName(TraceCat cat);

/** Per-thread event cap; past it events are dropped and counted. */
inline constexpr std::size_t kMaxEventsPerThread = 1u << 20;

/** One optional numeric event argument (key must be a literal). */
struct TraceArg
{
    const char *key = nullptr;
    std::uint64_t value = 0;
};

/** Start collecting (idempotent). The first call pins the trace epoch. */
void traceStart();

/** Stop collecting (recorded events are kept until write/reset). */
void traceStop();

/** @return true while collection is on (one relaxed load). */
bool traceEnabled();

/** Name the calling thread in the trace (cheap; callable any time,
 *  also before traceStart). @p name must be a literal or otherwise
 *  outlive the recorder. */
void traceSetThreadName(const char *name);

/** Record an instant event (thread scope). No-op while disabled. */
void traceInstant(TraceCat cat, const char *name, TraceArg a = {},
                  TraceArg b = {});

/** Record a complete span [ts_ns, ts_ns + dur_ns) directly (the RAII
 *  TraceSpan is the usual entry point). No-op while disabled. */
void traceComplete(TraceCat cat, const char *name, std::uint64_t ts_ns,
                   std::uint64_t dur_ns, TraceArg a = {},
                   TraceArg b = {});

/** @return nanoseconds since the trace epoch (monotonic). */
std::uint64_t traceNowNs();

/** Serialize everything recorded so far as Chrome-trace JSON.
 *  @return false (with a warn) if the file cannot be written. */
bool traceWriteJson(const std::string &path);

/** Total events currently buffered across all threads. */
std::uint64_t traceEventCount();

/** Events dropped because a thread hit kMaxEventsPerThread. */
std::uint64_t traceDroppedCount();

/** Test hook: drop all buffered events (threads keep their buffers). */
void traceResetForTest();

/**
 * RAII scoped span: captures the start time at construction and
 * records one complete event at destruction. Constructed DISARMED
 * when tracing is off (one relaxed load, no clock read).
 */
class TraceSpan
{
  public:
    TraceSpan(TraceCat cat, const char *name, TraceArg a = {},
              TraceArg b = {})
        : cat_(cat), name_(name), a_(a), b_(b),
          armed_(traceEnabled()), start_(armed_ ? traceNowNs() : 0)
    {
    }

    ~TraceSpan()
    {
        if (armed_)
            traceComplete(cat_, name_, start_, traceNowNs() - start_,
                          a_, b_);
    }

    /** Attach/overwrite an arg discovered mid-span (fills slot a then
     *  b; a third distinct key overwrites b). */
    void
    setArg(const char *key, std::uint64_t value)
    {
        if (!armed_)
            return;
        if (a_.key == nullptr || a_.key == key) {
            a_ = {key, value};
            return;
        }
        b_ = {key, value};
    }

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    TraceCat cat_;
    const char *name_;
    TraceArg a_;
    TraceArg b_;
    bool armed_;
    std::uint64_t start_;
};

} // namespace obs
} // namespace lazydp

// Scoped-span convenience macros (unique local per source line).
#define LAZYDP_TRACE_CONCAT2(a, b) a##b
#define LAZYDP_TRACE_CONCAT(a, b) LAZYDP_TRACE_CONCAT2(a, b)

/** Time the enclosing scope as one span. */
#define LAZYDP_TRACE_SPAN(cat, name)                                   \
    ::lazydp::obs::TraceSpan LAZYDP_TRACE_CONCAT(lazydp_trace_span_,   \
                                                 __LINE__)(cat, name)

/** Span with one numeric arg. */
#define LAZYDP_TRACE_SPAN1(cat, name, k1, v1)                          \
    ::lazydp::obs::TraceSpan LAZYDP_TRACE_CONCAT(lazydp_trace_span_,   \
                                                 __LINE__)(            \
        cat, name, {k1, static_cast<std::uint64_t>(v1)})

/** Span with two numeric args. */
#define LAZYDP_TRACE_SPAN2(cat, name, k1, v1, k2, v2)                  \
    ::lazydp::obs::TraceSpan LAZYDP_TRACE_CONCAT(lazydp_trace_span_,   \
                                                 __LINE__)(            \
        cat, name, {k1, static_cast<std::uint64_t>(v1)},               \
        {k2, static_cast<std::uint64_t>(v2)})

#endif // LAZYDP_OBS_TRACE_H
