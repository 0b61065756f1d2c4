/**
 * @file
 * Wall-clock timing utilities, including the per-stage accounting the
 * paper's figures are built from (Fwd / Bwd / model-update substages).
 */

#ifndef LAZYDP_COMMON_TIMER_H
#define LAZYDP_COMMON_TIMER_H

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>

namespace lazydp {

/** Monotonic wall-clock stopwatch with nanosecond resolution. */
class WallTimer
{
  public:
    WallTimer() { reset(); }

    /** Restart the stopwatch. */
    void reset() { start_ = Clock::now(); }

    /** @return seconds elapsed since construction or the last reset(). */
    double
    seconds() const
    {
        return std::chrono::duration<double>(Clock::now() - start_).count();
    }

    /** @return nanoseconds elapsed since construction or last reset(). */
    std::uint64_t
    nanoseconds() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - start_)
            .count();
    }

  private:
    using Clock = std::chrono::steady_clock;
    Clock::time_point start_;
};

/**
 * Named training stages used for latency breakdowns.
 *
 * These mirror the stages of Figures 3, 5, 10 and 11 in the paper.
 */
enum class Stage : std::uint8_t
{
    Forward = 0,          //!< forward propagation
    BackwardPerExample,   //!< per-example weight-gradient derivation
    BackwardPerBatch,     //!< per-batch weight-gradient derivation
    GradCoalesce,         //!< duplicate-index coalescing of sparse grads
    NoiseSampling,        //!< Gaussian noise generation
    NoisyGradGen,         //!< merging gradient and noise tensors
    NoisyGradUpdate,      //!< applying the noisy gradient to the model
    LazyOverhead,         //!< HistoryTable upkeep, next-batch dedup, ANS std
    Else,                 //!< everything not attributed above
    NumStages
};

/** @return a short human-readable stage name. */
const char *stageName(Stage s);

/** @return a lowercase metric-name slug of @p s ("fwd", "bwd_ex", ...),
 *  used for the `train.stage.<slug>_ns` registry counters. */
const char *stageSlug(Stage s);

/**
 * Accumulates wall time per Stage across many training iterations.
 *
 * The trainer brackets each region with start()/stop(); benches read
 * totals to print the paper's breakdown figures.
 *
 * The per-iteration hot path is a fixed array of slots indexed by the
 * stage id -- no map, no strings. Each slot shares its identity with
 * an interned metrics-registry counter (`train.stage.<slug>_ns`), so
 * every stop()/add() also feeds the telemetry scrape when metrics are
 * enabled; the string-keyed breakdown() map is built only at
 * reporting time.
 */
class StageTimer
{
  public:
    /** Tag for a part timer that keeps its times out of the registry
     *  until merged into a mirroring timer (see merge). */
    struct Local
    {
    };

    StageTimer();
    explicit StageTimer(Local);

    /** Zero all accumulated stage times. */
    void reset();

    /** Begin attributing time to stage @p s (no nesting allowed). */
    void start(Stage s);

    /** Stop the currently running stage. */
    void stop();

    /** Add @p seconds to stage @p s directly (for modeled latencies). */
    void add(Stage s, double seconds);

    /** @return accumulated seconds for stage @p s. */
    double seconds(Stage s) const;

    /** @return sum of all stage times in seconds. */
    double totalSeconds() const;

    /** @return map of stage-name -> seconds for reporting. */
    std::map<std::string, double> breakdown() const;

    /**
     * Accumulate another timer's totals, each scaled by @p scale, into
     * this one. A Local @p other's times reach the registry here, when
     * this timer mirrors; any other timer mirrored its own already.
     */
    void merge(const StageTimer &other, double scale = 1.0);

  private:
    /** Interned-id slots: index == stage id == registry-counter slot. */
    std::array<double, static_cast<std::size_t>(Stage::NumStages)> acc_;
    WallTimer clock_;
    Stage running_;
    bool active_;
    bool mirror_ = true; //!< feed the registry counters (not Local)
};

/** RAII guard that times a region into a StageTimer. */
class ScopedStage
{
  public:
    ScopedStage(StageTimer &timer, Stage s) : timer_(timer)
    {
        timer_.start(s);
    }
    ~ScopedStage() { timer_.stop(); }

    ScopedStage(const ScopedStage &) = delete;
    ScopedStage &operator=(const ScopedStage &) = delete;

  private:
    StageTimer &timer_;
};

} // namespace lazydp

#endif // LAZYDP_COMMON_TIMER_H
