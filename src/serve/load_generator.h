/**
 * @file
 * Open/closed-loop load generation + tail-latency / SLO-attainment
 * measurement for the serving tier, with scripted traffic scenarios.
 *
 * Two canonical load models (the SPEC/TailBench distinction the HPC
 * serving-characterization literature insists on):
 *
 *  - CLOSED loop (qps = 0): `concurrency` client threads each keep
 *    exactly one request in flight (issue, wait, repeat). Throughput
 *    is demand-limited by the service rate; latency excludes queueing
 *    that an overloaded open system would see. Latency per request is
 *    completion - enqueue.
 *  - OPEN loop (qps > 0): one dispatcher issues requests on a fixed
 *    schedule regardless of completions, like independent users
 *    arriving. Every request's scheduled arrival is computed from the
 *    ABSOLUTE start time (arrivalOffsets(); never from accumulated
 *    sleep wake-ups, which drift under load), and latency is measured
 *    from that scheduled time -- the standard guard against
 *    coordinated omission: if the system falls behind, the backlog
 *    correctly counts against tail latency AND against attainment.
 *
 * ## Scenarios
 *
 * Production traffic is not a constant rate. The open-loop schedule
 * can follow scripted profiles:
 *
 *  - Steady:     constant qps (the baseline);
 *  - Diurnal:    a day-curve ramp, rate swinging 0.25x..1x qps over
 *                the run (sin^2 profile);
 *  - FlashCrowd: steady qps with a burst window (middle fifth of the
 *                run) at flashMultiplier x qps -- the overload regime
 *                admission control exists for;
 *  - SkewDrift:  steady rate, but the HOT ROWS drift: query row ids
 *                rotate through half the table over the run, so a
 *                cache/hot-tier tuned to minute-0 traffic decays;
 *  - MixedClass: steady rate, two SLO classes interleaved (see
 *                lowFraction / lowSlo) -- priority shedding's regime.
 *
 * Class mixing (lowFraction) and skew drift compose with any arrival
 * profile; the scenario enum just names the canonical bundles.
 *
 * Queries are deterministic functions of (seed, request id): dense
 * features uniform in [-1, 1), table rows drawn through the same
 * AccessGenerator families training data uses (uniform / hot-cold /
 * Zipf), so a skewed serving workload hammers the same hot rows the
 * paper's skewed training datasets do.
 */

#ifndef LAZYDP_SERVE_LOAD_GENERATOR_H
#define LAZYDP_SERVE_LOAD_GENERATOR_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "data/access_generator.h"
#include "nn/model_config.h"
#include "serve/serve_engine.h"

namespace lazydp {

/** Scripted open-loop traffic profile (see file comment). */
enum class Scenario : std::uint8_t
{
    Steady = 0,
    Diurnal,
    FlashCrowd,
    SkewDrift,
    MixedClass,
};

/** Parse "steady|diurnal|flash|drift|mixed" (fatal on junk). */
Scenario scenarioFromString(const std::string &name);

/** Inverse of scenarioFromString. */
const char *scenarioName(Scenario s);

/** Load-generation knobs. */
struct LoadOptions
{
    /** Total requests to issue. */
    std::uint64_t requests = 1000;

    /**
     * Open-loop aggregate arrival rate in queries/second; 0 selects
     * the closed loop. Scenario profiles modulate around this rate.
     */
    double qps = 0.0;

    /** Closed loop: number of one-in-flight client threads. */
    std::size_t concurrency = 4;

    /** Query-generation seed (queries are pure in (seed, id)). */
    std::uint64_t seed = 1;

    /** Table-access skew of the generated queries. */
    AccessConfig access;

    /** Traffic profile (open loop; Mixed/Drift also shape closed). */
    Scenario scenario = Scenario::Steady;

    /** SLO class of every request (deadlineUs 0 = no deadline). */
    SloClass slo{};

    /**
     * Low-priority class for two-class traffic; lowFraction of the
     * requests (deterministically hashed per id) carry it. 0 disables
     * mixing -- except under Scenario::MixedClass, which defaults it
     * to 0.5.
     */
    SloClass lowSlo{0, 0};
    double lowFraction = 0.0;

    /** FlashCrowd: burst rate = flashMultiplier * qps. */
    double flashMultiplier = 8.0;

    /**
     * Keep every request's predicted score in LoadReport::scores
     * (indexed by request id). With a fixed model version the scores
     * are a pure function of (seed, id), which is what the bit-identity
     * smokes compare across snapshot-store modes.
     */
    bool collectScores = false;
};

/** Measured outcome of one LoadGenerator::run. */
struct LoadReport
{
    /** Per-SLO-class outcome breakdown. */
    struct ClassStats
    {
        std::uint32_t priority = 0;
        std::uint64_t deadlineUs = 0;
        std::uint64_t issued = 0;
        std::uint64_t ok = 0;       //!< completed with a score
        std::uint64_t shed = 0;     //!< rejected by admission control
        std::uint64_t expired = 0;  //!< past deadline before scoring
        std::uint64_t shutdown = 0; //!< engine stopped first
        std::uint64_t attained = 0; //!< ok AND under the class deadline

        /** @return completed-accepted requests of this class (the
         *  attainment denominator -- see LoadReport::attainment). */
        std::uint64_t accepted() const { return ok + expired; }

        /**
         * @return SLO attainment in [0, 1] over the class's
         *   completed-accepted requests; 0 when it had none (see
         *   LoadReport::noTraffic -- never NaN).
         */
        double
        attainment() const
        {
            return accepted() == 0
                       ? 0.0
                       : static_cast<double>(attained) /
                             static_cast<double>(accepted());
        }
    };

    std::uint64_t completed = 0; //!< requests that completed (ANY status)
    double wallSeconds = 0.0;    //!< first issue to last completion

    // Status breakdown; ok + shed + expired + shutdown == completed.
    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;
    std::uint64_t shutdown = 0;

    /**
     * Requests that completed Ok WITHIN their class deadline
     * (coordinated-omission-safe: open-loop latency counts from the
     * scheduled arrival; a class without a deadline attains on Ok).
     */
    std::uint64_t attained = 0;

    /**
     * Requests the admission controller accepted AND that reached a
     * terminal completion: scored (ok) or deadline-expired. This is
     * the attainment denominator -- shed and shutdown requests never
     * competed for a deadline, so they are reported through their own
     * counts (and the shed rate), not folded into attainment.
     */
    std::uint64_t accepted() const { return ok + expired; }

    /**
     * @return true when NO request was completed-accepted (total
     *   overload: everything shed, or the engine stopped first).
     *   attainment() reports 0 for such a window -- never NaN, which
     *   would silently defeat numeric gates (`NaN > x` is false for
     *   every x).
     */
    bool noTraffic() const { return accepted() == 0; }

    /** @return SLO attainment in [0, 1] over completed-accepted
     *  requests (0 when noTraffic()). */
    double
    attainment() const
    {
        return noTraffic() ? 0.0
                           : static_cast<double>(attained) /
                                 static_cast<double>(accepted());
    }

    /** Per-class breakdown (one entry per distinct priority issued). */
    std::vector<ClassStats> classes;

    /**
     * Latency percentiles in SECONDS over the Ok requests only
     * (closed loop: completion - enqueue; open loop: completion -
     * scheduled arrival). Shed/expired requests complete in
     * microseconds and would fraudulently DEFLATE the tail if
     * included; they are reported through the counts + attainment
     * instead.
     */
    stats::Percentiles latency;

    std::uint64_t minVersion = 0; //!< oldest snapshot version observed
    std::uint64_t maxVersion = 0; //!< newest snapshot version observed
    double meanBatch = 0.0;       //!< mean micro-batch size observed

    /**
     * Per-request scores indexed by request id (empty unless
     * LoadOptions::collectScores).
     */
    std::vector<float> scores;

    /** @return achieved throughput in queries/second (ANY status). */
    double
    qps() const
    {
        return wallSeconds <= 0.0
                   ? 0.0
                   : static_cast<double>(completed) / wallSeconds;
    }
};

/** Drives a ServeEngine with synthetic single-user queries. */
class LoadGenerator
{
  public:
    /**
     * @param engine serving engine under load (not owned)
     * @param config model shape (query dimensions)
     * @param options load model + scenario + skew
     */
    LoadGenerator(ServeEngine &engine, const ModelConfig &config,
                  const LoadOptions &options);

    /**
     * Issue options.requests queries, wait for all completions, and
     * summarize. Blocking; spawns its own client threads (clients
     * simulate external users, so they deliberately do NOT run on the
     * serving pool's lanes).
     */
    LoadReport run();

    /** @return the deterministic query for @p id (tests replay these). */
    ServeQuery makeQuery(std::uint64_t id) const;

    /** @return the SLO class request @p id is issued with. */
    SloClass sloFor(std::uint64_t id) const;

    /**
     * Scheduled arrival offsets in seconds from the run start, one
     * per request id, following the scenario's rate profile. Every
     * offset is an absolute position on the timeline (Steady: exactly
     * id / qps) -- the dispatcher sleeps until start + offset[id], so
     * truncation or sleep-overshoot on one arrival never leaks into
     * the next (no cumulative drift, the coordinated-omission
     * contract's precondition). Pure in options; exposed for tests.
     */
    static std::vector<double> arrivalOffsets(const LoadOptions &options);

  private:
    LoadReport runClosed();
    LoadReport runOpen();

    /** Deterministic low-class membership of request @p id. */
    bool isLow(std::uint64_t id) const;

    ServeEngine &engine_;
    ModelConfig config_;
    LoadOptions options_;
    double lowFraction_ = 0.0; //!< effective (scenario-defaulted)
    std::vector<AccessGenerator> generators_; // one per table
};

} // namespace lazydp

#endif // LAZYDP_SERVE_LOAD_GENERATOR_H
