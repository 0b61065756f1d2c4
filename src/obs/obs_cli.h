/**
 * @file
 * Telemetry CLI plumbing shared by lazydp_train and lazydp_serve:
 * the --trace / --stats-out / --stats-interval-us / --log-level flag
 * block, plus an RAII ObsSession that owns the run's telemetry
 * lifecycle (enable metrics, start the trace, run the StatsSampler,
 * and on finish() write the trace file and report what was captured).
 *
 * The same pattern as withTierFlags in common/cli.h: tools wrap their
 * flag list in withObsFlags() and hand the parsed args to
 * obsOptionsFromCli().
 */

#ifndef LAZYDP_OBS_OBS_CLI_H
#define LAZYDP_OBS_OBS_CLI_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.h"
#include "obs/stats_sampler.h"

namespace lazydp {
namespace obs {

/** Parsed telemetry configuration of one tool run. */
struct ObsOptions
{
    std::string tracePath; //!< --trace (empty = no trace)
    std::string statsPath; //!< --stats-out (empty = no JSONL)

    /** Scrape cadence; 0 = pick a default. */
    std::uint64_t statsIntervalUs = 0;
};

/** Append the telemetry flag block to @p specs (builder style). */
std::vector<FlagSpec> withObsFlags(std::vector<FlagSpec> specs);

/** Read the telemetry flags out of @p args. Also applies --log-level
 *  (and the LAZYDP_LOG_LEVEL environment default) immediately, so
 *  later tool output honors the threshold. */
ObsOptions obsOptionsFromCli(const CliArgs &args);

/**
 * One run's telemetry lifecycle. Construction applies the options:
 * enables the registry, pins the trace epoch + starts collection when
 * a trace was requested, and spawns the StatsSampler when a stats
 * file asks for one. finish() -- idempotent, also
 * run by the destructor -- stops the sampler (final scrape + flush)
 * and serializes the trace. Call it after every traced subsystem has
 * stopped so all spans are closed.
 */
class ObsSession
{
  public:
    explicit ObsSession(const ObsOptions &options);
    ~ObsSession();

    ObsSession(const ObsSession &) = delete;
    ObsSession &operator=(const ObsSession &) = delete;

    /** @return the shared sampler (nullptr when none was requested). */
    StatsSampler *sampler() { return sampler_.get(); }

    /** Stop sampling, write the trace, report. Idempotent. */
    void finish();

  private:
    ObsOptions options_;
    std::unique_ptr<StatsSampler> sampler_;
    bool finished_ = false;
};

} // namespace obs
} // namespace lazydp

#endif // LAZYDP_OBS_OBS_CLI_H
