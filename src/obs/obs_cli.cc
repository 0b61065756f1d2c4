#include "obs/obs_cli.h"

#include "common/logging.h"
#include "obs/trace.h"

namespace lazydp {
namespace obs {

std::vector<FlagSpec>
withObsFlags(std::vector<FlagSpec> specs)
{
    specs.push_back({"trace", "record a Chrome-trace/Perfetto JSON "
                              "timeline of this run to this file "
                              "(open in ui.perfetto.dev)"});
    specs.push_back({"stats-out", "append a JSONL metrics time series "
                                  "(one registry scrape per line) to "
                                  "this file"});
    specs.push_back({"stats-interval-us", "stats sampler scrape "
                                          "cadence in microseconds"});
    specs.push_back({"log-level", "minimum severity to emit: "
                                  "inform|warn|error (also env "
                                  "LAZYDP_LOG_LEVEL)"});
    return specs;
}

ObsOptions
obsOptionsFromCli(const CliArgs &args)
{
    ObsOptions options;
    options.tracePath = args.getString("trace", "");
    options.statsPath = args.getString("stats-out", "");
    options.statsIntervalUs = args.getU64("stats-interval-us", 0);
    const std::string level = args.getString("log-level", "");
    if (!level.empty())
        setLogLevel(parseLogLevel(level));
    return options;
}

ObsSession::ObsSession(const ObsOptions &options) : options_(options)
{
    // Stats and traces read the registry, so either output implies it;
    // a bare --trace still gets counters worth scraping.
    if (!options_.statsPath.empty() || !options_.tracePath.empty())
        setMetricsEnabled(true);
    if (!options_.tracePath.empty()) {
        traceStart();
        traceSetThreadName("main");
    }
    if (!options_.statsPath.empty()) {
        SamplerOptions sopts;
        sopts.intervalUs = options_.statsIntervalUs == 0
                               ? 100000
                               : options_.statsIntervalUs;
        sopts.outPath = options_.statsPath;
        sampler_ = std::make_unique<StatsSampler>(sopts);
    }
}

ObsSession::~ObsSession() { finish(); }

void
ObsSession::finish()
{
    if (finished_)
        return;
    finished_ = true;
    if (sampler_ != nullptr) {
        sampler_->stop();
        inform("stats: ", sampler_->scrapes(), " scrapes -> ",
               options_.statsPath);
    }
    if (!options_.tracePath.empty()) {
        traceStop();
        if (traceWriteJson(options_.tracePath))
            inform("trace: ", traceEventCount(), " events -> ",
                   options_.tracePath);
    }
}

} // namespace obs
} // namespace lazydp
