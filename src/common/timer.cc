#include "common/timer.h"

#include "common/macros.h"
#include "obs/metrics.h"

namespace lazydp {

namespace {

/** Registry counters backing the StageTimer slots, interned once per
 *  process: slot i of every StageTimer mirrors into stageMetricIds[i]
 *  (the telemetry view of the paper's stage breakdown). */
const std::array<obs::MetricId,
                 static_cast<std::size_t>(Stage::NumStages)> &
stageMetricIds()
{
    static const auto ids = [] {
        std::array<obs::MetricId,
                   static_cast<std::size_t>(Stage::NumStages)>
            out{};
        for (std::size_t i = 0;
             i < static_cast<std::size_t>(Stage::NumStages); ++i) {
            const std::string name =
                std::string("train.stage.") +
                stageSlug(static_cast<Stage>(i)) + "_ns";
            out[i] = obs::internMetric(name.c_str(),
                                       obs::MetricKind::Counter);
        }
        return out;
    }();
    return ids;
}

/** Mirror @p seconds of stage @p s into its registry counter. */
void
mirrorStage(Stage s, double seconds)
{
    if (!obs::metricsEnabled())
        return;
    obs::counterAdd(stageMetricIds()[static_cast<std::size_t>(s)],
                    static_cast<std::uint64_t>(seconds * 1e9));
}

} // namespace

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Forward:            return "Fwd";
      case Stage::BackwardPerExample: return "Bwd(per-example)";
      case Stage::BackwardPerBatch:   return "Bwd(per-batch)";
      case Stage::GradCoalesce:       return "Gradient coalescing";
      case Stage::NoiseSampling:      return "Noise sampling";
      case Stage::NoisyGradGen:       return "Noisy gradient generation";
      case Stage::NoisyGradUpdate:    return "Noisy gradient update";
      case Stage::LazyOverhead:       return "LazyDP overhead";
      case Stage::Else:               return "Else";
      default: break;
    }
    LAZYDP_UNREACHABLE("bad Stage value");
}

const char *
stageSlug(Stage s)
{
    switch (s) {
      case Stage::Forward:            return "fwd";
      case Stage::BackwardPerExample: return "bwd_ex";
      case Stage::BackwardPerBatch:   return "bwd_batch";
      case Stage::GradCoalesce:       return "coalesce";
      case Stage::NoiseSampling:      return "noise";
      case Stage::NoisyGradGen:       return "noisy_gen";
      case Stage::NoisyGradUpdate:    return "noisy_update";
      case Stage::LazyOverhead:       return "lazy";
      case Stage::Else:               return "else";
      default: break;
    }
    LAZYDP_UNREACHABLE("bad Stage value");
}

StageTimer::StageTimer() : running_(Stage::Else), active_(false)
{
    acc_.fill(0.0);
}

StageTimer::StageTimer(Local) : StageTimer() { mirror_ = false; }

void
StageTimer::reset()
{
    acc_.fill(0.0);
    active_ = false;
}

void
StageTimer::start(Stage s)
{
    LAZYDP_ASSERT(!active_, "StageTimer regions must not nest");
    running_ = s;
    active_ = true;
    clock_.reset();
}

void
StageTimer::stop()
{
    LAZYDP_ASSERT(active_, "StageTimer::stop without start");
    const double seconds = clock_.seconds();
    acc_[static_cast<std::size_t>(running_)] += seconds;
    active_ = false;
    if (mirror_)
        mirrorStage(running_, seconds);
}

void
StageTimer::add(Stage s, double seconds)
{
    acc_[static_cast<std::size_t>(s)] += seconds;
    if (mirror_)
        mirrorStage(s, seconds);
}

double
StageTimer::seconds(Stage s) const
{
    return acc_[static_cast<std::size_t>(s)];
}

double
StageTimer::totalSeconds() const
{
    double total = 0.0;
    for (double v : acc_)
        total += v;
    return total;
}

std::map<std::string, double>
StageTimer::breakdown() const
{
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < acc_.size(); ++i)
        out[stageName(static_cast<Stage>(i))] = acc_[i];
    return out;
}

void
StageTimer::merge(const StageTimer &other, double scale)
{
    // A stage's time reaches the registry exactly once: when it first
    // lands in a mirroring timer.
    const bool mirror = mirror_ && !other.mirror_;
    for (std::size_t i = 0; i < acc_.size(); ++i) {
        const double seconds = other.acc_[i] * scale;
        acc_[i] += seconds;
        if (mirror)
            mirrorStage(static_cast<Stage>(i), seconds);
    }
}

} // namespace lazydp
