/**
 * @file
 * Algorithm decorator for the traced repetitions.
 *
 * Forwards every Algorithm entry point the Trainer uses to the real
 * engine, which still runs under the real Trainer, so the trained
 * model is bit-identical to an undecorated run. Around each forwarded
 * call it records a span and reads the paper's stage times as deltas
 * of the StageTimer the Trainer hands in.
 */

#ifndef LAZYDP_BENCHMARK_TRACED_ALGORITHM_H
#define LAZYDP_BENCHMARK_TRACED_ALGORITHM_H

#include <array>
#include <cstdint>

#include "train/algorithm.h"

namespace bench {

inline constexpr std::size_t kStages =
    static_cast<std::size_t>(lazydp::Stage::NumStages);

using StageSeconds = std::array<double, kStages>;

class TracedAlgorithm : public lazydp::Algorithm
{
  public:
    /** Stage and call totals over the measured iterations. */
    struct Totals
    {
        StageSeconds applyStages{};   //!< stage deltas inside apply()
        StageSeconds prepareStages{}; //!< stage deltas inside prepare()
        double applySeconds = 0.0;    //!< wall time inside apply()
        std::uint64_t applies = 0;
        std::uint64_t noiseBytes = 0; //!< computed noise bytes sampled
    };

    /**
     * @param inner the engine that does the work (not owned)
     * @param first_measured first global iteration counted in totals()
     */
    TracedAlgorithm(lazydp::Algorithm &inner, std::uint64_t first_measured)
        : inner_(inner), firstMeasured_(first_measured)
    {
    }

    std::string name() const override { return inner_.name(); }

    const lazydp::DlrmModel *model() const override
    {
        return inner_.model();
    }

    std::unique_ptr<lazydp::PreparedStep>
    makePrepared() const override
    {
        return inner_.makePrepared();
    }

    void prepare(std::uint64_t iter, const lazydp::MiniBatch &cur,
                 const lazydp::MiniBatch *next,
                 lazydp::PreparedStep &out, lazydp::ExecContext &exec,
                 lazydp::StageTimer &timer) override;

    double apply(std::uint64_t iter, const lazydp::MiniBatch &cur,
                 lazydp::PreparedStep &prepared, lazydp::ExecContext &exec,
                 lazydp::StageTimer &timer) override;

    void finalize(std::uint64_t last_iter, lazydp::ExecContext &exec,
                  lazydp::StageTimer &timer) override;

    void warmTier(const lazydp::MiniBatch &next,
                  const lazydp::PreparedStep *prep,
                  lazydp::ThreadPool *pool) override;

    /**
     * The Trainer reads the dirty tracker of the algorithm it drives,
     * which is this decorator's own; it mirrors the engine's marks
     * after every apply() and finalize().
     */
    bool enableDirtyTracking(std::size_t page_rows) override;

    /** @return totals (read after Trainer::run returned). */
    const Totals &totals() const { return totals_; }

  private:
    /** Copy the engine's dirty pages into this decorator's tracker. */
    void mirrorDirty();

    lazydp::Algorithm &inner_;
    std::uint64_t firstMeasured_;
    Totals totals_;
};

} // namespace bench

#endif // LAZYDP_BENCHMARK_TRACED_ALGORITHM_H
