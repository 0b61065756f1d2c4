#include "traced_algorithm.h"

#include "core/lazydp.h"
#include "nn/dlrm.h"
#include "spans.h"

namespace bench {

using namespace lazydp;

namespace {

StageSeconds
readStages(const StageTimer &timer)
{
    StageSeconds s{};
    for (std::size_t i = 0; i < kStages; ++i)
        s[i] = timer.seconds(static_cast<Stage>(i));
    return s;
}

void
addDelta(StageSeconds &acc, const StageSeconds &before,
         const StageTimer &timer)
{
    const StageSeconds after = readStages(timer);
    for (std::size_t i = 0; i < kStages; ++i)
        acc[i] += after[i] - before[i];
}

/** Noise floats one apply() consumes: dense MLP noise plus the table
 *  noise, which is LazyDP's prepared rows or every row for the eager
 *  engines. */
std::uint64_t
noiseFloats(const DlrmModel &model, const PreparedStep &prepared)
{
    std::uint64_t floats = model.mlpParamCount();
    if (const auto *lazy = dynamic_cast<const LazyDpPrepared *>(&prepared)) {
        for (const auto &t : lazy->tables)
            floats += t.noiseVals.size();
    } else {
        floats += model.config().totalRows() * model.config().embedDim;
    }
    return floats;
}

} // namespace

void
TracedAlgorithm::prepare(std::uint64_t iter, const MiniBatch &cur,
                         const MiniBatch *next, PreparedStep &out,
                         ExecContext &exec, StageTimer &timer)
{
    const StageSeconds before = readStages(timer);
    {
        ScopedSpan span("train", "prepare", iter);
        inner_.prepare(iter, cur, next, out, exec, timer);
    }
    if (iter >= firstMeasured_)
        addDelta(totals_.prepareStages, before, timer);
}

double
TracedAlgorithm::apply(std::uint64_t iter, const MiniBatch &cur,
                       PreparedStep &prepared, ExecContext &exec,
                       StageTimer &timer)
{
    const StageSeconds before = readStages(timer);
    const std::uint64_t noise = noiseFloats(*inner_.model(), prepared);
    const std::uint64_t start = spanNowNs();
    const double loss = inner_.apply(iter, cur, prepared, exec, timer);
    const std::uint64_t end = spanNowNs();
    spanRecord("train", "apply", start, end, iter);
    mirrorDirty();
    if (iter >= firstMeasured_) {
        addDelta(totals_.applyStages, before, timer);
        totals_.applySeconds += static_cast<double>(end - start) * 1e-9;
        totals_.noiseBytes += noise * sizeof(float);
        ++totals_.applies;
    }
    return loss;
}

void
TracedAlgorithm::finalize(std::uint64_t last_iter, ExecContext &exec,
                          StageTimer &timer)
{
    {
        ScopedSpan span("train", "finalize", last_iter);
        inner_.finalize(last_iter, exec, timer);
    }
    mirrorDirty();
}

void
TracedAlgorithm::warmTier(const MiniBatch &next, const PreparedStep *prep,
                          ThreadPool *pool)
{
    ScopedSpan span("train", "warm_tier", prep != nullptr ? prep->iter : 0);
    inner_.warmTier(next, prep, pool);
}

bool
TracedAlgorithm::enableDirtyTracking(std::size_t page_rows)
{
    if (!inner_.enableDirtyTracking(page_rows))
        return false;
    dirty_ = DirtyRowTracker::forModel(inner_.model()->config(), page_rows);
    return true;
}

void
TracedAlgorithm::mirrorDirty()
{
    DirtyRowTracker *src = inner_.dirtyTracker();
    if (src == nullptr || dirty_ == nullptr)
        return;
    if (src->allDirty()) {
        dirty_->markAllDirty();
    } else {
        for (std::size_t t = 0; t < src->numTables(); ++t)
            for (std::size_t p = 0; p < src->pageCount(t); ++p)
                if (src->pageDirty(t, p)) {
                    const auto row =
                        static_cast<std::uint32_t>(p * src->pageRows());
                    dirty_->markRows(t, {&row, 1});
                }
    }
    src->reset();
}

} // namespace bench
