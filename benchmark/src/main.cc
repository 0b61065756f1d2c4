/**
 * @file
 * lazydp_benchmark -- runs one workload for a time budget and prints
 * its metrics.
 *
 *   lazydp_benchmark --workload W --seed N --seconds S --trace 0|1
 *                    [--out DIR] [--validator PATH]
 *
 * --trace 0 repeats untraced repetitions and reports the end-to-end
 * metrics. --trace 1 alternates untraced and traced repetitions,
 * reports the per-layer metrics (the tracing overhead is the difference
 * between the two kinds), writes DIR/trace-W.json and checks it with
 * the validator at PATH. Every metric is printed as "name value unit";
 * the last line is one JSON object with the keys correct, attempted,
 * failed and metrics. The exit code is 0 only when every correctness
 * check passed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/timer.h"
#include "kernels/kernel_registry.h"
#include "spans.h"
#include "workload.h"

using namespace bench;

namespace {

/** Linear-interpolated percentile of @p v (p in [0, 100]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

/** Named correctness checks; all must hold for exit code 0. */
class Checks
{
  public:
    void
    expect(bool ok, const std::string &what)
    {
        if (!ok) {
            failures_.push_back(what);
            std::fprintf(stderr, "check failed: %s\n", what.c_str());
        }
    }

    bool ok() const { return failures_.empty(); }

  private:
    std::vector<std::string> failures_;
};

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 20.0;
    bool trace = false;
    std::string out = "build-bench";
    std::string validator;
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string value;
        const std::size_t eq = key.find('=');
        if (eq != std::string::npos) {
            value = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            value = argv[++i];
        } else {
            lazydp::fatal("flag ", key, " needs a value");
        }
        try {
            if (key == "--workload")
                a.workload = value;
            else if (key == "--seed")
                a.seed = std::stoull(value);
            else if (key == "--seconds")
                a.seconds = std::stod(value);
            else if (key == "--trace")
                a.trace = std::stoi(value) != 0;
            else if (key == "--out")
                a.out = value;
            else if (key == "--validator")
                a.validator = value;
            else
                lazydp::fatal("unknown flag ", key);
        } catch (const std::logic_error &) {
            lazydp::fatal("bad value '", value, "' for ", key);
        }
    }
    if (findWorkload(a.workload) == nullptr)
        lazydp::fatal("unknown --workload '", a.workload, "'");
    if (!(a.seconds > 0.0) || a.seconds > 120.0)
        lazydp::fatal("--seconds must lie in (0, 120]");
    return a;
}

/** Median over repetitions of each repetition's training throughput. */
double
samplesPerSecond(const std::vector<const RepResult *> &reps)
{
    std::vector<double> per_rep;
    for (const RepResult *r : reps)
        per_rep.push_back(
            ratio(static_cast<double>(r->batch * r->iterations),
                  r->wallSeconds));
    return percentile(per_rep, 50);
}

/**
 * Timings pool the samples of every repetition; per-repetition figures
 * (throughput, set-up, release) are medians over the repetitions, so
 * one repetition disturbed by the host does not set the run's value.
 */
std::vector<Metric>
endToEnd(const std::vector<const RepResult *> &reps, double first_rss_mb)
{
    std::vector<double> iters, setup, release;
    ServeOutcome serve;
    for (const RepResult *r : reps) {
        iters.insert(iters.end(), r->iterSeconds.begin(),
                     r->iterSeconds.end());
        setup.push_back(r->setupSeconds);
        release.push_back(r->releaseSeconds);
        serve.merge(r->serve);
    }
    return {
        {"train_samples_per_s", samplesPerSecond(reps), "samples/s"},
        {"iter_p50_ms", percentile(iters, 50) * 1e3, "ms"},
        {"iter_p90_ms", percentile(iters, 90) * 1e3, "ms"},
        {"release_s", percentile(release, 50), "s"},
        {"setup_s", percentile(setup, 50), "s"},
        {"peak_rss_mb", first_rss_mb, "MB"},
        {"serve_p50_ms", percentile(serve.latencyMs, 50), "ms"},
        {"serve_p95_ms", percentile(serve.latencyMs, 95), "ms"},
        {"serve_slo_attainment",
         ratio(static_cast<double>(serve.okWithinSlo),
               static_cast<double>(serve.issued)),
         "fraction"},
    };
}

std::vector<Metric>
perLayer(const std::vector<const RepResult *> &traced,
         const std::vector<const RepResult *> &untraced,
         const KernelRates &kr)
{
    static const char *const kStageNames[kStages] = {
        "fwd",           "bwd_example",  "bwd_batch",
        "coalesce",      "noise_sampling", "noisy_grad_gen",
        "noisy_update",  "lazy_overhead", "else"};
    StageSeconds stages{};
    double apply_attributed = 0.0;
    double apply = 0.0, wall = 0.0, prepare = 0.0, hidden = 0.0,
           warm = 0.0, batch_s = 0.0, versions = 0.0, noise = 0.0;
    std::uint64_t applies = 0, iterations = 0, run_iters = 0,
                  batches = 0, unique = 0;
    lazydp::LazyDpAlgorithm::OverheadBreakdown ovh;
    lazydp::TierStats tier;
    lazydp::PublishTotals pub;
    ServeOutcome serve;
    double mean_batch = 0.0;
    for (const RepResult *r : traced) {
        for (std::size_t s = 0; s < kStages; ++s) {
            stages[s] += r->stages.applyStages[s] +
                         r->stages.prepareStages[s];
            apply_attributed += r->stages.applyStages[s];
        }
        apply += r->stages.applySeconds;
        applies += r->stages.applies;
        noise += static_cast<double>(r->stages.noiseBytes);
        wall += r->wallSeconds;
        iterations += r->iterations;
        run_iters += r->runIterations;
        prepare += r->prepareSeconds;
        hidden += r->prepareHiddenSeconds;
        warm += r->warmTierSeconds;
        batch_s += r->batchSeconds;
        batches += r->batches;
        unique += r->uniqueRows;
        ovh.dedupSeconds += r->overhead.dedupSeconds;
        ovh.historyReadSeconds += r->overhead.historyReadSeconds;
        ovh.historyWriteSeconds += r->overhead.historyWriteSeconds;
        tier += r->tier;
        pub.publishes += r->publish.publishes;
        pub.seconds += r->publish.seconds;
        pub.rowsCopied += r->publish.rowsCopied;
        pub.pagesCopied += r->publish.pagesCopied;
        pub.pagesShared += r->publish.pagesShared;
        serve.merge(r->serve);
        versions += static_cast<double>(r->serve.versions.size());
        mean_batch += r->serveMeanBatch;
    }
    const double n_iter = static_cast<double>(iterations);
    const double n_run = static_cast<double>(run_iters);
    const double n_reps = static_cast<double>(traced.size());
    const double n_apply = static_cast<double>(applies);
    std::vector<Metric> m = {
        {"data.batch_ms", ratio(batch_s, static_cast<double>(batches)) * 1e3,
         "ms"},
        {"data.unique_rows_per_iter", ratio(static_cast<double>(unique), n_iter),
         "count"},
        {"train.apply_ms", ratio(apply, n_apply) * 1e3, "ms"},
        {"train.prepare_ms", ratio(prepare, n_iter) * 1e3, "ms"},
        {"train.main_wait_ms", ratio(wall - apply, n_iter) * 1e3, "ms"},
        {"train.prepare_hidden_frac", ratio(hidden, prepare), "fraction"},
        {"train.warm_tier_ms", ratio(warm, n_iter) * 1e3, "ms"},
    };
    // LazyDP-only work (its overhead stage and the core/ sub-stages) is
    // absent under the eager engine, where a time would read a constant
    // 0 ms; it is reported as a share of the measured iteration time.
    const std::size_t lazy_stage =
        static_cast<std::size_t>(lazydp::Stage::LazyOverhead);
    for (std::size_t s = 0; s < kStages; ++s) {
        const std::string name = std::string("dp.") + kStageNames[s];
        if (s == lazy_stage)
            m.push_back({name + "_frac", ratio(stages[s], wall),
                         "fraction"});
        else
            m.push_back({name + "_ms", ratio(stages[s], n_apply) * 1e3,
                         "ms"});
    }
    m.push_back({"dp.unattributed_frac",
                 ratio(apply - apply_attributed, apply), "fraction"});
    m.push_back({"dp.noise_mb_per_iter",
                 ratio(noise, n_apply) / (1u << 20), "MB"});
    const double iter_s = ratio(wall, n_iter);
    m.push_back({"core.dedup_frac",
                 ratio(ratio(ovh.dedupSeconds, n_run), iter_s), "fraction"});
    m.push_back({"core.history_read_frac",
                 ratio(ratio(ovh.historyReadSeconds, n_run), iter_s),
                 "fraction"});
    m.push_back({"core.history_write_frac",
                 ratio(ratio(ovh.historyWriteSeconds, n_run), iter_s),
                 "fraction"});
    m.push_back({"kernels.gaussian_fill_gbps", kr.gaussianFillGbps,
                 "GB/s"});
    m.push_back({"kernels.gaussian_fill_roofline_frac",
                 kr.gaussianRooflineFrac, "fraction"});
    m.push_back({"kernels.scatter_axpy_gbps", kr.scatterAxpyGbps, "GB/s"});
    m.push_back({"kernels.pool_rows_gbps", kr.poolRowsGbps, "GB/s"});
    m.push_back({"kernels.gemv_gflops", kr.gemvGflops, "GFLOP/s"});
    m.push_back({"tier.hit_rate", tier.hitRate(), "fraction"});
    m.push_back({"tier.promotions_per_iter",
                 ratio(static_cast<double>(tier.promotions), n_run),
                 "count"});
    m.push_back({"tier.writebacks_per_iter",
                 ratio(static_cast<double>(tier.writebacks), n_run),
                 "count"});
    m.push_back({"tier.overcommits_per_iter",
                 ratio(static_cast<double>(tier.overcommits), n_run),
                 "count"});
    m.push_back({"tier.warmed_frac",
                 ratio(static_cast<double>(tier.warmedPromotions),
                       static_cast<double>(tier.promotions)),
                 "fraction"});
    m.push_back({"serve.submit_us_p99", percentile(serve.submitUs, 99),
                 "us"});
    m.push_back({"serve.dispatch_lag_us_p99", percentile(serve.lagUs, 99),
                 "us"});
    m.push_back({"serve.service_ms_p50", percentile(serve.serviceMs, 50),
                 "ms"});
    m.push_back({"serve.service_ms_p99", percentile(serve.serviceMs, 99),
                 "ms"});
    m.push_back({"serve.mean_batch", ratio(mean_batch, n_reps), "count"});
    m.push_back({"serve.versions_served", ratio(versions, n_reps),
                 "count"});
    m.push_back({"serve.staleness_p50_ms",
                 percentile(serve.stalenessMs, 50), "ms"});
    m.push_back({"serve.failed_frac",
                 ratio(static_cast<double>(serve.issued - serve.ok),
                       static_cast<double>(serve.issued)),
                 "fraction"});
    const double publishes = static_cast<double>(pub.publishes);
    m.push_back({"serve.publish_ms", ratio(pub.seconds, publishes) * 1e3,
                 "ms"});
    m.push_back({"serve.rows_copied_per_publish",
                 ratio(static_cast<double>(pub.rowsCopied), publishes),
                 "count"});
    m.push_back({"serve.pages_shared_frac",
                 ratio(static_cast<double>(pub.pagesShared),
                       static_cast<double>(pub.pagesShared +
                                           pub.pagesCopied)),
                 "fraction"});
    m.push_back({"trace.overhead_frac",
                 1.0 - ratio(samplesPerSecond(traced),
                             samplesPerSecond(untraced)),
                 "fraction"});
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadSpec &spec = *findWorkload(args.workload);
    // The benchmark pins the default kernel selection so the
    // environment cannot change what it measures.
    lazydp::setKernelBackend(lazydp::KernelBackend::Auto);
    lazydp::setLogLevel(lazydp::LogLevel::Warn);

    // Repeat until the budget is spent, and at least until the pooled
    // iteration times put ten samples beyond iter_p90 (one repetition
    // of each kind when tracing). Start no repetition that the slowest
    // one so far says would overrun the budget.
    const std::size_t min_reps =
        args.trace ? 2 : (kMinIterSamples + spec.iters - 1) / spec.iters;
    std::vector<RepResult> reps;
    lazydp::WallTimer clock;
    double slowest = 0.0;
    double first_rss_mb = 0.0;
    while (reps.size() < min_reps ||
           clock.seconds() + slowest <= args.seconds) {
        const bool traced = args.trace && reps.size() % 2 == 1;
        lazydp::WallTimer rep_clock;
        // Each repetition trains on a new thread, which the scheduler
        // places afresh: on a host whose cores change speed under other
        // tenants, the median over repetitions then does not hinge on
        // where one thread landed.
        RepResult rep;
        std::thread training([&] {
            spansNameThread("training");
            rep = runRep(spec, args.seed, traced, args.out);
        });
        training.join();
        reps.push_back(std::move(rep));
        slowest = std::max(slowest, rep_clock.seconds());
        if (reps.size() == 1) {
            // Peak memory of one repetition in a fresh process: later
            // repetitions reuse (or keep) the allocator's freed memory,
            // so the process peak would depend on the repetition count.
            rusage ru{};
            getrusage(RUSAGE_SELF, &ru);
            first_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
        }
        std::fprintf(stderr,
                     "rep %zu%s: setup %.3f s, train %.3f s, release "
                     "%.3f s, total %.3f s\n",
                     reps.size(), traced ? " (traced)" : "",
                     reps.back().setupSeconds, reps.back().wallSeconds,
                     reps.back().releaseSeconds, rep_clock.seconds());
    }

    Checks checks;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<const RepResult *> traced, untraced;
    for (const RepResult &r : reps) {
        (r.traced ? traced : untraced).push_back(&r);
        attempted += r.iterations + r.serve.issued;
        failed += r.serve.issued - r.serve.ok;
        checks.expect(r.modelHash == reps.front().modelHash,
                      "final-model hash differs between repetitions");
        checks.expect(r.lossesFinite, "non-finite training loss");
        checks.expect(r.iterations == spec.iters &&
                          r.iterSeconds.size() == spec.iters,
                      "measured iteration count differs from requested");
        checks.expect(r.releaseAnswered,
                      "released model did not answer its first request");
        checks.expect(r.versionsPublished == r.versionsExpected,
                      "unexpected number of published versions");
        checks.expect(r.serve.issued > 0 && r.serveCountersMatch,
                      "request outcomes disagree with the engine");
        checks.expect(r.serve.ok + r.serve.shed + r.serve.expired +
                              r.serve.shutdown ==
                          r.serve.issued,
                      "request statuses do not add up to issued");
        checks.expect(r.serve.badScores == 0, "Ok score outside (0, 1)");
        checks.expect(r.serve.badVersions == 0, "Ok version below 1");
    }

    std::vector<Metric> metrics;
    if (args.trace) {
        const KernelRates kr = probeKernels(spec, args.seed);
        metrics = perLayer(traced, untraced, kr);
        for (const Metric &m : metrics)
            if (m.name == "dp.unattributed_frac")
                checks.expect(m.value <= 0.05,
                              "more than 5% of apply time has no stage");
        const std::string path =
            args.out + "/trace-" + spec.name + ".json";
        checks.expect(spansWriteChromeJson(path), "cannot write " + path);
        if (!args.validator.empty()) {
            const std::string cmd = "'" + args.validator + "' '" + path +
                                    "' --require-cats=train,data,serve,bench"
                                    " 1>&2";
            checks.expect(std::system(cmd.c_str()) == 0,
                          "trace validation failed for " + path);
        }
    } else {
        metrics = endToEnd(untraced, first_rss_mb);
    }

    std::printf("workload %s seed %llu reps %zu traced %zu\n", spec.name,
                static_cast<unsigned long long>(args.seed), reps.size(),
                traced.size());
    for (const Metric &m : metrics)
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("model_hash 0x%016llx\n",
                static_cast<unsigned long long>(reps.front().modelHash));
    std::printf("checks %s\n", checks.ok() ? "pass" : "FAIL");

    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                checks.ok() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(),
                    std::isfinite(metrics[i].value) ? metrics[i].value : 0.0,
                    metrics[i].unit);
    std::printf("}}\n");
    return checks.ok() ? 0 : 1;
}
