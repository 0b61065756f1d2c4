#include "workload.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <string_view>
#include <unistd.h>

#include "common/timer.h"
#include "core/factory.h"
#include "kernels/kernel_registry.h"
#include "nn/dlrm.h"
#include "rng/philox.h"
#include "rng/xoshiro.h"
#include "sim/machine_spec.h"
#include "spans.h"
#include "train/trainer.h"

namespace bench {

using namespace lazydp;

const std::vector<WorkloadSpec> &
workloads()
{
    // name, engine, table MiB, batch, access, width, hot divisor,
    // warmup, measured iterations per repetition, serve while training
    static const std::vector<WorkloadSpec> all = {
        {"train-uniform", "lazydp", 256, 1024, "uniform", 4, 0, 3, 16,
         false},
        {"train-zipf-tiered", "lazydp", 256, 1024, "zipf", 4, 8, 5, 16,
         false},
        {"train-eager", "dpsgd-f", 256, 512, "uniform", 4, 0, 2, 13,
         false},
        {"serve-while-train", "lazydp", 256, 512, "uniform", 1, 0, 3, 13,
         true},
    };
    return all;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : workloads())
        if (name == w.name)
            return &w;
    return nullptr;
}

namespace {

/** SplitMix64 step: derives independent seeds from the run seed. */
std::uint64_t
derive(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

enum SeedStream : std::uint64_t
{
    kModelSeed,
    kDataSeed,
    kNoiseSeed,
    kHistorySeed,
    kQuerySeed,
    kArrivalSeed,
};

/** FNV-1a 64-bit over a byte range. */
std::uint64_t
fnv1a(const void *data, std::size_t bytes, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001B3ull;
    }
    return h;
}

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ull;
constexpr std::size_t kHashWidth = 4;

/**
 * FNV-1a of every trained parameter. Each table is hashed on its own
 * (in parallel), then the table hashes and the MLPs are hashed in
 * order, so the value does not depend on the pool width.
 */
std::uint64_t
modelHash(const DlrmModel &model, ExecContext &exec)
{
    const auto &tables = model.tables();
    std::vector<std::uint64_t> per_table(tables.size());
    parallelFor(exec, tables.size(), [&](std::size_t lo, std::size_t hi) {
        for (std::size_t t = lo; t < hi; ++t) {
            std::uint64_t h = kFnvBasis;
            for (std::uint64_t r = 0; r < tables[t].rows(); ++r)
                h = fnv1a(tables[t].rowPtr(r),
                          tables[t].dim() * sizeof(float), h);
            per_table[t] = h;
        }
    });
    std::uint64_t h = fnv1a(per_table.data(),
                            per_table.size() * sizeof(std::uint64_t),
                            kFnvBasis);
    for (const Mlp *mlp : {&model.bottomMlp(), &model.topMlp()})
        for (const auto &layer : mlp->layers()) {
            h = fnv1a(layer.weight().data(),
                      layer.weight().size() * sizeof(float), h);
            h = fnv1a(layer.bias().data(),
                      layer.bias().size() * sizeof(float), h);
        }
    return h;
}

/** Steady-state pending age of a row under uniform access. */
double
expectedDelay(const ModelConfig &mc, std::size_t batch)
{
    const double rows = static_cast<double>(mc.rowsPerTable);
    const double draws = static_cast<double>(batch * mc.pooling);
    const double unique = rows * (1.0 - std::pow(1.0 - 1.0 / rows, draws));
    return std::max(1.0, rows / unique);
}

DatasetConfig
datasetFor(const ModelConfig &mc, const WorkloadSpec &spec,
           std::uint64_t seed)
{
    DatasetConfig dc;
    dc.numDense = mc.numDense;
    dc.numTables = mc.numTables;
    dc.rowsPerTable = mc.rowsPerTable;
    dc.rowsPerTableVec = mc.rowsPerTableVec;
    dc.pooling = mc.pooling;
    dc.batchSize = spec.batch;
    dc.access = accessPreset(spec.access);
    dc.seed = seed;
    return dc;
}

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Directory of a tiered model's cold files, removed on destruction. */
struct ColdDir
{
    std::string path;

    ColdDir() = default;
    ColdDir(const ColdDir &) = delete;
    ColdDir &operator=(const ColdDir &) = delete;

    ~ColdDir()
    {
        if (!path.empty()) {
            std::error_code ignored; // a leftover file is not a failure
            std::filesystem::remove_all(path, ignored);
        }
    }
};

/**
 * Fold the spans one traced repetition recorded (those starting at or
 * after @p since_ns ) into @p rep : data-loader time, prepare time of
 * the measured iterations and the part of it that overlapped the
 * previous iteration's apply(), and warm-tier submission time.
 */
void
addSpanTotals(RepResult &rep, std::uint64_t since_ns,
              std::uint64_t first_measured)
{
    const auto name_is = [](const Span &s, const char *n) {
        return std::string_view(s.name) == n;
    };
    std::map<std::uint64_t, Span> applies;
    std::vector<Span> spans = spansCollect();
    std::erase_if(spans, [&](const Span &s) { return s.startNs < since_ns; });
    for (const Span &s : spans)
        if (name_is(s, "apply"))
            applies[s.iter] = s;
    for (const Span &s : spans) {
        const double dur = static_cast<double>(s.durNs) * 1e-9;
        if (name_is(s, "batch")) {
            rep.batchSeconds += dur;
            ++rep.batches;
        } else if (name_is(s, "prepare") && s.iter >= first_measured) {
            rep.prepareSeconds += dur;
            const auto prev = applies.find(s.iter - 1);
            if (prev == applies.end())
                continue;
            const std::uint64_t lo = std::max(s.startNs, prev->second.startNs);
            const std::uint64_t hi =
                std::min(s.startNs + s.durNs,
                         prev->second.startNs + prev->second.durNs);
            if (hi > lo)
                rep.prepareHiddenSeconds +=
                    static_cast<double>(hi - lo) * 1e-9;
        } else if (name_is(s, "warm_tier") && s.iter >= first_measured) {
            rep.warmTierSeconds += dur;
        }
    }
}

} // namespace

RepResult
runRep(const WorkloadSpec &spec, std::uint64_t seed, bool traced,
       const std::string &scratch_dir)
{
    RepResult rep;
    rep.traced = traced;
    rep.batch = spec.batch;
    spansEnable(traced);
    const Clock::time_point rep_start = Clock::now();
    const std::uint64_t rep_start_ns = spanNowNs();

    // ---- set-up ----------------------------------------------------
    const ModelConfig mc = ModelConfig::mlperfBench(spec.tableMb << 20);
    ColdDir cold_dir; // outlives the model whose files it holds
    std::unique_ptr<DlrmModel> model;
    if (spec.hotDivisor != 0) {
        cold_dir.path = scratch_dir + "/tier-" + spec.name + "-" +
                        std::to_string(::getpid());
        std::filesystem::create_directories(cold_dir.path);
        DlrmModel::TieredModelOptions tier;
        tier.hotBytes = mc.tableBytes() / spec.hotDivisor;
        tier.coldDir = cold_dir.path;
        tier.prefetch = true;
        model = std::make_unique<DlrmModel>(mc, derive(seed, kModelSeed),
                                            tier);
    } else {
        model = std::make_unique<DlrmModel>(mc, derive(seed, kModelSeed));
    }
    const DatasetConfig dc = datasetFor(mc, spec, derive(seed, kDataSeed));
    SyntheticDataset dataset(dc);
    BenchLoader loader(dataset);

    TrainHyper hyper;
    hyper.noiseSeed = derive(seed, kNoiseSeed);
    std::unique_ptr<Algorithm> algo =
        makeAlgorithm(spec.algo, *model, hyper);
    auto *lazy = dynamic_cast<LazyDpAlgorithm *>(algo.get());
    std::uint64_t start_iter = 0;
    if (lazy != nullptr) {
        // Start from steady-state pending ages, as if training had
        // already run for a while, so short runs see steady-state
        // noise volume.
        const double delay = expectedDelay(mc, spec.batch);
        start_iter = static_cast<std::uint64_t>(std::ceil(delay)) * 4 + 16;
        lazy->warmStartHistory(start_iter, delay,
                               derive(seed, kHistorySeed));
    }

    ThreadPool pool(spec.width);
    ExecContext exec(&pool);

    DatasetConfig qc = dc;
    qc.seed = derive(seed, kQuerySeed);
    const std::vector<ServeQuery> queries = makeQueries(qc, 4096);
    SnapshotOptions snap;
    snap.mode = spec.serveWhileTrain ? SnapshotMode::Delta
                                     : SnapshotMode::Full;
    ModelSnapshotStore store(snap);
    ServeOptions serve_opts;
    serve_opts.threads = 1;
    serve_opts.batch.maxBatch = kServeMaxBatch;
    serve_opts.batch.maxDelayUs = kServeMaxDelayUs;
    ServeEngine engine(store, mc, pool, serve_opts);

    const std::uint64_t first_measured = start_iter + spec.warmup + 1;
    TracedAlgorithm decorated(*algo, first_measured);
    Algorithm &driven = traced ? static_cast<Algorithm &>(decorated)
                               : *algo;

    // ---- training --------------------------------------------------
    OpenLoop during(engine, queries, kServeQps, derive(seed, kArrivalSeed),
                    0);
    std::map<std::uint64_t, Clock::time_point> publish_times;
    std::uint64_t gates = 0;
    std::uint64_t iter_start_ns = 0;
    Clock::time_point setup_end;

    const std::uint64_t total = spec.warmup + spec.iters;
    TrainOptions opts;
    opts.pipeline = true;
    opts.startIter = start_iter;
    opts.warmupIters = spec.warmup;
    opts.previewFinal = true;
    opts.recordIterSeconds = true;
    opts.runFinalize = false; // the release phase times it
    if (spec.serveWhileTrain) {
        opts.publishEveryIters = 1;
        opts.snapshotStore = &store;
    }
    // Runs after iteration `gates` completed, with its snapshot
    // published: the iteration boundaries of the run.
    opts.iterationGate = [&] {
        ++gates;
        const Clock::time_point now = Clock::now();
        const std::uint64_t now_ns = spanNowNs();
        publish_times[start_iter + gates] = now;
        if (gates > spec.warmup)
            spanRecord("train", "iteration", iter_start_ns, now_ns,
                       start_iter + gates);
        iter_start_ns = now_ns;
        if (gates == spec.warmup) {
            setup_end = now;
            spanRecord("bench", "setup", rep_start_ns, now_ns, 0);
            if (spec.serveWhileTrain)
                during.start();
        }
    };

    Trainer trainer(driven, loader, &exec);
    TrainResult result = trainer.run(total, opts);
    {
        const std::uint64_t now_ns = spanNowNs();
        spanRecord("train", "iteration", iter_start_ns, now_ns,
                   start_iter + total);
        publish_times[start_iter + total] = Clock::now();
    }
    during.stop();
    rep.setupSeconds = secondsBetween(rep_start, setup_end);
    rep.wallSeconds = result.wallSeconds;
    rep.iterations = result.iterations;
    rep.runIterations = total;
    rep.iterSeconds = std::move(result.iterSeconds);
    for (const double loss : result.losses)
        rep.lossesFinite = rep.lossesFinite && std::isfinite(loss);
    rep.tier = result.tierStats;
    const PublishTotals training_publishes = store.totals();
    if (spec.serveWhileTrain)
        rep.serve = summarize(during.records(), kServeSloUs,
                              publish_times);

    // ---- release ---------------------------------------------------
    const std::uint64_t last_iter = start_iter + total;
    {
        ScopedSpan span("bench", "release", last_iter);
        const Clock::time_point t0 = Clock::now();
        StageTimer finalize_timer;
        driven.finalize(last_iter, exec, finalize_timer);
        store.publish(*model, last_iter, driven.dirtyTracker());
        publish_times[last_iter] = Clock::now();
        const PendingRequestPtr probe = engine.submit(queries.front());
        const ServeResult &r = probe->wait();
        rep.releaseSeconds = secondsBetween(t0, Clock::now());
        rep.releaseAnswered = r.status == ServeResult::Status::Ok &&
                              r.version == store.version();
    }
    rep.versionsPublished = store.version();
    rep.versionsExpected = spec.serveWhileTrain ? total + 1 : 1;
    rep.publish = spec.serveWhileTrain ? training_publishes
                                       : store.totals();

    // ---- serving the released model --------------------------------
    if (!spec.serveWhileTrain) {
        ScopedSpan span("bench", "serve_released", last_iter);
        OpenLoop after(engine, queries, kServeQps,
                       derive(seed, kArrivalSeed), kPostTrainRequests);
        after.start();
        after.join();
        rep.serve = summarize(after.records(), kServeSloUs,
                              publish_times);
    }
    engine.stop();
    spansEnable(false);
    const ServeStats ss = engine.stats();
    rep.serveMeanBatch = ss.meanBatch();
    // The engine served every Ok request plus the release probe.
    rep.serveCountersMatch = ss.served == rep.serve.ok + 1 &&
                             ss.shed == rep.serve.shed &&
                             ss.expired == rep.serve.expired &&
                             ss.shutdown == rep.serve.shutdown;

    {
        // Hash on a pool as wide as the widest workload's, so the
        // single-lane workload does not spend its budget on the check.
        ThreadPool hash_pool(kHashWidth);
        ExecContext hash_exec(&hash_pool);
        rep.modelHash = modelHash(*model, hash_exec);
    }
    if (traced) {
        rep.stages = decorated.totals();
        if (lazy != nullptr)
            rep.overhead = lazy->overheadBreakdown();
        // Batch k feeds run-local iteration k + 1.
        for (std::uint64_t k = spec.warmup; k < total; ++k)
            rep.uniqueRows += uniqueRows(dataset.batch(k));
        addSpanTotals(rep, rep_start_ns, first_measured);
    }
    return rep;
}

KernelRates
probeKernels(const WorkloadSpec &spec, std::uint64_t seed)
{
    const KernelTable &k = kernels();
    const ModelConfig mc = ModelConfig::mlperfBench(spec.tableMb << 20);
    const std::size_t dim = mc.embedDim;
    const std::size_t rows = mc.rowsPerTable;
    const std::size_t batch = spec.batch;
    ThreadPool pool(spec.width);
    ExecContext exec(&pool);
    KernelRates out;

    // Repeat a timed body until it has run for at least 50 ms.
    const auto rate = [](double units, const auto &body) {
        WallTimer t;
        std::uint64_t reps = 0;
        do {
            body();
            ++reps;
        } while (t.seconds() < 0.05);
        return units * static_cast<double>(reps) / t.seconds();
    };

    Tensor table(rows, dim);
    Tensor vals(batch, dim);
    Tensor out_rows(batch, dim);
    std::vector<std::uint32_t> ids(batch);
    Xoshiro256 rng(seed);
    for (std::size_t i = 0; i < batch; ++i)
        ids[i] = static_cast<std::uint32_t>(i * (rows / batch));

    // Gaussian fill: one table's eager noise, row by row, sharded over
    // the workload's pool like the eager engines' noise sweep.
    const Philox4x32 philox(seed);
    const double fill_samples = rate(static_cast<double>(rows * dim), [&] {
        parallelFor(exec, rows, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t r = lo; r < hi; ++r)
                k.gaussianFillKeyed(philox, 1, r << 12,
                                    table.data() + r * dim, dim, 1.0f,
                                    1.0f, false);
        });
    });
    out.gaussianFillGbps = fill_samples * sizeof(float) / 1e9;
    out.gaussianRooflineFrac =
        fill_samples / MachineSpec::calibratedHost().gaussianRate;

    // Sparse scatter update of one lot's unique rows (read row, read
    // value, write row).
    out.scatterAxpyGbps =
        rate(3.0 * batch * dim * sizeof(float), [&] {
            k.scatterAxpyRows(table.data(), ids.data(), vals.data(), batch,
                              dim, -0.01f);
        }) /
        1e9;

    // Embedding sum-pooling of one lot (pooling rows read per output).
    const std::size_t pooling = mc.pooling;
    std::vector<std::uint32_t> pool_ids(batch * pooling);
    for (auto &id : pool_ids)
        id = static_cast<std::uint32_t>(rng() % rows);
    out.poolRowsGbps =
        rate(static_cast<double>(batch * (pooling + 1) * dim *
                                 sizeof(float)),
             [&] {
                 for (std::size_t e = 0; e < batch; ++e)
                     k.poolRows(out_rows.data() + e * dim, table.data(),
                                pool_ids.data() + e * pooling, pooling,
                                dim);
             }) /
        1e9;

    // GEMV rows of the top MLP's first layer over one lot.
    const std::size_t in = mc.interactionDim();
    const std::size_t outw = mc.topDims.front();
    Tensor a(batch, in);
    Tensor w(outw, in);
    Tensor c(batch, outw);
    out.gemvGflops = rate(2.0 * batch * in * outw, [&] {
                         for (std::size_t e = 0; e < batch; ++e)
                             k.gemvDotRow(a.data() + e * in, w.data(),
                                          c.data() + e * outw, outw, in,
                                          false);
                     }) /
                     1e9;
    return out;
}

} // namespace bench
