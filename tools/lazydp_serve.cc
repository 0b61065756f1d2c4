/**
 * @file
 * lazydp_serve — the train-and-serve driver.
 *
 * Turns the trainer into an online system: the main thread trains a DP
 * engine and publishes versioned model snapshots every
 * --publish-every iterations, while --serve-threads serve lanes score
 * deadline-batched single-user queries against the latest snapshot and
 * a load generator measures throughput, tail latency (p50/p95/p99/
 * p999) and SLO attainment. Admission control (--queue-cap,
 * --shed-policy) bounds the per-lane queues and sheds low-priority
 * work under overload; --slo-us expires stale requests unscored;
 * --scenario scripts the arrival profile (flash crowds, diurnal
 * ramps, skew drift, mixed two-class traffic). With --train-iters=0
 * it serves the freshly initialized model only (serve-only baseline).
 *
 * Examples:
 *   lazydp_serve --algo=lazydp --model=mlperf --train-iters=50 \
 *                --publish-every=10 --serve-threads=2 --requests=2000
 *   lazydp_serve --train-iters=0 --serve-qps=500 --max-batch=16 \
 *                --max-delay-us=500 --serve-skew=high
 *   lazydp_serve --train-iters=0 --serve-qps=3000 --scenario=flash \
 *                --queue-cap=16 --shed-policy=drop-oldest --slo-us=5000
 */

#include <cstdio>
#include <iostream>
#include <memory>
#include <thread>

#include "common/cli.h"
#include "obs/obs_cli.h"
#include "common/stats.h"
#include "common/string_util.h"
#include "common/table_printer.h"
#include "common/thread_pool.h"
#include "core/factory.h"
#include "data/data_loader.h"
#include "serve/load_generator.h"
#include "serve/serve_engine.h"
#include "serve/snapshot_store.h"
#include "train/trainer.h"

using namespace lazydp;

int
main(int argc, char **argv)
{
    const CliArgs args(
        argc, argv,
        obs::withObsFlags(withTierFlags(std::vector<FlagSpec>{
         {"algo", "training engine: sgd|dpsgd-b|dpsgd-r|dpsgd-f|eana|"
                  "lazydp|lazydp-noans"},
         {"model", "preset: mlperf|mlperf-full|mlperf-hetero|rmc1|rmc2|"
                   "rmc3|tiny"},
         {"table-mb", "total embedding-table megabytes"},
         {"batch", "training mini-batch (lot) size"},
         {"train-iters", "training iterations (0 = serve-only: score "
                         "the freshly initialized model)"},
         {"lr", "learning rate"},
         {"sigma", "DP noise multiplier"},
         {"clip", "per-example gradient clipping norm C"},
         {"skew", "TRAINING data skew: uniform|low|medium|high|zipf"},
         {"seed", "model/data/query seed"},
         {"threads", "training execution width (0 = all hardware "
                     "threads)"},
         {"pipeline", "on|off: training stage pipeline"},
         {"replicas", "1|2|4 training data-parallel workers"},
         {"kernels", "SIMD backend: scalar|avx2|auto"},
         {"publish-every", "publish a model snapshot every N training "
                           "iterations"},
         {"snapshot", "snapshot store mode: full (dense O(model) "
                      "copies) | delta (O(dirty rows) copy-on-write "
                      "pages)"},
         {"seal-pages", "on|off: delta mode only -- mprotect published "
                        "pages read-only (torn writes fault)"},
         {"dump-scores", "write every request's score to this file "
                         "(hex floats, one per line; bit-exact)"},
         {"serve-threads", "number of serve lanes (dedicated inference "
                           "workers)"},
         {"serve-qps", "open-loop arrival rate in queries/s (0 = "
                       "closed loop)"},
         {"serve-concurrency", "closed loop: clients with one request "
                               "in flight each"},
         {"requests", "total queries the load generator issues"},
         {"max-batch", "micro-batch coalescing cap (1 = no batching)"},
         {"max-delay-us", "batching deadline: max microseconds the "
                          "oldest query waits"},
         {"queue-cap", "admission control: per-lane queue-depth cap "
                       "(0 = unbounded, shedding off)"},
         {"shed-policy", "victim at a full queue: reject (newest) | "
                         "drop-oldest (lowest priority first either "
                         "way)"},
         {"slo-us", "SLO class deadline in microseconds (0 = none); "
                    "queued requests past it expire unscored"},
         {"scenario", "traffic profile: steady|diurnal|flash|drift|"
                      "mixed (rate-modulated ones need --serve-qps)"},
         {"flash-x", "flash scenario: burst rate multiplier"},
         {"low-frac", "fraction of requests in the low-priority class "
                      "(mixed scenario defaults to 0.5)"},
         {"low-slo-us", "low-priority class deadline in microseconds"},
         {"serve-skew", "QUERY skew: uniform|low|medium|high|zipf"},
         {"csv", "print the result table as CSV"},
         {"help", "print this listing"}})));
    if (args.has("help")) {
        std::printf("%s",
                    args.helpText("lazydp_serve",
                                  "concurrent train-and-serve driver: "
                                  "versioned snapshots + deadline-"
                                  "batched DLRM inference under load")
                        .c_str());
        return 0;
    }

    const std::string algo_name = args.getString("algo", "lazydp");
    const std::uint64_t table_mb = args.getU64("table-mb", 96);
    const ModelConfig model_cfg =
        modelPreset(args.getString("model", "mlperf"), table_mb << 20);
    const std::size_t batch = args.getU64("batch", 1024);
    const std::uint64_t train_iters = args.getU64("train-iters", 50);
    const std::uint64_t seed = args.getU64("seed", 1);
    const std::uint64_t publish_every = args.getU64("publish-every", 10);
    if (publish_every == 0)
        fatal("--publish-every must be positive");

    TrainHyper hyper;
    hyper.lr = static_cast<float>(args.getDouble("lr", 0.05));
    hyper.noiseMultiplier =
        static_cast<float>(args.getDouble("sigma", 1.0));
    hyper.clipNorm = static_cast<float>(args.getDouble("clip", 1.0));
    hyper.noiseSeed = seed * 0x9E3779B9u + 7;

    // Out-of-core training tables (--cold-path): snapshots still copy
    // rows out page by page, so serving is unaffected beyond the copy
    // source; the trained bits match all-DRAM exactly.
    const std::string cold_path = args.getString("cold-path", "");
    if (args.has("hot-mb") && cold_path.empty())
        fatal("--hot-mb needs --cold-path (it sizes the tiered "
              "tables' DRAM budget)");
    std::unique_ptr<DlrmModel> model_holder;
    if (!cold_path.empty()) {
        DlrmModel::TieredModelOptions tier;
        tier.hotBytes = args.getU64("hot-mb", 64) << 20;
        tier.coldDir = cold_path;
        tier.prefetch = args.getBool("prefetch", true);
        model_holder =
            std::make_unique<DlrmModel>(model_cfg, seed, tier);
    } else {
        model_holder = std::make_unique<DlrmModel>(model_cfg, seed);
    }
    DlrmModel &model = *model_holder;
    DatasetConfig data_cfg;
    data_cfg.numDense = model_cfg.numDense;
    data_cfg.numTables = model_cfg.numTables;
    data_cfg.rowsPerTable = model_cfg.rowsPerTable;
    data_cfg.rowsPerTableVec = model_cfg.rowsPerTableVec;
    data_cfg.pooling = model_cfg.pooling;
    data_cfg.batchSize = batch;
    data_cfg.access = accessPreset(args.getString("skew", "uniform"));
    data_cfg.seed = seed + 0xDA7A;
    SyntheticDataset dataset(data_cfg);
    SequentialLoader loader(dataset);

    const std::size_t threads = args.getThreads(1);
    const std::string kernels_name = args.applyKernels();
    ThreadPool pool(threads);
    ExecContext exec(&pool);

    obs::ObsSession obs(obs::obsOptionsFromCli(args));

    // --- serving tier -------------------------------------------------
    const std::string snapshot_mode =
        args.getString("snapshot", "full");
    if (snapshot_mode != "full" && snapshot_mode != "delta")
        fatal("--snapshot must be full or delta, got ", snapshot_mode);
    SnapshotOptions snap_opts;
    snap_opts.mode = snapshot_mode == "delta" ? SnapshotMode::Delta
                                              : SnapshotMode::Full;
    snap_opts.sealPages = args.getBool("seal-pages", false);
    ModelSnapshotStore store(snap_opts);
    // Version 1 is the initial (iteration-0) model so serving has a
    // snapshot from the first request on, train or no train.
    store.publish(model, 0);

    ServeOptions serve_opts;
    serve_opts.threads = args.getU64("serve-threads", 2);
    serve_opts.batch.maxBatch = args.getU64("max-batch", 32);
    serve_opts.batch.maxDelayUs = args.getU64("max-delay-us", 200);
    serve_opts.batch.queueCap = args.getU64("queue-cap", 0);
    // An EXPLICIT zero cap is degenerate: read literally, a zero-depth
    // queue admits nothing -- every request (including any probe that
    // measures capacity) would shed. The internal 0-means-unbounded
    // encoding is not a CLI contract, so reject the ambiguity loudly.
    if (args.has("queue-cap") && serve_opts.batch.queueCap == 0)
        fatal("--queue-cap=0 is degenerate (a zero-depth queue admits "
              "nothing); omit the flag for an unbounded queue or pass "
              "a positive cap");
    const std::string shed_policy =
        args.getString("shed-policy", "reject");
    if (shed_policy == "reject")
        serve_opts.batch.shedPolicy = ShedPolicy::RejectNewest;
    else if (shed_policy == "drop-oldest")
        serve_opts.batch.shedPolicy = ShedPolicy::DropOldest;
    else
        fatal("--shed-policy must be reject or drop-oldest, got ",
              shed_policy);

    ServeEngine engine(store, model_cfg, pool, serve_opts);

    LoadOptions load_opts;
    load_opts.requests = args.getU64("requests", 1000);
    load_opts.qps = args.getDouble("serve-qps", 0.0);
    load_opts.concurrency = args.getU64("serve-concurrency", 4);
    load_opts.seed = seed + 0x5E12;
    load_opts.access =
        accessPreset(args.getString("serve-skew", "uniform"));
    load_opts.scenario =
        scenarioFromString(args.getString("scenario", "steady"));
    if (load_opts.qps <= 0.0 &&
        (load_opts.scenario == Scenario::Diurnal ||
         load_opts.scenario == Scenario::FlashCrowd))
        fatal("--scenario=", scenarioName(load_opts.scenario),
              " modulates the arrival rate; it needs an open loop "
              "(--serve-qps > 0)");
    load_opts.slo.deadlineUs = args.getU64("slo-us", 0);
    load_opts.slo.priority = 1;
    load_opts.lowSlo.deadlineUs =
        args.getU64("low-slo-us", load_opts.slo.deadlineUs);
    load_opts.lowSlo.priority = 0;
    load_opts.lowFraction = args.getDouble("low-frac", 0.0);
    if (load_opts.lowFraction < 0.0 || load_opts.lowFraction > 1.0)
        fatal("--low-frac is a fraction and must lie in [0, 1], got ",
              load_opts.lowFraction);
    load_opts.flashMultiplier = args.getDouble("flash-x", 8.0);
    const std::string dump_scores = args.getString("dump-scores", "");
    load_opts.collectScores = !dump_scores.empty();
    LoadGenerator generator(engine, model_cfg, load_opts);

    inform("serving ", model_cfg.name, " (",
           humanBytes(model.tableBytes()), " tables) with ",
           serve_opts.threads, " serve lanes, max-batch ",
           serve_opts.batch.maxBatch, ", max-delay ",
           serve_opts.batch.maxDelayUs, " us, queue-cap ",
           serve_opts.batch.queueCap, " (", shed_policy, "), slo ",
           load_opts.slo.deadlineUs, " us, ",
           load_opts.qps > 0.0 ? "open" : "closed", " loop, scenario ",
           scenarioName(load_opts.scenario), ", ",
           load_opts.requests, " requests; training ", algo_name,
           " for ", train_iters, " iters (publish every ",
           publish_every, ", ", snapshot_mode, " snapshots",
           snap_opts.sealPages ? ", sealed" : "", "), kernels ",
           kernels_name);

    // --- concurrent load + training ----------------------------------
    LoadReport report;
    std::thread load_thread(
        [&generator, &report] { report = generator.run(); });

    TrainResult train_result;
    if (train_iters > 0) {
        auto algo = makeAlgorithm(algo_name, model, hyper);
        Trainer trainer(*algo, loader, &exec);
        TrainOptions options;
        options.pipeline = args.getBool("pipeline", false);
        options.replicas = args.getU64("replicas", 1);
        options.publishEveryIters = publish_every;
        options.snapshotStore = &store;
        options.recordIterSeconds = true;
        train_result = trainer.run(train_iters, options);
    }
    load_thread.join();
    engine.stop();
    // Every traced subsystem has stopped: close the trace and take the
    // sampler's final scrape before the report reads its count.
    obs.finish();

    // --- sanity (the CI smoke leans on these) -------------------------
    if (report.completed != load_opts.requests)
        fatal("completed ", report.completed, " of ",
              load_opts.requests, " requests (a request was silently "
              "dropped or left hanging)");
    // Status conservation: every completed request carries exactly one
    // outcome -- a mismatch means a drop path invented or lost one.
    if (report.ok + report.shed + report.expired + report.shutdown !=
        report.completed)
        fatal("status counts (", report.ok, " ok + ", report.shed,
              " shed + ", report.expired, " expired + ",
              report.shutdown, " shutdown) != ", report.completed,
              " completed");
    if (serve_opts.batch.queueCap == 0 &&
        load_opts.slo.deadlineUs == 0 && report.ok != report.completed)
        fatal("shedding and deadlines are OFF yet only ", report.ok,
              " of ", report.completed, " requests were scored");
    if (report.qps() <= 0.0)
        fatal("zero serving throughput");
    // Startup publishes version 1; training must add exactly one
    // version per --publish-every iterations (a vacuous "> 0" check
    // would pass on the startup publish alone and miss a broken
    // Trainer publish path).
    const std::uint64_t expected_version =
        1 + train_iters / publish_every;
    if (store.version() != expected_version)
        fatal("expected snapshot version ", expected_version,
              " after training, got ", store.version());

    // --- report -------------------------------------------------------
    const ServeStats sstats = engine.stats();
    TablePrinter table("Serve: " + model_cfg.name + " (" + algo_name +
                       ")");
    table.setHeader({"metric", "value"});
    table.addRow({"requests", TablePrinter::num(report.completed, 0)});
    table.addRow({"scenario", scenarioName(load_opts.scenario)});
    table.addRow({"throughput qps", TablePrinter::num(report.qps(), 1)});
    table.addRow({"slo attainment %",
                  TablePrinter::num(report.attainment() * 100.0, 2)});
    table.addRow({"requests ok",
                  TablePrinter::num(static_cast<double>(report.ok), 0)});
    table.addRow({"requests shed",
                  TablePrinter::num(static_cast<double>(report.shed),
                                    0)});
    table.addRow({"requests expired",
                  TablePrinter::num(
                      static_cast<double>(report.expired), 0)});
    if (report.shutdown > 0)
        table.addRow({"requests shutdown",
                      TablePrinter::num(
                          static_cast<double>(report.shutdown), 0)});
    if (report.classes.size() > 1) {
        for (const auto &cls : report.classes) {
            const std::string tag =
                "class p" + TablePrinter::num(
                                static_cast<double>(cls.priority), 0);
            table.addRow(
                {tag + " attainment %",
                 TablePrinter::num(cls.attainment() * 100.0, 2)});
            table.addRow({tag + " issued/ok/shed",
                          TablePrinter::num(
                              static_cast<double>(cls.issued), 0) +
                              "/" +
                              TablePrinter::num(
                                  static_cast<double>(cls.ok), 0) +
                              "/" +
                              TablePrinter::num(
                                  static_cast<double>(cls.shed), 0)});
        }
    }
    table.addRow(
        {"latency p50 ms",
         TablePrinter::num(report.latency.p50 * 1e3, 3)});
    table.addRow(
        {"latency p95 ms",
         TablePrinter::num(report.latency.p95 * 1e3, 3)});
    table.addRow(
        {"latency p99 ms",
         TablePrinter::num(report.latency.p99 * 1e3, 3)});
    table.addRow(
        {"latency p999 ms",
         TablePrinter::num(report.latency.p999 * 1e3, 3)});
    table.addRow({"mean micro-batch",
                  TablePrinter::num(sstats.meanBatch(), 2)});
    table.addRow({"micro-batches",
                  TablePrinter::num(
                      static_cast<double>(sstats.batches), 0)});
    table.addRow({"batches stolen",
                  TablePrinter::num(
                      static_cast<double>(sstats.stolenBatches), 0)});
    if (obs.sampler() != nullptr)
        table.addRow({"stats scrapes",
                      TablePrinter::num(
                          static_cast<double>(obs.sampler()->scrapes()),
                          0)});
    table.addRow({"snapshot version",
                  TablePrinter::num(
                      static_cast<double>(store.version()), 0)});
    table.addRow({"versions served",
                  TablePrinter::num(
                      static_cast<double>(report.minVersion), 0) +
                      ".." +
                      TablePrinter::num(
                          static_cast<double>(report.maxVersion), 0)});
    if (train_iters > 0) {
        table.addRow(
            {"train sec/iter",
             TablePrinter::num(train_result.secondsPerIteration(), 4)});
        const auto iter_pct =
            stats::computePercentiles(train_result.iterSeconds);
        table.addRow({"train sec/iter p99",
                      TablePrinter::num(iter_pct.p99, 4)});
        if (model.tiered()) {
            table.addRow(
                {"tier hit rate",
                 TablePrinter::num(train_result.tierStats.hitRate(),
                                   4)});
            table.addRow(
                {"tier write-backs",
                 TablePrinter::num(
                     static_cast<double>(
                         train_result.tierStats.writebacks),
                     0)});
        }
    }
    // Publish-side costs over the store's lifetime (startup publish +
    // every training publish): what serving freshness cost the writer.
    const PublishTotals ptotals = store.totals();
    table.addRow({"snapshot mode", snapshot_mode});
    table.addRow({"publishes",
                  TablePrinter::num(
                      static_cast<double>(ptotals.publishes), 0)});
    table.addRow({"publish ms mean",
                  TablePrinter::num(
                      ptotals.publishes == 0
                          ? 0.0
                          : ptotals.seconds * 1e3 /
                                static_cast<double>(ptotals.publishes),
                      3)});
    table.addRow({"publish rows copied",
                  TablePrinter::num(
                      static_cast<double>(ptotals.rowsCopied), 0)});
    table.addRow({"publish pages shared",
                  TablePrinter::num(
                      static_cast<double>(ptotals.pagesShared), 0)});
    table.addRow({"buffers recycled",
                  TablePrinter::num(
                      static_cast<double>(ptotals.snapshotsRecycled +
                                          ptotals.pagesRecycled),
                      0)});
    if (snap_opts.sealPages) {
        // --seal-pages hardening is only real on mmap-backed pages;
        // TablePage silently falls back to the heap where mmap is
        // unavailable, so count what the CURRENT snapshot actually
        // got -- a nonzero fallback means published pages are NOT
        // fault-on-write protected despite the flag.
        std::uint64_t sealed_pages = 0;
        std::uint64_t heap_fallback = 0;
        if (const auto snap = store.current()) {
            for (const auto &t : snap->model.tables()) {
                if (!t.paged())
                    continue;
                for (const auto &pg : t.pages()) {
                    if (pg == nullptr)
                        continue;
                    if (pg->mmapped())
                        ++sealed_pages;
                    else
                        ++heap_fallback;
                }
            }
        }
        table.addRow({"sealed pages",
                      TablePrinter::num(
                          static_cast<double>(sealed_pages), 0)});
        table.addRow({"seal fallbacks (heap)",
                      TablePrinter::num(
                          static_cast<double>(heap_fallback), 0)});
        if (heap_fallback > 0)
            warn("--seal-pages: ", heap_fallback, " published pages "
                 "fell back to heap allocation and are NOT mprotect-"
                 "sealed (mmap unavailable?)");
    }
    if (args.getBool("csv", false))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    if (!dump_scores.empty()) {
        std::FILE *f = std::fopen(dump_scores.c_str(), "w");
        if (f == nullptr)
            fatal("cannot open ", dump_scores, " for writing");
        // %a is an exact binary representation: two dumps compare
        // bit-identical iff every served score did.
        for (const float s : report.scores)
            std::fprintf(f, "%a\n", static_cast<double>(s));
        std::fclose(f);
        inform("wrote ", report.scores.size(), " scores to ",
               dump_scores);
    }
    return 0;
}
