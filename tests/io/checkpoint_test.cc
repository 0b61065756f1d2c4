/**
 * @file Checkpoint tests, including the resume-equivalence property:
 * a LazyDP run checkpointed and resumed must produce exactly the same
 * model as an uninterrupted run (keyed noise + persisted HistoryTable).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <string>

#include "common/thread_pool.h"
#include "data/synthetic_dataset.h"
#include "io/checkpoint.h"
#include "train/trainer.h"

namespace lazydp {
namespace {

class CheckpointTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "lazydp_ckpt_" +
                std::to_string(::getpid()) + ".bin";
    }

    void TearDown() override { std::remove(path_.c_str()); }

    static ModelConfig
    modelConfig()
    {
        auto mc = ModelConfig::tiny();
        mc.rowsPerTable = 64;
        return mc;
    }

    static DatasetConfig
    dataConfig()
    {
        const auto mc = modelConfig();
        DatasetConfig dc;
        dc.numDense = mc.numDense;
        dc.numTables = mc.numTables;
        dc.rowsPerTable = mc.rowsPerTable;
        dc.pooling = mc.pooling;
        dc.batchSize = 8;
        dc.seed = 77;
        return dc;
    }

    static TrainHyper
    hyper()
    {
        TrainHyper h;
        h.noiseSeed = 0xC4C4;
        return h;
    }

    std::string path_;
};

TEST_F(CheckpointTest, ModelWeightsRoundTrip)
{
    DlrmModel a(modelConfig(), 3);
    io::saveModel(path_, a);
    DlrmModel b(modelConfig(), 99); // different init
    io::loadModel(path_, b);

    for (std::size_t t = 0; t < a.tables().size(); ++t) {
        const Tensor &wa = a.tables()[t].weights();
        const Tensor &wb = b.tables()[t].weights();
        for (std::size_t i = 0; i < wa.size(); ++i)
            EXPECT_EQ(wa.data()[i], wb.data()[i]);
    }
    const Tensor &la = a.topMlp().layers()[0].weight();
    const Tensor &lb = b.topMlp().layers()[0].weight();
    for (std::size_t i = 0; i < la.size(); ++i)
        EXPECT_EQ(la.data()[i], lb.data()[i]);
}

TEST_F(CheckpointTest, ShapeMismatchIsRejected)
{
    setLogThrowMode(true);
    DlrmModel a(modelConfig(), 3);
    io::saveModel(path_, a);
    auto other = modelConfig();
    other.rowsPerTable = 128;
    DlrmModel b(other, 3);
    EXPECT_THROW(io::loadModel(path_, b), std::runtime_error);
    setLogThrowMode(false);
}

TEST_F(CheckpointTest, WrongMagicIsRejected)
{
    setLogThrowMode(true);
    DlrmModel a(modelConfig(), 3);
    LazyDpAlgorithm lazy(a, hyper(), true);
    io::saveTraining(path_, a, lazy, 1);
    DlrmModel b(modelConfig(), 3);
    // loading a training checkpoint as a model checkpoint must fail
    EXPECT_THROW(io::loadModel(path_, b), std::runtime_error);
    setLogThrowMode(false);
}

TEST_F(CheckpointTest, ResumedRunEqualsUninterruptedRun)
{
    const std::uint64_t total_iters = 12;
    const std::uint64_t split = 5;

    // Reference: straight-through run.
    DlrmModel ref_model(modelConfig(), 3);
    {
        SyntheticDataset ds(dataConfig());
        SequentialLoader loader(ds);
        LazyDpAlgorithm lazy(ref_model, hyper(), /*use_ans=*/false);
        Trainer(lazy, loader).run(total_iters);
    }

    // Interrupted run: train `split` iterations (no finalize!), save,
    // reload into fresh objects, continue, finalize at the end.
    DlrmModel part_model(modelConfig(), 3);
    {
        SyntheticDataset ds(dataConfig());
        SequentialLoader loader(ds);
        LazyDpAlgorithm lazy(part_model, hyper(), false);
        StageTimer timer;
        InputQueue q;
        q.push(loader.next());
        for (std::uint64_t it = 1; it <= split; ++it) {
            q.push(loader.next());
            lazy.step(it, q.head(), &q.tail(), ExecContext::serial(),
                      timer);
            q.pop();
        }
        io::saveTraining(path_, part_model, lazy, split + 1);
        // q.head() now holds the batch for iteration split+1; the
        // resumed loader regenerates it deterministically.
    }

    DlrmModel resumed_model(modelConfig(), 3);
    {
        LazyDpAlgorithm lazy(resumed_model, hyper(), false);
        const io::ResumeInfo info =
            io::loadTraining(path_, resumed_model, lazy);
        ASSERT_EQ(info.nextIter, split + 1);

        SyntheticDataset ds(dataConfig());
        StageTimer timer;
        InputQueue q;
        q.push(ds.batch(info.nextIter - 1));
        for (std::uint64_t it = info.nextIter; it <= total_iters; ++it) {
            const bool has_next = it < total_iters;
            if (has_next)
                q.push(ds.batch(it));
            lazy.step(it, q.head(), has_next ? &q.tail() : nullptr,
                      ExecContext::serial(), timer);
            q.pop();
        }
        lazy.finalize(total_iters, ExecContext::serial(), timer);
    }

    for (std::size_t t = 0; t < ref_model.tables().size(); ++t) {
        const Tensor &wr = ref_model.tables()[t].weights();
        const Tensor &ws = resumed_model.tables()[t].weights();
        for (std::size_t i = 0; i < wr.size(); ++i)
            EXPECT_NEAR(wr.data()[i], ws.data()[i], 1e-6)
                << "table " << t << " elem " << i;
    }
}

/**
 * The hardened resume property: checkpoint at iteration k under the
 * PIPELINED schedule at every thread width (inline lot shards at 1,
 * shards on the pool's workers above), resume, train to n --
 * bit-identical to an uninterrupted n-iteration run. Before
 * this test, checkpoint coverage never exercised the pipelined path;
 * keyed noise + the persisted HistoryTable make the equality exact, so
 * memcmp, not tolerance.
 */
TEST_F(CheckpointTest, PipelinedResumeIsBitIdenticalAtEveryWidth)
{
    const std::uint64_t total_iters = 12;
    const std::uint64_t split = 5;

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        TrainOptions schedule;
        schedule.pipeline = true;

        // Reference: straight-through pipelined run.
        DlrmModel ref_model(modelConfig(), 3);
        {
            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            LazyDpAlgorithm lazy(ref_model, hyper(), /*use_ans=*/true);
            Trainer(lazy, loader, &exec).run(total_iters, schedule);
        }

        // Interrupted run: `split` iterations WITHOUT finalize (the pending
        // noise must stay pending across the checkpoint), save, reload into
        // fresh objects, continue from startIter = split, finalize once.
        DlrmModel part_model(modelConfig(), 3);
        {
            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            LazyDpAlgorithm lazy(part_model, hyper(), true);
            TrainOptions first_leg = schedule;
            first_leg.runFinalize = false;
            // The uninterrupted run's iteration `split` sees batch split+1
            // as lookahead (and renews its HistoryTable rows); the
            // interrupted leg must too, or the deferred-noise keys diverge.
            first_leg.previewFinal = true;
            Trainer(lazy, loader, &exec).run(split, first_leg);
            io::saveTraining(path_, part_model, lazy, split + 1);
        }

        DlrmModel resumed_model(modelConfig(), 3);
        {
            LazyDpAlgorithm lazy(resumed_model, hyper(), true);
            const io::ResumeInfo info =
                io::loadTraining(path_, resumed_model, lazy);
            ASSERT_EQ(info.nextIter, split + 1);

            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            // The deterministic loader regenerates the first `split`
            // batches the interrupted run consumed; skip them.
            for (std::uint64_t i = 0; i < split; ++i)
                loader.next();
            TrainOptions second_leg = schedule;
            second_leg.startIter = split;
            Trainer(lazy, loader, &exec)
                .run(total_iters - split, second_leg);
        }

        for (std::size_t t = 0; t < ref_model.tables().size(); ++t) {
            const Tensor &wr = ref_model.tables()[t].weights();
            const Tensor &ws = resumed_model.tables()[t].weights();
            ASSERT_EQ(wr.size(), ws.size());
            EXPECT_EQ(std::memcmp(wr.data(), ws.data(),
                                  wr.size() * sizeof(float)),
                      0)
                << "table " << t;
        }
        auto check_mlp = [&](const Mlp &ma, const Mlp &mb) {
            for (std::size_t l = 0; l < ma.layers().size(); ++l) {
                EXPECT_EQ(std::memcmp(ma.layers()[l].weight().data(),
                                      mb.layers()[l].weight().data(),
                                      ma.layers()[l].weight().size() *
                                          sizeof(float)),
                          0)
                    << "mlp layer " << l;
            }
        };
        check_mlp(ref_model.bottomMlp(), resumed_model.bottomMlp());
        check_mlp(ref_model.topMlp(), resumed_model.topMlp());
    }
}

/** Same property for the ANS-free variant, serial schedule -- the
 *  other corner of the resume matrix. */
TEST_F(CheckpointTest, NoAnsResumeIsBitIdenticalAtEveryWidth)
{
    const std::uint64_t total_iters = 10;
    const std::uint64_t split = 4;

    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(std::to_string(threads) + " threads");
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        TrainOptions schedule;

        DlrmModel ref_model(modelConfig(), 3);
        {
            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            LazyDpAlgorithm lazy(ref_model, hyper(), /*use_ans=*/false);
            Trainer(lazy, loader, &exec).run(total_iters, schedule);
        }

        DlrmModel resumed_model(modelConfig(), 3);
        {
            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            LazyDpAlgorithm lazy(resumed_model, hyper(), false);
            TrainOptions first_leg = schedule;
            first_leg.runFinalize = false;
            first_leg.previewFinal = true; // lookahead parity at the split
            Trainer(lazy, loader, &exec).run(split, first_leg);
            io::saveTraining(path_, resumed_model, lazy, split + 1);
        }
        {
            LazyDpAlgorithm lazy(resumed_model, hyper(), false);
            io::loadTraining(path_, resumed_model, lazy);
            SyntheticDataset ds(dataConfig());
            SequentialLoader loader(ds);
            for (std::uint64_t i = 0; i < split; ++i)
                loader.next();
            TrainOptions second_leg = schedule;
            second_leg.startIter = split;
            Trainer(lazy, loader, &exec)
                .run(total_iters - split, second_leg);
        }

        for (std::size_t t = 0; t < ref_model.tables().size(); ++t) {
            const Tensor &wr = ref_model.tables()[t].weights();
            const Tensor &ws = resumed_model.tables()[t].weights();
            EXPECT_EQ(std::memcmp(wr.data(), ws.data(),
                                  wr.size() * sizeof(float)),
                      0)
                << "table " << t;
        }
    }
}

TEST_F(CheckpointTest, SeedMismatchOnResumeIsFatal)
{
    setLogThrowMode(true);
    DlrmModel a(modelConfig(), 3);
    LazyDpAlgorithm lazy_a(a, hyper(), true);
    io::saveTraining(path_, a, lazy_a, 4);

    DlrmModel b(modelConfig(), 3);
    TrainHyper other = hyper();
    other.noiseSeed = 0xBAD;
    LazyDpAlgorithm lazy_b(b, other, true);
    EXPECT_THROW(io::loadTraining(path_, b, lazy_b),
                 std::runtime_error);
    setLogThrowMode(false);
}

TEST_F(CheckpointTest, HistoryTableSurvivesRoundTrip)
{
    DlrmModel a(modelConfig(), 3);
    LazyDpAlgorithm lazy_a(a, hyper(), true);
    lazy_a.historyTableMutable().renew(0, 5, 17);
    lazy_a.historyTableMutable().renew(1, 2, 9);
    io::saveTraining(path_, a, lazy_a, 20);

    DlrmModel b(modelConfig(), 3);
    LazyDpAlgorithm lazy_b(b, hyper(), true);
    io::loadTraining(path_, b, lazy_b);
    EXPECT_EQ(lazy_b.historyTable().lastNoised(0, 5), 17u);
    EXPECT_EQ(lazy_b.historyTable().lastNoised(1, 2), 9u);
    EXPECT_EQ(lazy_b.historyTable().lastNoised(0, 0), 0u);
}

} // namespace
} // namespace lazydp
