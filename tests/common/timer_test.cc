/** @file Unit tests for WallTimer / StageTimer. */

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "common/logging.h"
#include "common/timer.h"
#include "obs/metrics.h"

namespace lazydp {
namespace {

TEST(WallTimerTest, MeasuresElapsedTime)
{
    WallTimer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double s = t.seconds();
    EXPECT_GE(s, 0.015);
    EXPECT_LT(s, 1.0);
}

TEST(WallTimerTest, ResetRestartsClock)
{
    WallTimer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    t.reset();
    EXPECT_LT(t.seconds(), 0.015);
}

TEST(WallTimerTest, NanosecondsConsistentWithSeconds)
{
    WallTimer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    const double s = t.seconds();
    const double ns = static_cast<double>(t.nanoseconds());
    EXPECT_NEAR(ns / 1e9, s, 0.05);
}

TEST(StageTimerTest, AccumulatesPerStage)
{
    StageTimer timer;
    timer.start(Stage::Forward);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    timer.stop();
    timer.start(Stage::NoiseSampling);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    timer.stop();

    EXPECT_GT(timer.seconds(Stage::Forward), 0.008);
    EXPECT_GT(timer.seconds(Stage::NoiseSampling), 0.003);
    EXPECT_DOUBLE_EQ(timer.seconds(Stage::Else), 0.0);
    EXPECT_NEAR(timer.totalSeconds(),
                timer.seconds(Stage::Forward) +
                    timer.seconds(Stage::NoiseSampling),
                1e-12);
}

TEST(StageTimerTest, AddInjectsModeledTime)
{
    StageTimer timer;
    timer.add(Stage::NoisyGradUpdate, 1.5);
    timer.add(Stage::NoisyGradUpdate, 0.5);
    EXPECT_DOUBLE_EQ(timer.seconds(Stage::NoisyGradUpdate), 2.0);
}

TEST(StageTimerTest, ResetClearsAll)
{
    StageTimer timer;
    timer.add(Stage::Forward, 1.0);
    timer.reset();
    EXPECT_DOUBLE_EQ(timer.totalSeconds(), 0.0);
}

TEST(StageTimerTest, MergeSumsBreakdowns)
{
    StageTimer a;
    StageTimer b;
    a.add(Stage::Forward, 1.0);
    b.add(Stage::Forward, 2.0);
    b.add(Stage::Else, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::Forward), 3.0);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::Else), 3.0);
}

TEST(StageTimerTest, MergeScalesTheOtherTimer)
{
    StageTimer a;
    StageTimer b;
    b.add(Stage::Forward, 2.0);
    b.add(Stage::Else, 6.0);
    a.merge(b, 0.25);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::Forward), 0.5);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::Else), 1.5);
}

TEST(StageTimerTest, LocalTimeReachesTheRegistryOnceAtMerge)
{
    obs::setMetricsEnabled(true);
    const auto counter = [] {
        return obs::scrapeMetrics().counter("train.stage.coalesce_ns");
    };
    StageTimer lot;
    StageTimer shard{StageTimer::Local{}};
    const std::uint64_t before = counter();
    shard.add(Stage::GradCoalesce, 2.0);
    EXPECT_EQ(counter(), before); // a Local timer does not mirror
    lot.merge(shard, 0.5);        // ...until a mirroring timer takes it
    EXPECT_EQ(counter(), before + 1000000000u);
    StageTimer outer;
    outer.merge(lot); // lot already mirrored: no second count
    EXPECT_EQ(counter(), before + 1000000000u);
    obs::setMetricsEnabled(false);
}

TEST(StageTimerTest, NestedStartPanics)
{
    setLogThrowMode(true);
    StageTimer timer;
    timer.start(Stage::Forward);
    EXPECT_THROW(timer.start(Stage::Else), std::runtime_error);
    setLogThrowMode(false);
}

TEST(StageTimerTest, StopWithoutStartPanics)
{
    setLogThrowMode(true);
    StageTimer timer;
    EXPECT_THROW(timer.stop(), std::runtime_error);
    setLogThrowMode(false);
}

TEST(StageTimerTest, BreakdownNamesAllStages)
{
    StageTimer timer;
    const auto breakdown = timer.breakdown();
    EXPECT_EQ(breakdown.size(),
              static_cast<std::size_t>(Stage::NumStages));
    EXPECT_TRUE(breakdown.count("Fwd"));
    EXPECT_TRUE(breakdown.count("Noise sampling"));
    EXPECT_TRUE(breakdown.count("Noisy gradient update"));
    EXPECT_TRUE(breakdown.count("LazyDP overhead"));
}

TEST(StageTimerTest, ScopedStageTimesRegion)
{
    StageTimer timer;
    {
        ScopedStage guard(timer, Stage::GradCoalesce);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(timer.seconds(Stage::GradCoalesce), 0.003);
}

} // namespace
} // namespace lazydp
