/**
 * @file
 * Unit tests for the Chrome-trace recorder: disabled-mode cost
 * surface (no events), span/instant recording across threads, and the
 * serialized JSON's structural properties (every span an "X" complete
 * event -- balanced by construction, no stray "B"/"E").
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.h"

namespace lazydp {
namespace {

std::string
readAll(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::size_t
countOccurrences(const std::string &hay, const std::string &needle)
{
    std::size_t n = 0;
    for (std::size_t pos = hay.find(needle);
         pos != std::string::npos;
         pos = hay.find(needle, pos + needle.size()))
        ++n;
    return n;
}

class TraceTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        obs::traceStop();
        obs::traceResetForTest();
    }
    void TearDown() override
    {
        obs::traceStop();
        obs::traceResetForTest();
    }
};

TEST_F(TraceTest, DisabledRecordsNothing)
{
    ASSERT_FALSE(obs::traceEnabled());
    {
        LAZYDP_TRACE_SPAN(obs::TraceCat::Trainer, "off_span");
        obs::traceInstant(obs::TraceCat::Serve, "off_instant");
    }
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(TraceTest, SpansAndInstantsAreCounted)
{
    obs::traceStart();
    {
        LAZYDP_TRACE_SPAN1(obs::TraceCat::Trainer, "step", "iter", 3);
        LAZYDP_TRACE_SPAN2(obs::TraceCat::Serve, "batch", "batch", 8,
                           "version", 2);
    }
    obs::traceInstant(obs::TraceCat::Serve, "shed",
                      {"queue_depth", 32});
    obs::traceStop();
    EXPECT_EQ(obs::traceEventCount(), 3u);
    // A span constructed after stop is disarmed: no event.
    {
        LAZYDP_TRACE_SPAN(obs::TraceCat::Trainer, "late");
    }
    EXPECT_EQ(obs::traceEventCount(), 3u);
}

TEST_F(TraceTest, MultiThreadJsonIsStructurallySound)
{
    obs::traceStart();
    obs::traceSetThreadName("main");
    constexpr std::size_t kThreads = 4;
    constexpr std::size_t kSpansPerThread = 16;
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t)
        threads.emplace_back([] {
            obs::traceSetThreadName("worker");
            for (std::size_t i = 0; i < kSpansPerThread; ++i) {
                LAZYDP_TRACE_SPAN1(obs::TraceCat::Tier, "warm", "rows",
                                   i);
            }
            obs::traceInstant(obs::TraceCat::Serve, "enqueue",
                              {"prio", 1});
        });
    for (auto &th : threads)
        th.join();
    {
        LAZYDP_TRACE_SPAN(obs::TraceCat::Trainer, "apply");
    }
    obs::traceStop();

    const std::string path =
        ::testing::TempDir() + "lazydp_trace_test.json";
    ASSERT_TRUE(obs::traceWriteJson(path));
    const std::string json = readAll(path);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // Spans are complete events only: balanced by construction.
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"X\""),
              kThreads * kSpansPerThread + 1);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"B\""), 0u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"E\""), 0u);
    EXPECT_EQ(countOccurrences(json, "\"ph\":\"i\""), kThreads);
    // Categories + thread-name metadata made it through.
    EXPECT_NE(json.find("\"cat\":\"tier\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"trainer\""), std::string::npos);
    EXPECT_NE(json.find("\"cat\":\"serve\""), std::string::npos);
    EXPECT_NE(json.find("thread_name"), std::string::npos);
    EXPECT_NE(json.find("\"main\""), std::string::npos);
    // Args serialize under their literal keys.
    EXPECT_NE(json.find("\"rows\""), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(TraceTest, ResetDropsBufferedEvents)
{
    obs::traceStart();
    obs::traceInstant(obs::TraceCat::Sampler, "scrape");
    EXPECT_EQ(obs::traceEventCount(), 1u);
    obs::traceResetForTest();
    EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(TraceTest, SetArgFillsBothSlots)
{
    obs::traceStart();
    {
        obs::TraceSpan span(obs::TraceCat::Trainer, "publish");
        span.setArg("iter", 9);
        span.setArg("rows_copied", 123);
    }
    obs::traceStop();
    const std::string path =
        ::testing::TempDir() + "lazydp_trace_args.json";
    ASSERT_TRUE(obs::traceWriteJson(path));
    const std::string json = readAll(path);
    EXPECT_NE(json.find("\"iter\""), std::string::npos);
    EXPECT_NE(json.find("\"rows_copied\""), std::string::npos);
    std::remove(path.c_str());
}

} // namespace
} // namespace lazydp
