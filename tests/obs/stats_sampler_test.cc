/**
 * @file
 * Unit tests for the StatsSampler: hand-driven scrapes, JSONL line
 * accounting and scraped values, the threaded cadence, and the
 * stop()-always-scrapes guarantee the CI stats smoke gates on.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

#include "obs/metrics.h"
#include "obs/stats_sampler.h"

namespace lazydp {
namespace {

std::size_t
countLines(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            ++n;
    return n;
}

class StatsSamplerTest : public ::testing::Test
{
  protected:
    void SetUp() override { obs::setMetricsEnabled(true); }
    void TearDown() override { obs::setMetricsEnabled(false); }
};

TEST_F(StatsSamplerTest, ManualScrapesAppendOneLineEach)
{
    const std::string path =
        ::testing::TempDir() + "lazydp_sampler_manual.jsonl";
    std::remove(path.c_str());
    const obs::MetricId id = obs::internMetric(
        "test.sampler.manual", obs::MetricKind::Counter);
    // Counters are cumulative and process-global: read the base so a
    // repeated run (--gtest_repeat) sees the same deltas.
    const std::uint64_t base =
        obs::scrapeMetrics().counter("test.sampler.manual");
    {
        obs::SamplerOptions opts;
        opts.outPath = path;
        opts.startThread = false;
        obs::StatsSampler sampler(opts);
        obs::counterAdd(id, 5);
        sampler.sampleOnce();
        obs::counterAdd(id, 3);
        sampler.sampleOnce();
        EXPECT_EQ(sampler.scrapes(), 2u);
        sampler.stop(); // final scrape + flush
        EXPECT_EQ(sampler.scrapes(), 3u);
    }
    EXPECT_EQ(countLines(path), 3u);

    // Every line is one object carrying the scrape index and the
    // counter map (the validator tool parses it fully; here we check
    // the shape the schema promises) with the value the registry held
    // at that scrape.
    const std::uint64_t expected[] = {base + 5, base + 8, base + 8};
    const std::string key = "\"test.sampler.manual\":";
    std::ifstream in(path);
    std::string line;
    std::size_t scrape = 0;
    while (std::getline(in, line)) {
        EXPECT_EQ(line.front(), '{');
        EXPECT_EQ(line.back(), '}');
        EXPECT_NE(line.find("\"scrape\":"), std::string::npos);
        EXPECT_NE(line.find("\"counters\":"), std::string::npos);
        const std::size_t at = line.find(key);
        ASSERT_NE(at, std::string::npos);
        ASSERT_LT(scrape, 3u);
        EXPECT_EQ(std::stoull(line.substr(at + key.size())),
                  expected[scrape])
            << "scrape " << scrape + 1;
        ++scrape;
    }
    EXPECT_EQ(scrape, 3u);
    std::remove(path.c_str());
}

TEST_F(StatsSamplerTest, ThreadedCadenceScrapesRepeatedly)
{
    obs::SamplerOptions opts;
    opts.intervalUs = 1000;
    obs::StatsSampler sampler(opts);
    // Generous deadline (CI hosts stall): poll until >= 3 scrapes.
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (sampler.scrapes() < 3 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    sampler.stop();
    EXPECT_GE(sampler.scrapes(), 3u);
}

TEST_F(StatsSamplerTest, StopAlwaysTakesAFinalScrape)
{
    const std::string path =
        ::testing::TempDir() + "lazydp_sampler_final.jsonl";
    std::remove(path.c_str());
    {
        obs::SamplerOptions opts;
        // One-hour interval: the thread never fires on its own; the
        // line in the file can only come from stop()'s final scrape.
        opts.intervalUs = 3600ull * 1000 * 1000;
        opts.outPath = path;
        obs::StatsSampler sampler(opts);
        sampler.stop();
        EXPECT_GE(sampler.scrapes(), 1u);
    }
    EXPECT_GE(countLines(path), 1u);
    std::remove(path.c_str());
}

TEST_F(StatsSamplerTest, StopIsIdempotent)
{
    obs::SamplerOptions opts;
    opts.startThread = false;
    obs::StatsSampler sampler(opts);
    sampler.stop();
    const std::uint64_t after = sampler.scrapes();
    sampler.stop();
    EXPECT_EQ(sampler.scrapes(), after);
}

} // namespace
} // namespace lazydp
