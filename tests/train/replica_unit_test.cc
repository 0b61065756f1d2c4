/**
 * @file Unit tests of the lot-sharding primitives (train/replica.h):
 * position-stable shard bounds, the fixed-shape tree reduction, and the
 * shard dispatch itself.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "train/replica.h"

namespace lazydp {
namespace {

TEST(LotShardTest, BoundsPartitionTheLot)
{
    for (const std::size_t batch : {0u, 1u, 2u, 3u, 4u, 5u, 7u, 8u,
                                    1023u, 2048u}) {
        std::size_t covered = 0;
        std::size_t prev_hi = 0;
        for (std::size_t s = 0; s < kLotShards; ++s) {
            const auto [lo, hi] = lotShardBounds(batch, s);
            EXPECT_EQ(lo, prev_hi) << "batch " << batch << " shard " << s;
            EXPECT_LE(lo, hi);
            covered += hi - lo;
            prev_hi = hi;
        }
        EXPECT_EQ(prev_hi, batch);
        EXPECT_EQ(covered, batch);
    }
}

TEST(LotShardTest, BoundsDependOnLotSizeOnly)
{
    // The same (batch, shard) pair must give the same range no matter
    // how often or from where it is queried -- the position-stability
    // the bit-identity story rests on.
    const auto first = lotShardBounds(1000, 2);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(lotShardBounds(1000, 2), first);
}

TEST(TreeReduceTest, ComputesTheFixedAssociation)
{
    // Values chosen so float association matters: (a+b)+(c+d) differs
    // from a left-to-right fold in the last bit.
    Tensor q0(1, 4), q1(1, 4), q2(1, 4), q3(1, 4), out(1, 4);
    const float vals[4][4] = {
        {1e8f, 1.0f, -1e8f, 3.0f},
        {1.0f, 1e-8f, 1e8f, -3.0f},
        {-1e8f, 2.0f, 0.5f, 1e8f},
        {1e8f, -2.0f, -0.5f, -1e8f},
    };
    for (int q = 0; q < 4; ++q) {
        Tensor *t = q == 0 ? &q0 : q == 1 ? &q1 : q == 2 ? &q2 : &q3;
        for (int i = 0; i < 4; ++i)
            t->data()[i] = vals[q][i];
    }
    treeReduce4(q0, q1, q2, q3, out, ExecContext::serial());
    for (int i = 0; i < 4; ++i) {
        const float expected = (vals[0][i] + vals[1][i]) +
                               (vals[2][i] + vals[3][i]);
        EXPECT_EQ(out.data()[i], expected) << "elem " << i;
    }
}

TEST(TreeReduceTest, BitIdenticalAtAnyWidth)
{
    const std::size_t n = 1024;
    Tensor q0(4, n / 4), q1(4, n / 4), q2(4, n / 4), q3(4, n / 4);
    for (std::size_t i = 0; i < n; ++i) {
        q0.data()[i] = 1.0f / static_cast<float>(i + 1);
        q1.data()[i] = -1.0f / static_cast<float>(i + 2);
        q2.data()[i] = static_cast<float>(i) * 1e-3f;
        q3.data()[i] = -static_cast<float>(i) * 2e-3f;
    }
    Tensor serial(4, n / 4);
    treeReduce4(q0, q1, q2, q3, serial, ExecContext::serial());
    for (const std::size_t width : {2u, 3u, 8u}) {
        ThreadPool pool(width);
        ExecContext exec(&pool);
        Tensor parallel(4, n / 4);
        treeReduce4(q0, q1, q2, q3, parallel, exec);
        EXPECT_EQ(std::memcmp(serial.data(), parallel.data(),
                              n * sizeof(float)),
                  0)
            << "width " << width;
    }
}

TEST(RunReplicatedTest, EveryShardRunsExactlyOnce)
{
    for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
        ThreadPool pool(threads);
        ExecContext exec(&pool);
        std::mutex mu;
        std::multiset<std::size_t> seen;
        runReplicated(exec, [&](std::size_t s, ExecContext &) {
            std::lock_guard<std::mutex> lock(mu);
            seen.insert(s);
        });
        ASSERT_EQ(seen.size(), kLotShards) << threads << " threads";
        for (std::size_t s = 0; s < kLotShards; ++s)
            EXPECT_EQ(seen.count(s), 1u) << "shard " << s;
    }
}

TEST(RunReplicatedTest, PoollessOrWidthOneRunsInline)
{
    ThreadPool narrow(1);
    ExecContext width_one(&narrow);
    for (ExecContext *exec : {&ExecContext::serial(), &width_one}) {
        std::vector<std::size_t> order;
        runReplicated(*exec, [&](std::size_t s, ExecContext &rexec) {
            EXPECT_EQ(&rexec, exec); // inline: the caller's context
            order.push_back(s);
        });
        ASSERT_EQ(order.size(), kLotShards);
        for (std::size_t s = 0; s < kLotShards; ++s)
            EXPECT_EQ(order[s], s); // inline execution is in shard order
    }
}

TEST(RunReplicatedTest, WidePoolShardsGetSerialContexts)
{
    ThreadPool pool(2);
    ExecContext exec(&pool);
    std::atomic<std::size_t> serial_shards{0};
    runReplicated(exec, [&](std::size_t, ExecContext &rexec) {
        if (rexec.pool == nullptr)
            ++serial_shards;
    });
    EXPECT_EQ(serial_shards.load(), kLotShards);
}

TEST(RunReplicatedTest, ShardExceptionPropagatesAfterDrain)
{
    ThreadPool pool(2);
    ExecContext exec(&pool);
    std::atomic<int> started{0};
    std::atomic<int> finished{0};
    EXPECT_THROW(
        runReplicated(exec,
                      [&](std::size_t s, ExecContext &) {
                          ++started;
                          if (s == 0)
                              throw std::runtime_error("shard boom");
                          std::this_thread::sleep_for(
                              std::chrono::milliseconds(20));
                          ++finished;
                      }),
        std::runtime_error);
    // Every shard that started also finished before the rethrow: the
    // caller drained the workers -- nothing is left inside the closure.
    EXPECT_GE(started.load(), 1);
    EXPECT_EQ(finished.load(), started.load() - 1);
}

} // namespace
} // namespace lazydp
