/**
 * @file Thread pool + ExecContext: shard boundary math, loop coverage
 * at several widths, determinism of sharded reductions, and the
 * nested-dispatch flattening guarantee.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/thread_pool.h"

namespace lazydp {
namespace {

TEST(ShardMathTest, ShardCount)
{
    EXPECT_EQ(shardCount(0, 16), 0u);
    EXPECT_EQ(shardCount(1, 16), 1u);
    EXPECT_EQ(shardCount(16, 16), 1u);
    EXPECT_EQ(shardCount(17, 16), 2u);
    EXPECT_EQ(shardCount(32, 16), 2u);
    EXPECT_EQ(shardCount(33, 16), 3u);
    // grain 0 is treated as 1
    EXPECT_EQ(shardCount(5, 0), 5u);
}

TEST(ShardMathTest, GrainBoundsCoverDisjointly)
{
    for (const std::size_t n : {1u, 7u, 16u, 17u, 100u, 1000u}) {
        for (const std::size_t grain : {1u, 3u, 16u, 64u, 2048u}) {
            const std::size_t shards = shardCount(n, grain);
            std::size_t expected_lo = 0;
            for (std::size_t s = 0; s < shards; ++s) {
                const auto [lo, hi] = grainBounds(n, grain, s);
                EXPECT_EQ(lo, expected_lo) << n << "/" << grain;
                EXPECT_GT(hi, lo);
                EXPECT_LE(hi - lo, grain);
                // grain alignment: every shard but the last is exactly
                // `grain` long and starts at a multiple of it
                EXPECT_EQ(lo % grain, 0u);
                if (s + 1 < shards)
                    EXPECT_EQ(hi - lo, grain);
                expected_lo = hi;
            }
            EXPECT_EQ(expected_lo, n);
        }
    }
}

TEST(ShardMathTest, BalancedChunkBoundsCoverDisjointly)
{
    for (const std::size_t n : {1u, 7u, 16u, 100u}) {
        for (const std::size_t chunks : {1u, 2u, 3u, 7u, 16u}) {
            if (chunks > n)
                continue;
            std::size_t expected_lo = 0;
            for (std::size_t c = 0; c < chunks; ++c) {
                const auto [lo, hi] = shardBounds(n, chunks, c);
                EXPECT_EQ(lo, expected_lo);
                // balanced: sizes differ by at most one
                EXPECT_GE(hi - lo, n / chunks);
                EXPECT_LE(hi - lo, n / chunks + 1);
                expected_lo = hi;
            }
            EXPECT_EQ(expected_lo, n);
        }
    }
}

TEST(ThreadPoolTest, WidthOneRunsSerially)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threads(), 1u);
    std::vector<int> hits(10, 0);
    pool.run(10, [&](std::size_t i) { ++hits[i]; });
    for (const int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(ThreadPoolTest, EveryTaskRunsExactlyOnce)
{
    for (const std::size_t width : {2u, 4u, 8u}) {
        ThreadPool pool(width);
        EXPECT_EQ(pool.threads(), width);
        std::vector<std::atomic<int>> hits(997);
        pool.run(hits.size(), [&](std::size_t i) {
            hits[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (const auto &h : hits)
            EXPECT_EQ(h.load(), 1);
    }
}

TEST(ThreadPoolTest, ReusableAcrossManyDispatches)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> total{0};
    for (int round = 0; round < 100; ++round) {
        pool.run(17, [&](std::size_t) {
            total.fetch_add(1, std::memory_order_relaxed);
        });
    }
    EXPECT_EQ(total.load(), 1700u);
}

TEST(ThreadPoolTest, NestedDispatchFlattensInsteadOfDeadlocking)
{
    ThreadPool pool(4);
    std::atomic<std::size_t> inner{0};
    pool.run(8, [&](std::size_t) {
        // dispatch from inside a task: must run inline, not hang
        pool.run(3, [&](std::size_t) {
            inner.fetch_add(1, std::memory_order_relaxed);
        });
    });
    EXPECT_EQ(inner.load(), 24u);
}

TEST(ThreadPoolTest, TaskExceptionDrainsAndRethrows)
{
    ThreadPool pool(4);
    for (int round = 0; round < 20; ++round) {
        EXPECT_THROW(pool.run(64,
                              [&](std::size_t i) {
                                  if (i == 13)
                                      throw std::runtime_error("boom");
                              }),
                     std::runtime_error);
        // The pool must stay usable (no stuck workers, no leaked
        // in-pool flag degrading later dispatches to serial).
        std::atomic<std::size_t> done{0};
        pool.run(32, [&](std::size_t) {
            done.fetch_add(1, std::memory_order_relaxed);
        });
        EXPECT_EQ(done.load(), 32u);
    }
}

TEST(SubmitTest, TaskRunsAndWaitJoins)
{
    ThreadPool pool(4);
    std::atomic<int> ran{0};
    TaskHandle h = pool.submit([&] { ran.store(1); });
    ASSERT_TRUE(h.valid());
    h.wait();
    EXPECT_EQ(ran.load(), 1);
    // wait() is idempotent
    h.wait();
}

TEST(SubmitTest, DefaultHandleIsInvalid)
{
    TaskHandle h;
    EXPECT_FALSE(h.valid());
}

TEST(SubmitTest, WorksOnWidthOnePool)
{
    // The async lane is independent of the loop-dispatch width: even a
    // width-1 pool can overlap a submitted task with the caller.
    ThreadPool pool(1);
    std::atomic<int> ran{0};
    TaskHandle h = pool.submit([&] { ran.store(7); });
    h.wait();
    EXPECT_EQ(ran.load(), 7);
}

TEST(SubmitTest, TasksExecuteInSubmissionOrder)
{
    ThreadPool pool(2);
    std::vector<int> order;
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 50; ++i)
        handles.push_back(pool.submit([&order, i] {
            order.push_back(i); // single async lane: no race
        }));
    for (auto &h : handles)
        h.wait();
    ASSERT_EQ(order.size(), 50u);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(SubmitTest, ExceptionRethrownFromWait)
{
    ThreadPool pool(2);
    TaskHandle h =
        pool.submit([] { throw std::runtime_error("async boom"); });
    EXPECT_THROW(h.wait(), std::runtime_error);
    // The lane must stay usable after a throwing task.
    std::atomic<int> ran{0};
    TaskHandle ok = pool.submit([&] { ran.store(1); });
    ok.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(SubmitTest, OverlapsWithMainThreadDispatch)
{
    // The pipeline pattern: a submitted task runs while the caller
    // drives parallelFor dispatches on the same pool.
    ThreadPool pool(4);
    ExecContext exec(&pool);
    std::atomic<int> async_done{0};
    TaskHandle h = pool.submit([&] { async_done.store(1); });
    std::atomic<std::size_t> sum{0};
    for (int round = 0; round < 10; ++round) {
        parallelFor(exec, 100, [&](std::size_t lo, std::size_t hi) {
            sum.fetch_add(hi - lo, std::memory_order_relaxed);
        });
    }
    h.wait();
    EXPECT_EQ(sum.load(), 1000u);
    EXPECT_EQ(async_done.load(), 1);
}

TEST(SubmitTest, NestedPoolDispatchFromTaskFlattens)
{
    // A submitted task that (accidentally) dispatches onto the pool
    // must degenerate to a serial loop instead of racing the main
    // thread's dispatch machinery.
    ThreadPool pool(4);
    ExecContext exec(&pool);
    std::atomic<std::size_t> inner{0};
    TaskHandle h = pool.submit([&] {
        parallelFor(exec, 64, [&](std::size_t lo, std::size_t hi) {
            inner.fetch_add(hi - lo, std::memory_order_relaxed);
        });
    });
    h.wait();
    EXPECT_EQ(inner.load(), 64u);
}

TEST(SubmitTest, DestructorDrainsQueuedTasks)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 20; ++i)
            pool.submit([&] { ran.fetch_add(1); });
        // no wait: destruction must still run every queued task
    }
    EXPECT_EQ(ran.load(), 20);
}

TEST(ParallelForTest, SerialContextAndPoolAgree)
{
    const std::size_t n = 1234;
    std::vector<int> serial_out(n, 0);
    parallelFor(ExecContext::serial(), n,
                [&](std::size_t lo, std::size_t hi) {
                    for (std::size_t i = lo; i < hi; ++i)
                        serial_out[i] = static_cast<int>(i * 3);
                });

    for (const std::size_t width : {2u, 5u, 8u}) {
        ThreadPool pool(width);
        ExecContext exec(&pool);
        std::vector<int> out(n, 0);
        parallelFor(exec, n, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                out[i] = static_cast<int>(i * 3);
        });
        EXPECT_EQ(out, serial_out) << "width " << width;
    }
}

TEST(ParallelForTest, ChunksCoverEveryIndexExactlyOnce)
{
    for (const std::size_t width : {2u, 3u, 4u}) {
        ThreadPool pool(width);
        ExecContext exec(&pool);
        const std::size_t per = kParallelForChunksPerThread * width;
        for (const std::size_t n :
             {std::size_t{0}, std::size_t{1}, width, per - 1, per, per + 1,
              std::size_t{100003}}) {
            std::vector<std::atomic<int>> visits(n);
            std::atomic<std::size_t> calls{0};
            std::atomic<bool> empty_chunk{false};
            parallelFor(exec, n, [&](std::size_t lo, std::size_t hi) {
                if (lo >= hi)
                    empty_chunk = true;
                calls.fetch_add(1);
                for (std::size_t i = lo; i < hi; ++i)
                    visits[i].fetch_add(1);
            });
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(visits[i].load(), 1)
                    << "index " << i << " at n=" << n << " width=" << width;
            EXPECT_FALSE(empty_chunk.load()) << "n=" << n;
            // A few chunks per thread, never more chunks than indices.
            EXPECT_EQ(calls.load(), std::min(n, per)) << "n=" << n;
        }
    }
}

TEST(ParallelForTest, EmptyRangeNeverInvokesBody)
{
    ThreadPool pool(4);
    ExecContext exec(&pool);
    bool called = false;
    parallelFor(exec, 0, [&](std::size_t, std::size_t) { called = true; });
    parallelForShards(exec, 0, 16,
                      [&](std::size_t, std::size_t, std::size_t) {
                          called = true;
                      });
    EXPECT_FALSE(called);
}

TEST(ParallelForShardsTest, ShardIdsMatchBoundsAtAnyWidth)
{
    const std::size_t n = 530;
    const std::size_t grain = 64;
    for (const std::size_t width : {1u, 2u, 8u}) {
        ThreadPool pool(width);
        ExecContext exec(&pool);
        const std::size_t shards = shardCount(n, grain);
        std::vector<std::pair<std::size_t, std::size_t>> seen(
            shards, {~0ull, ~0ull});
        parallelForShards(exec, n, grain,
                          [&](std::size_t s, std::size_t lo,
                              std::size_t hi) { seen[s] = {lo, hi}; });
        for (std::size_t s = 0; s < shards; ++s)
            EXPECT_EQ(seen[s], grainBounds(n, grain, s))
                << "width " << width;
    }
}

TEST(ParallelForShardsTest, OrderedMergeIsDeterministicAcrossWidths)
{
    // Per-shard float accumulation + ordered merge: the canonical
    // pattern callers use for deterministic reductions.
    const std::size_t n = 10007;
    std::vector<float> data(n);
    for (std::size_t i = 0; i < n; ++i)
        data[i] = 0.001f * static_cast<float>(i % 97) - 0.03f;

    auto reduce = [&](ExecContext &exec) {
        const std::size_t shards = shardCount(n, 128);
        std::vector<double> partial(shards, 0.0);
        parallelForShards(exec, n, 128,
                          [&](std::size_t s, std::size_t lo,
                              std::size_t hi) {
                              double acc = 0.0;
                              for (std::size_t i = lo; i < hi; ++i)
                                  acc += data[i];
                              partial[s] = acc;
                          });
        double total = 0.0;
        for (const double p : partial)
            total += p;
        return total;
    };

    const double serial = reduce(ExecContext::serial());
    for (const std::size_t width : {2u, 3u, 8u}) {
        ThreadPool pool(width);
        ExecContext exec(&pool);
        // bit-for-bit: same shard boundaries, same merge order
        EXPECT_EQ(reduce(exec), serial) << "width " << width;
    }
}

TEST(ExecContextTest, SerialContextReportsOneThread)
{
    EXPECT_EQ(ExecContext::serial().threads(), 1u);
    EXPECT_EQ(ExecContext::serial().pool, nullptr);
    ThreadPool pool(6);
    ExecContext exec(&pool);
    EXPECT_EQ(exec.threads(), 6u);
}

TEST(SubmitLaneTest, LanesPreserveSubmissionOrderWithinALane)
{
    ThreadPool pool(1);
    std::vector<int> order;
    std::mutex mu;
    std::vector<TaskHandle> handles;
    for (int i = 0; i < 8; ++i) {
        handles.push_back(pool.submitLane(3, [i, &order, &mu] {
            std::lock_guard<std::mutex> lock(mu);
            order.push_back(i);
        }));
    }
    for (auto &h : handles)
        h.wait();
    ASSERT_EQ(order.size(), 8u);
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(SubmitLaneTest, DistinctLanesRunConcurrently)
{
    // Lane A blocks until lane B has run: only possible when the lanes
    // are distinct threads.
    ThreadPool pool(1);
    std::atomic<bool> b_ran{false};
    TaskHandle a = pool.submitLane(1, [&] {
        while (!b_ran.load())
            std::this_thread::yield();
    });
    TaskHandle b = pool.submitLane(2, [&] { b_ran.store(true); });
    b.wait();
    a.wait();
    EXPECT_TRUE(b_ran.load());
}

TEST(SubmitLaneTest, SubmitIsLaneZero)
{
    // submit() and submitLane(0, ...) share one FIFO thread.
    ThreadPool pool(2);
    std::vector<int> order;
    std::mutex mu;
    TaskHandle a = pool.submit([&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(0);
    });
    TaskHandle b = pool.submitLane(0, [&] {
        std::lock_guard<std::mutex> lock(mu);
        order.push_back(1);
    });
    a.wait();
    b.wait();
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0);
    EXPECT_EQ(order[1], 1);
}

TEST(SubmitLaneTest, LaneExceptionRethrownFromWait)
{
    ThreadPool pool(1);
    TaskHandle h = pool.submitLane(
        5, [] { throw std::runtime_error("lane boom"); });
    EXPECT_THROW(h.wait(), std::runtime_error);
}

TEST(SubmitLaneTest, DestructorDrainsEveryLane)
{
    std::atomic<int> ran{0};
    {
        ThreadPool pool(1);
        for (std::size_t lane = 0; lane < 6; ++lane) {
            for (int i = 0; i < 4; ++i)
                pool.submitLane(lane, [&ran] { ++ran; });
        }
        // pool destructor must complete all 24 tasks
    }
    EXPECT_EQ(ran.load(), 24);
}

TEST(SubmitLaneTest, NestedDispatchFromLaneFlattens)
{
    ThreadPool pool(4);
    ExecContext exec(&pool);
    std::atomic<bool> ok{false};
    TaskHandle h = pool.submitLane(2, [&] {
        // parallelFor from a lane thread must degenerate to a serial
        // loop (the loop workers belong to the main thread's compute).
        std::vector<int> hits(100, 0);
        parallelFor(exec, 100, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t i = lo; i < hi; ++i)
                ++hits[i];
        });
        ok.store(std::count(hits.begin(), hits.end(), 1) == 100);
    });
    h.wait();
    EXPECT_TRUE(ok.load());
}

} // namespace
} // namespace lazydp
