/**
 * @file
 * The repository-wide parallel execution layer.
 *
 * One threading model for every hot path: a persistent pool of worker
 * threads plus two loop primitives over fixed partitions. No work
 * stealing, no nested parallelism -- the paper's kernels (dense noise
 * sweeps, streaming table updates, sparse LazyDP updates, DLRM GEMMs)
 * are all embarrassingly parallel over rows or blocks, so a fixed
 * partition, its chunks claimed through one atomic cursor, is both fast
 * and deterministic.
 *
 * Determinism contract: parallelForShards computes shard boundaries
 * from the iteration count and grain ONLY -- never from the thread
 * count -- and every index is processed exactly once by exactly one
 * shard. A loop whose shards write disjoint locations (or accumulate
 * into per-shard slots merged in shard order afterwards) therefore
 * produces bit-identical results at any thread count, which is what
 * keeps the keyed-noise equivalence guarantee (LazyDP == eager DP-SGD
 * on the final model) intact under `--threads N`.
 *
 * parallelFor splits [0, n) into a few contiguous chunks per thread,
 * claimed dynamically, so a thread that shares its core with another
 * runnable thread does not hold the whole loop back; use it when each
 * index owns its outputs outright (per-example loops, per-row GEMM
 * loops). Use parallelForShards when downstream code depends on the
 * partition geometry (per-shard reductions).
 */

#ifndef LAZYDP_COMMON_THREAD_POOL_H
#define LAZYDP_COMMON_THREAD_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace lazydp {

/** @return the host's hardware thread count (>= 1). */
std::size_t hardwareThreads();

/**
 * Waitable handle to a task submitted with ThreadPool::submit.
 *
 * wait() blocks until the task has finished and rethrows the task's
 * exception (if any); it may be called more than once. A
 * default-constructed handle is invalid and must not be waited on.
 */
class TaskHandle
{
  public:
    TaskHandle() = default;

    /** @return true when this handle refers to a submitted task. */
    bool valid() const { return state_ != nullptr; }

    /** Block until the task completes; rethrows its exception. */
    void wait();

    /** Shared completion state (public for the pool's internals). */
    struct State
    {
        std::function<void()> fn;
        std::mutex mu;
        std::condition_variable cv;
        bool done = false;
        std::exception_ptr error;
    };

  private:
    friend class ThreadPool;
    explicit TaskHandle(std::shared_ptr<State> state)
        : state_(std::move(state))
    {
    }

    std::shared_ptr<State> state_;
};

/**
 * Fixed-size pool of persistent worker threads.
 *
 * The calling thread participates in every dispatch, so a pool built
 * with `threads == n` runs loop bodies on n OS threads total (n-1
 * workers + caller). Construction with threads <= 1 spawns nothing and
 * run() degenerates to a serial loop.
 */
class ThreadPool
{
  public:
    /** @param threads total execution width (workers + caller). */
    explicit ThreadPool(std::size_t threads);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** @return total execution width (>= 1). */
    std::size_t threads() const { return workers_.size() + 1; }

    /**
     * Execute task(i) for every i in [0, num_tasks) across the pool;
     * returns once all tasks have finished. Tasks are claimed through
     * an atomic cursor, so completion ORDER is unspecified -- callers
     * must make tasks write disjoint outputs.
     *
     * Re-entrant dispatch from inside a task body runs serially on the
     * calling worker (nested parallelism is deliberately flattened).
     *
     * If a task throws, remaining unclaimed tasks are abandoned, the
     * dispatch drains (no thread is left inside the closure), and the
     * first exception is rethrown to the caller.
     */
    void run(std::size_t num_tasks,
             const std::function<void(std::size_t)> &task);

    /**
     * Enqueue @p fn on asynchronous lane 0 and return immediately --
     * shorthand for submitLane(0, fn). Lane 0 is the software-pipeline
     * primitive the Trainer uses to overlap next-iteration noise
     * preparation and batch prefetch with the current iteration's dense
     * compute.
     */
    TaskHandle submit(std::function<void()> fn);

    /** Maximum number of asynchronous lanes. */
    static constexpr std::size_t kMaxLanes = 32;

    // Repository-wide lane allocation. Lanes are dedicated FIFO
    // threads, so subsystems that must overlap get distinct lanes:
    //  - kPipelineLane: the Trainer's software pipeline (next-iteration
    //    prepare + batch prefetch overlapping dense compute).
    //  - kTierPrefetchLane: the out-of-core warm task (tiered_store.h)
    //    read-touching next-iteration cold pages into the page cache.
    //  - kServeLaneBase..: online-serving scoring workers
    //    (serve/serve_engine.h claims lanes upward from here).
    static constexpr std::size_t kPipelineLane = 0;
    static constexpr std::size_t kTierPrefetchLane = 1;
    static constexpr std::size_t kServeLaneBase = 2;

    /**
     * Enqueue @p fn on asynchronous lane @p lane (< kMaxLanes) and
     * return immediately. Each lane is ONE dedicated thread (spawned
     * lazily on first use, independent of the loop-dispatch width, so
     * lanes work even on a width-1 pool): tasks on the same lane
     * execute in submission order, one at a time; distinct lanes run
     * concurrently with each other and with the caller. Lane 0 carries
     * the Trainer's pipelined prepare stage.
     *
     * Tasks run with nested-dispatch flattening active: any
     * parallelFor / ThreadPool::run issued from inside a submitted task
     * degenerates to a serial loop instead of racing the main thread's
     * own dispatches for the loop workers.
     *
     * The destructor drains every lane: tasks already submitted all run
     * to completion before the pool dies. Exceptions are captured and
     * rethrown from TaskHandle::wait.
     */
    TaskHandle submitLane(std::size_t lane, std::function<void()> fn);

  private:
    struct Lane;

    void workerLoop();
    void laneLoop(Lane &lane);

    std::vector<std::thread> workers_;
    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    const std::function<void(std::size_t)> *task_ = nullptr;
    std::size_t taskCount_ = 0;
    std::atomic<std::size_t> cursor_{0};
    std::size_t pending_ = 0;    //!< workers still inside the dispatch
    std::uint64_t generation_ = 0;
    bool stop_ = false;
    std::exception_ptr error_;   //!< first throw of the dispatch

    // Asynchronous FIFO lanes (ThreadPool::submit / submitLane). Lanes
    // are created lazily; the vector only grows, under lanesMu_.
    std::mutex lanesMu_;
    std::vector<std::unique_ptr<Lane>> lanes_;
};

/**
 * Execution context threaded through Algorithm::step/finalize and every
 * parallel kernel beneath them. A null pool means serial execution --
 * the context is then just "one thread" and costs nothing to consult.
 */
struct ExecContext
{
    ExecContext() = default;
    explicit ExecContext(ThreadPool *p) : pool(p) {}

    ThreadPool *pool = nullptr; //!< not owned; nullptr = serial

    /** @return execution width this context dispatches onto. */
    std::size_t
    threads() const
    {
        return pool == nullptr ? 1 : pool->threads();
    }

    /** @return the shared serial (single-thread) context. */
    static ExecContext &serial();
};

/** Chunks per thread of a parallelFor (see parallelFor). */
constexpr std::size_t kParallelForChunksPerThread = 4;

/** Out-of-line dispatch behind parallelFor. */
void parallelForDispatch(
    ExecContext &exec, std::size_t n,
    const std::function<void(std::size_t, std::size_t)> &body);

/**
 * Run body(lo, hi) over a partition of [0, n) into
 * min(n, kParallelForChunksPerThread * threads) balanced contiguous
 * chunks, each non-empty and claimed by whichever thread is free next.
 * Every index lands in exactly one chunk; a serial context runs one
 * body(0, n) call. Chunk boundaries depend on the thread count, so use
 * this only when each index's outputs are independent of the partition
 * (disjoint writes; any per-index arithmetic stays within the index).
 *
 * The body travels by reference, which fits std::function's local
 * buffer: a call never allocates, whatever the closure captures.
 */
template <typename Body>
void
parallelFor(ExecContext &exec, std::size_t n, Body &&body)
{
    parallelForDispatch(exec, n, std::ref(body));
}

/** @return number of fixed shards for @p n items at @p grain. */
inline std::size_t
shardCount(std::size_t n, std::size_t grain)
{
    if (n == 0)
        return 0;
    const std::size_t g = grain == 0 ? 1 : grain;
    return (n + g - 1) / g;
}

/**
 * Boundaries of chunk @p chunk in a balanced split of [0, n) into
 * @p num_chunks parts: the first n % num_chunks chunks get one extra
 * element. Used by parallelFor to cut its chunks.
 */
inline std::pair<std::size_t, std::size_t>
shardBounds(std::size_t n, std::size_t num_chunks, std::size_t chunk)
{
    const std::size_t base = n / num_chunks;
    const std::size_t rem = n % num_chunks;
    const std::size_t lo =
        chunk * base + (chunk < rem ? chunk : rem);
    const std::size_t hi = lo + base + (chunk < rem ? 1 : 0);
    return {lo, hi};
}

/**
 * Boundaries of shard @p shard at fixed @p grain: exactly
 * [shard*grain, min(n, (shard+1)*grain)). Depends only on (n, grain,
 * shard) -- NOT on the thread count -- which is what makes sharded
 * loops deterministic: grain-aligned starts also keep SIMD kernels
 * that process fixed-size sample groups (e.g. the 8-block AVX2
 * Box-Muller path) on the same group boundaries the serial sweep uses.
 */
inline std::pair<std::size_t, std::size_t>
grainBounds(std::size_t n, std::size_t grain, std::size_t shard)
{
    const std::size_t g = grain == 0 ? 1 : grain;
    const std::size_t lo = shard * g;
    const std::size_t hi = lo + g < n ? lo + g : n;
    return {lo, hi};
}

/**
 * Run body(shard, lo, hi) for every shard of [0, n) with boundaries
 * fixed by (n, grain) alone (see grainBounds). Shards execute
 * concurrently in unspecified order; per-shard results indexed by
 * `shard` can be merged in shard order afterwards for a deterministic
 * reduction. The serial fallback iterates the SAME shards in order, so
 * results never depend on the execution width.
 *
 * @param grain shard size (the last shard may be shorter)
 */
void parallelForShards(
    ExecContext &exec, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body);

} // namespace lazydp

#endif // LAZYDP_COMMON_THREAD_POOL_H
