#include "common/thread_pool.h"

#include <algorithm>
#include <exception>

#include "common/macros.h"
#include "obs/trace.h"

namespace lazydp {

namespace {

/** Set while a thread executes inside ThreadPool::run (workers AND the
 *  dispatching caller), to flatten accidental nested dispatch. */
thread_local bool tls_in_pool = false;

/** Exception-safe scope for tls_in_pool. */
struct InPoolScope
{
    InPoolScope() { tls_in_pool = true; }
    ~InPoolScope() { tls_in_pool = false; }
};

/** Trace display name of lane @p lane (literals: the trace recorder
 *  keeps the pointer). The known reserved lanes get semantic names so
 *  a Perfetto timeline reads as the system's lane map. */
const char *
laneTraceName(std::size_t lane)
{
    switch (lane) {
      case ThreadPool::kPipelineLane: return "lane-pipeline";
      case 1: return "lane-replica-1";
      case 2: return "lane-replica-2";
      case 3: return "lane-replica-3";
      case ThreadPool::kTierPrefetchLane: return "lane-tier-warm";
      case ThreadPool::kServeLaneBase + 0: return "serve-0";
      case ThreadPool::kServeLaneBase + 1: return "serve-1";
      case ThreadPool::kServeLaneBase + 2: return "serve-2";
      case ThreadPool::kServeLaneBase + 3: return "serve-3";
      case ThreadPool::kServeLaneBase + 4: return "serve-4";
      case ThreadPool::kServeLaneBase + 5: return "serve-5";
      case ThreadPool::kServeLaneBase + 6: return "serve-6";
      case ThreadPool::kServeLaneBase + 7: return "serve-7";
      default: break;
    }
    return "lane";
}

/** Trace display name of loop worker @p i. */
const char *
workerTraceName(std::size_t i)
{
    static const char *const names[] = {
        "worker-0", "worker-1", "worker-2",  "worker-3",
        "worker-4", "worker-5", "worker-6",  "worker-7",
        "worker-8", "worker-9", "worker-10", "worker-11",
    };
    constexpr std::size_t n = sizeof(names) / sizeof(names[0]);
    return i < n ? names[i] : "worker";
}

} // namespace

std::size_t
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n == 0 ? 1 : static_cast<std::size_t>(n);
}

ThreadPool::ThreadPool(std::size_t threads)
{
    const std::size_t n = threads == 0 ? 1 : threads;
    workers_.reserve(n - 1);
    for (std::size_t i = 0; i + 1 < n; ++i)
        workers_.emplace_back([this, i] {
            obs::traceSetThreadName(workerTraceName(i));
            workerLoop();
        });
}

struct ThreadPool::Lane
{
    std::thread worker;
    std::mutex mu;
    std::condition_variable wake;
    std::deque<std::shared_ptr<TaskHandle::State>> queue;
    bool stop = false;
};

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &w : workers_)
        w.join();

    // No further submits can race this: lanes_ only grows from
    // submitLane, and the pool's owner is destroying it.
    for (auto &lane : lanes_) {
        if (lane == nullptr)
            continue;
        {
            std::lock_guard<std::mutex> lock(lane->mu);
            lane->stop = true;
        }
        lane->wake.notify_all();
        if (lane->worker.joinable())
            lane->worker.join();
    }
}

void
TaskHandle::wait()
{
    std::unique_lock<std::mutex> lock(state_->mu);
    state_->cv.wait(lock, [&] { return state_->done; });
    if (state_->error != nullptr)
        std::rethrow_exception(state_->error);
}

TaskHandle
ThreadPool::submit(std::function<void()> fn)
{
    return submitLane(0, std::move(fn));
}

TaskHandle
ThreadPool::submitLane(std::size_t lane_id, std::function<void()> fn)
{
    LAZYDP_ASSERT(lane_id < kMaxLanes, "lane id out of range");
    auto state = std::make_shared<TaskHandle::State>();
    state->fn = std::move(fn);
    Lane *lane;
    {
        std::lock_guard<std::mutex> lock(lanesMu_);
        if (lanes_.size() <= lane_id)
            lanes_.resize(lane_id + 1);
        if (lanes_[lane_id] == nullptr) {
            lanes_[lane_id] = std::make_unique<Lane>();
            Lane *fresh = lanes_[lane_id].get();
            fresh->worker = std::thread([this, fresh, lane_id] {
                obs::traceSetThreadName(laneTraceName(lane_id));
                laneLoop(*fresh);
            });
        }
        lane = lanes_[lane_id].get();
    }
    {
        std::lock_guard<std::mutex> lock(lane->mu);
        lane->queue.push_back(state);
    }
    lane->wake.notify_one();
    return TaskHandle(std::move(state));
}

void
ThreadPool::laneLoop(Lane &lane)
{
    for (;;) {
        std::shared_ptr<TaskHandle::State> task;
        {
            std::unique_lock<std::mutex> lock(lane.mu);
            lane.wake.wait(lock, [&] {
                return lane.stop || !lane.queue.empty();
            });
            // Drain the whole queue before honoring stop: destruction
            // must not abandon submitted tasks (a wait() on one would
            // block forever).
            if (lane.queue.empty())
                return;
            task = std::move(lane.queue.front());
            lane.queue.pop_front();
        }
        try {
            // Flatten any pool dispatch issued from inside the task:
            // the loop workers belong to the main thread's compute.
            InPoolScope scope;
            task->fn();
        } catch (...) {
            task->error = std::current_exception();
        }
        task->fn = nullptr; // release captures before signaling
        {
            std::lock_guard<std::mutex> lock(task->mu);
            task->done = true;
        }
        task->cv.notify_all();
    }
}

void
ThreadPool::workerLoop()
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *task = nullptr;
        std::size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return stop_ || generation_ != seen;
            });
            if (stop_)
                return;
            seen = generation_;
            task = task_;
            count = taskCount_;
        }
        try {
            InPoolScope scope;
            for (;;) {
                const std::size_t i =
                    cursor_.fetch_add(1, std::memory_order_relaxed);
                if (i >= count)
                    break;
                (*task)(i);
            }
        } catch (...) {
            // Abandon unclaimed tasks and surface the first throw to
            // the dispatching caller.
            cursor_.store(count, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(mu_);
            if (error_ == nullptr)
                error_ = std::current_exception();
        }
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--pending_ == 0)
                done_.notify_one();
        }
    }
}

void
ThreadPool::run(std::size_t num_tasks,
                const std::function<void(std::size_t)> &task)
{
    if (num_tasks == 0)
        return;
    // Serial fallbacks: a width-1 pool, a single task, or dispatch from
    // inside a running task (nested parallelism is flattened).
    if (workers_.empty() || num_tasks == 1 || tls_in_pool) {
        for (std::size_t i = 0; i < num_tasks; ++i)
            task(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(mu_);
        task_ = &task;
        taskCount_ = num_tasks;
        cursor_.store(0, std::memory_order_relaxed);
        pending_ = workers_.size();
        error_ = nullptr;
        ++generation_;
    }
    wake_.notify_all();

    // The caller is a full participant. A throw here must NOT unwind
    // past the drain below: workers may still be inside the closure
    // whose captures live in the caller's dying stack frame.
    try {
        InPoolScope scope;
        for (;;) {
            const std::size_t i =
                cursor_.fetch_add(1, std::memory_order_relaxed);
            if (i >= num_tasks)
                break;
            task(i);
        }
    } catch (...) {
        cursor_.store(num_tasks, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(mu_);
        if (error_ == nullptr)
            error_ = std::current_exception();
    }

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(mu_);
        done_.wait(lock, [&] { return pending_ == 0; });
        task_ = nullptr;
        error = error_;
        error_ = nullptr;
    }
    if (error != nullptr)
        std::rethrow_exception(error);
}

ExecContext &
ExecContext::serial()
{
    static ExecContext ctx;
    return ctx;
}

void
parallelFor(ExecContext &exec, std::size_t n,
            const std::function<void(std::size_t, std::size_t)> &body)
{
    if (n == 0)
        return;
    if (exec.threads() <= 1 || exec.pool == nullptr) {
        body(0, n);
        return;
    }
    const std::size_t chunks =
        std::min(n, exec.threads() * kParallelForChunksPerThread);
    exec.pool->run(chunks, [&](std::size_t chunk) {
        const auto [lo, hi] = shardBounds(n, chunks, chunk);
        body(lo, hi);
    });
}

void
parallelForShards(
    ExecContext &exec, std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>
        &body)
{
    const std::size_t shards = shardCount(n, grain);
    if (shards == 0)
        return;
    if (shards == 1 || exec.threads() <= 1 || exec.pool == nullptr) {
        for (std::size_t s = 0; s < shards; ++s) {
            const auto [lo, hi] = grainBounds(n, grain, s);
            body(s, lo, hi);
        }
        return;
    }
    exec.pool->run(shards, [&](std::size_t s) {
        const auto [lo, hi] = grainBounds(n, grain, s);
        body(s, lo, hi);
    });
}

} // namespace lazydp
