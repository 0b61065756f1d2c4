/**
 * @file
 * Lot-sharded data-parallel execution: fixed microbatch decomposition,
 * shard dispatch, and the deterministic tree reduction.
 *
 * The paper's observation is that DP-SGD makes every lot an
 * all-table-touching update, so scaling recommendation training means
 * scaling the LOT. This layer splits one lot into kLotShards
 * position-stable microbatch shards; each shard runs forward/backward +
 * per-example clipping, on the pool's own workers when the pool is
 * wider than one thread, and a FIXED-shape tree reduction merges the
 * per-shard clipped gradients before the single keyed-noise add and
 * model update.
 *
 * Determinism contract (extends common/thread_pool.h):
 *
 *  - Shard boundaries derive from the lot size and kLotShards only --
 *    never from the thread count. The pool width merely selects WHICH
 *    thread executes each shard.
 *  - The reduction tree has a fixed shape over the kLotShards partials:
 *    (q0 + q1) + (q2 + q3). Every width computes this exact
 *    association, so the merged gradient -- and therefore the trained
 *    model -- is bit-identical at any thread count, pipeline on or
 *    off.
 *  - Per-example quantities (forward rows, loss terms, ghost norms,
 *    clip factors) never cross a shard boundary, so sharding changes
 *    no per-example bits at all; only the cross-example float sums go
 *    through the tree.
 */

#ifndef LAZYDP_TRAIN_REPLICA_H
#define LAZYDP_TRAIN_REPLICA_H

#include <cstddef>
#include <functional>

#include "common/thread_pool.h"
#include "tensor/tensor.h"

namespace lazydp {

/** Fixed number of microbatch shards per lot (treeReduce4's arity). */
constexpr std::size_t kLotShards = 4;

/** Boundaries of microbatch shard @p shard of a @p batch -example lot
 *  (balanced split; depends on the lot size and kLotShards only). */
inline std::pair<std::size_t, std::size_t>
lotShardBounds(std::size_t batch, std::size_t shard)
{
    return shardBounds(batch, kLotShards, shard);
}

/**
 * Execute body(shard, shard_exec) exactly once for every shard in
 * [0, kLotShards).
 *
 * On a pool wider than one thread the shards go through
 * ThreadPool::run, one task per shard, each with the serial context:
 * the shards themselves are the parallelism, and the pool flattens
 * nested dispatch anyway. With no pool or a width-1 pool, the shards
 * run inline on the caller in shard order with the full @p exec. Both
 * schedules run the same dataflow, hence the same bits.
 *
 * If a shard throws, unclaimed shards are abandoned, every running
 * shard finishes, and the first exception is rethrown on the caller.
 */
void runReplicated(
    ExecContext &exec,
    const std::function<void(std::size_t, ExecContext &)> &body);

/**
 * Deterministic fixed-tree elementwise reduction of the kLotShards
 * per-shard partials: out[i] = (q0[i] + q1[i]) + (q2[i] + q3[i]).
 * Each element is independent, so the loop parallelizes over @p exec
 * without changing a single bit. All four inputs must match @p out 's
 * shape.
 */
void treeReduce4(const Tensor &q0, const Tensor &q1, const Tensor &q2,
                 const Tensor &q3, Tensor &out, ExecContext &exec);

/** Scalar fixed-tree reduction: (a + b) + (c + d). */
inline double
treeReduce4(double a, double b, double c, double d)
{
    return (a + b) + (c + d);
}

} // namespace lazydp

#endif // LAZYDP_TRAIN_REPLICA_H
