/**
 * @file
 * Lot-sharded data-parallel execution: fixed microbatch decomposition,
 * replica dispatch, and the deterministic tree reduction.
 *
 * The paper's observation is that DP-SGD makes every lot an
 * all-table-touching update, so scaling recommendation training means
 * scaling the LOT. This layer splits one lot into kLotShards
 * position-stable microbatch shards; N worker replicas (replica 0 = the
 * calling thread, replicas 1..N-1 = dedicated pool lanes) each run
 * forward/backward + per-example clipping on a contiguous group of
 * shards, and a FIXED-shape tree reduction merges the per-shard clipped
 * gradients before the single keyed-noise add and model update.
 *
 * Determinism contract (extends common/thread_pool.h):
 *
 *  - Shard boundaries derive from the lot size and kLotShards only --
 *    never from the replica or thread count. The replica count merely
 *    selects WHICH lane executes each shard.
 *  - The reduction tree has a fixed shape over the kLotShards partials:
 *    (q0 + q1) + (q2 + q3). Every replica count computes this exact
 *    association, so the merged gradient -- and therefore the trained
 *    model -- is bit-identical for replicas 1, 2 and 4, at any thread
 *    count, pipeline on or off.
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

/**
 * Fixed number of microbatch shards per lot. A power of two so every
 * supported replica count (its divisors: 1, 2, 4) owns a whole subtree
 * of the reduction.
 */
constexpr std::size_t kLotShards = 4;

/** First ThreadPool lane used by replica dispatch (lane 0 belongs to
 *  the Trainer's pipelined prepare stage). */
constexpr std::size_t kReplicaLaneBase = 1;

// Replica dispatch must stay strictly below the reserved lanes: the
// out-of-core warm task owns kTierPrefetchLane (7) and serving claims
// kServeLaneBase (8) upward. A replica landing there would serialize
// behind cold-page warming or contend with scoring workers. The
// static check ties the replica lane range to the lane map so a future
// kLotShards bump cannot re-open the hole.
static_assert(kReplicaLaneBase + kLotShards - 2 <
                  ThreadPool::kTierPrefetchLane,
              "replica lanes overlap the tier-prefetch/serve lane "
              "reservation -- shrink kLotShards or move the bases");

/** @return true when @p n replicas evenly own kLotShards subtrees. */
constexpr bool
validReplicas(std::size_t n)
{
    return n == 1 || n == 2 || n == 4;
}

/**
 * The dedicated pool lane replica @p r (>= 1; replica 0 is the calling
 * thread) runs on. Fails loudly (fatal) if the lane would collide with
 * a reserved lane -- the guard every dispatch and Trainer setup goes
 * through, so an out-of-range replica count can never silently land on
 * the warm or serve lanes.
 */
std::size_t replicaLane(std::size_t r);

/** Boundaries of microbatch shard @p shard of a @p batch -example lot
 *  (balanced split; depends on the lot size and kLotShards only). */
inline std::pair<std::size_t, std::size_t>
lotShardBounds(std::size_t batch, std::size_t shard)
{
    return shardBounds(batch, kLotShards, shard);
}

/**
 * Execute body(shard, shard_exec) exactly once for every shard in
 * [0, kLotShards), fanned across exec.replicas worker replicas.
 * Replica r owns the contiguous shard range
 * [r * kLotShards/N, (r+1) * kLotShards/N), processed in order.
 * Replica 0 runs on the calling thread with the full @p exec (its
 * kernels may use the pool's loop workers -- they are exec-invariant);
 * replicas 1..N-1 run on dedicated pool lanes with a serial context
 * (lane threads flatten nested dispatch anyway).
 *
 * With replicas == 1 or no pool, all shards run inline on the caller --
 * the same dataflow, hence the same bits.
 *
 * Exceptions from any replica are rethrown on the caller after all
 * lanes drained (lane order decides which one surfaces first).
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
