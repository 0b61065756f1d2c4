/**
 * @file Regression tests for the replica-lane reservation guard:
 * replica dispatch must never place a worker on the out-of-core warm
 * lane (ThreadPool::kTierPrefetchLane) or the serve lanes
 * (kServeLaneBase..) -- a colliding replica would serialize behind
 * cold-page warming or contend with the scoring workers.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.h"
#include "train/replica.h"

namespace lazydp {
namespace {

TEST(ReplicaLaneTest, ValidReplicaLanesStayBelowTheReservedRange)
{
    // Every replica a supported count (max 4) can dispatch: r = 1..3.
    for (std::size_t r = 1; r <= kLotShards - 1; ++r) {
        const std::size_t lane = replicaLane(r);
        EXPECT_EQ(lane, kReplicaLaneBase + r - 1);
        EXPECT_LT(lane, ThreadPool::kTierPrefetchLane);
        EXPECT_LT(lane, ThreadPool::kServeLaneBase);
    }
}

TEST(ReplicaLaneTest, CollidingReplicaFailsLoudly)
{
    setLogThrowMode(true);
    // r = 7 maps to lane 7 = kTierPrefetchLane: the warm-task
    // collision the guard exists for. r = 8 would land on the first
    // serve lane.
    EXPECT_THROW(replicaLane(7), std::runtime_error);
    EXPECT_THROW(replicaLane(8), std::runtime_error);
    EXPECT_THROW(replicaLane(31), std::runtime_error);
    setLogThrowMode(false);
}

TEST(ReplicaLaneTest, ReplicaZeroIsNotALaneReplica)
{
    setLogThrowMode(true);
    EXPECT_THROW(replicaLane(0), std::runtime_error);
    setLogThrowMode(false);
}

} // namespace
} // namespace lazydp
