/**
 * @file
 * Unit tests of the fleet layer's building blocks: the virtual clock's
 * event ordering, the config validator, and the O(1)/O(k) fleet-scale
 * primitives (categoryAt, sparse sampling, strided shard plans) against
 * their dense references.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <unordered_set>
#include <vector>

#include "data/partition.h"
#include "data/synthetic.h"
#include "device/device_profile.h"
#include "fleet/client_store.h"
#include "fleet/fleet_config.h"
#include "fleet/virtual_clock.h"
#include "util/logging.h"
#include "util/rng.h"

namespace fedgpo {
namespace fleet {
namespace {

// --- Virtual clock. -----------------------------------------------------

TEST(VirtualClock, PopsInTimestampOrder)
{
    VirtualClock clock;
    clock.schedule(3.0, 7);
    clock.schedule(1.0, 9);
    clock.schedule(2.0, 1);
    ASSERT_EQ(clock.pending(), 3u);

    EXPECT_EQ(clock.pop().client_id, 9u);
    EXPECT_EQ(clock.pop().client_id, 1u);
    EXPECT_EQ(clock.pop().client_id, 7u);
    EXPECT_TRUE(clock.empty());
}

TEST(VirtualClock, TiesBreakByClientIdThenInsertionOrder)
{
    VirtualClock clock;
    // Same timestamp: lower client id wins regardless of insertion order.
    clock.schedule(5.0, 42);
    clock.schedule(5.0, 3);
    clock.schedule(5.0, 17);
    EXPECT_EQ(clock.pop().client_id, 3u);
    EXPECT_EQ(clock.pop().client_id, 17u);
    EXPECT_EQ(clock.pop().client_id, 42u);

    // Same (ts, client): insertion order (seq) is the final tie-break.
    clock.schedule(1.0, 8, FleetEvent::Kind::Completion);
    clock.schedule(1.0, 8, FleetEvent::Kind::Churn);
    EXPECT_EQ(clock.pop().kind, FleetEvent::Kind::Completion);
    EXPECT_EQ(clock.pop().kind, FleetEvent::Kind::Churn);
}

TEST(VirtualClock, AdvanceIsMonotonic)
{
    VirtualClock clock;
    EXPECT_EQ(clock.now(), 0.0);
    clock.advanceTo(10.0);
    EXPECT_EQ(clock.now(), 10.0);
    clock.advanceTo(4.0); // earlier timestamps never rewind the clock
    EXPECT_EQ(clock.now(), 10.0);
    clock.advanceTo(12.5);
    EXPECT_EQ(clock.now(), 12.5);
}

TEST(VirtualClock, PropertyPopOrderIsSortedUnderDuplicateTimestamps)
{
    // Property: whatever the insertion order, the pop sequence is
    // exactly the scheduled events sorted by (ts, client_id, seq).
    // Timestamps are drawn from a tiny set so nearly every event
    // collides with another, exercising both tie-break levels.
    util::Rng rng(0xC10Cu);
    const double kTimestamps[] = {0.0, 1.0, 1.0, 2.5, 2.5, 7.0};
    struct Scheduled
    {
        double ts;
        std::size_t client;
        std::uint64_t seq;
    };
    VirtualClock clock;
    std::vector<Scheduled> expected;
    for (std::uint64_t seq = 0; seq < 500; ++seq) {
        const double ts = kTimestamps[rng.index(6)];
        const auto client = rng.index(8); // few clients -> full ties too
        clock.schedule(ts, client);
        expected.push_back({ts, client, seq}); // seq = insertion order
    }
    std::stable_sort(expected.begin(), expected.end(),
                     [](const Scheduled &a, const Scheduled &b) {
                         if (a.ts != b.ts)
                             return a.ts < b.ts;
                         if (a.client != b.client)
                             return a.client < b.client;
                         return a.seq < b.seq;
                     });
    for (const Scheduled &want : expected) {
        ASSERT_FALSE(clock.empty());
        const FleetEvent got = clock.pop();
        EXPECT_EQ(got.ts, want.ts);
        EXPECT_EQ(got.client_id, want.client);
        EXPECT_EQ(got.seq, want.seq);
    }
    EXPECT_TRUE(clock.empty());

    // Determinism: replaying the identical schedule yields the
    // identical pop sequence.
    VirtualClock a, b;
    util::Rng ra(123), rb(123);
    for (int i = 0; i < 200; ++i) {
        a.schedule(kTimestamps[ra.index(6)], ra.index(8));
        b.schedule(kTimestamps[rb.index(6)], rb.index(8));
    }
    while (!a.empty()) {
        ASSERT_FALSE(b.empty());
        const FleetEvent ea = a.pop(), eb = b.pop();
        EXPECT_EQ(ea.ts, eb.ts);
        EXPECT_EQ(ea.client_id, eb.client_id);
        EXPECT_EQ(ea.seq, eb.seq);
    }
    EXPECT_TRUE(b.empty());
}

TEST(VirtualClock, FuzzScheduleAdvanceCancelAgainstModel)
{
    // Random op mix checked against a naive reference model: a vector
    // of queued events popped by a linear min-scan. Any divergence in
    // pop order, pending count, or clock monotonicity fails the test.
    struct Model
    {
        double ts;
        std::size_t client;
        std::uint64_t seq;
    };
    util::Rng rng(0xF022u);
    VirtualClock clock;
    std::vector<Model> live;
    std::uint64_t scheduled = 0; // the next event's seq
    double max_advanced = 0.0;
    for (int op = 0; op < 4000; ++op) {
        const auto roll = rng.index(10);
        if (roll < 5) { // schedule, duplicate-heavy timestamps
            const double ts = static_cast<double>(rng.index(50)) * 0.5;
            const auto client = rng.index(12);
            clock.schedule(ts, client);
            live.push_back({ts, client, scheduled++});
        } else if (roll < 7) { // advance (sometimes backwards: no-op)
            const double ts = static_cast<double>(rng.index(60)) * 0.4;
            clock.advanceTo(ts);
            max_advanced = std::max(max_advanced, ts);
            EXPECT_EQ(clock.now(), max_advanced);
        } else { // pop and compare against the model's minimum
            EXPECT_EQ(clock.pending(), live.size());
            EXPECT_EQ(clock.empty(), live.empty());
            if (live.empty())
                continue;
            const auto min_it = std::min_element(
                live.begin(), live.end(),
                [](const Model &a, const Model &b) {
                    if (a.ts != b.ts)
                        return a.ts < b.ts;
                    if (a.client != b.client)
                        return a.client < b.client;
                    return a.seq < b.seq;
                });
            const FleetEvent got = clock.pop();
            EXPECT_EQ(got.ts, min_it->ts);
            EXPECT_EQ(got.client_id, min_it->client);
            EXPECT_EQ(got.seq, min_it->seq);
            live.erase(min_it);
        }
    }
    // Drain what's left; order must stay sorted and counts in sync.
    while (!live.empty()) {
        EXPECT_EQ(clock.pending(), live.size());
        const auto min_it = std::min_element(
            live.begin(), live.end(), [](const Model &a, const Model &b) {
                if (a.ts != b.ts)
                    return a.ts < b.ts;
                if (a.client != b.client)
                    return a.client < b.client;
                return a.seq < b.seq;
            });
        const FleetEvent got = clock.pop();
        EXPECT_EQ(got.seq, min_it->seq);
        live.erase(min_it);
    }
    EXPECT_TRUE(clock.empty());
}

// --- Config validation. -------------------------------------------------

TEST(FleetConfigValidation, FatalOnZeroFleet)
{
    FleetConfig config;
    EXPECT_THROW(validateFleetConfig(config, 0), util::FatalError);
}

TEST(FleetConfigValidation, LeavesValidConfigAlone)
{
    FleetConfig config;
    config.lru_cap = 7;
    config.eager = true;
    EXPECT_NO_THROW(validateFleetConfig(config, 10));
    EXPECT_EQ(config.lru_cap, 7u);
    EXPECT_TRUE(config.eager);
}

// --- Sparse sampling vs the dense reference. ----------------------------

/** The dense partial Fisher-Yates the sparse version must replicate. */
std::vector<std::size_t>
densePartialFisherYates(std::size_t n, std::size_t pool, util::Rng &rng)
{
    std::vector<std::size_t> all(pool);
    std::iota(all.begin(), all.end(), 0);
    for (std::size_t i = 0; i < n; ++i)
        std::swap(all[i], all[i + rng.index(pool - i)]);
    all.resize(n);
    return all;
}

TEST(SparseSampling, BitIdenticalToDenseReference)
{
    for (std::uint64_t seed : {1ull, 17ull, 424242ull}) {
        util::Rng sparse_rng(seed);
        util::Rng dense_rng(seed);
        const auto sparse = sparse_rng.sampleWithoutReplacement(25, 1000);
        const auto dense = densePartialFisherYates(25, 1000, dense_rng);
        EXPECT_EQ(sparse, dense);
        // Both consumed the same number of draws.
        EXPECT_EQ(sparse_rng.next(), dense_rng.next());
    }
}

TEST(SparseSampling, DistinctAndInRange)
{
    util::Rng rng(7);
    const auto sample = rng.sampleWithoutReplacement(100, 100000);
    std::unordered_set<std::size_t> seen(sample.begin(), sample.end());
    EXPECT_EQ(seen.size(), 100u);
    for (std::size_t v : sample)
        EXPECT_LT(v, 100000u);
}

// --- O(1) tiering vs the dense census. ----------------------------------

TEST(CategoryAt, MatchesFleetCompositionEverywhere)
{
    for (std::size_t n : {1u, 2u, 3u, 7u, 10u, 40u, 199u, 200u, 1001u}) {
        const auto dense = device::fleetComposition(n);
        ASSERT_EQ(dense.size(), n);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(device::categoryAt(i, n), dense[i])
                << "i=" << i << " n=" << n;
        const auto bounds = device::tierBoundaries(n);
        EXPECT_EQ(bounds.front(), 0u);
        EXPECT_EQ(bounds.back(), n);
    }
}

// --- Strided shard plan vs the dense partition. -------------------------

TEST(ShardPlan, StridedMatchesIidPartition)
{
    util::Rng data_rng(3);
    data::Dataset set = data::makeSyntheticMnist(97, data_rng);
    const std::size_t fleet = 9;

    util::Rng dense_rng(31);
    const auto partition = data::iidPartition(set, fleet, dense_rng);

    util::Rng lazy_rng(31);
    const auto order = data::iidAssignmentOrder(set.size(), lazy_rng);
    const auto plan = ShardPlan::strided(fleet, order);

    ASSERT_EQ(partition.size(), fleet);
    for (std::size_t d = 0; d < fleet; ++d) {
        EXPECT_EQ(plan.shardOf(d), partition[d]) << "device " << d;
        EXPECT_EQ(plan.shardSize(d), partition[d].size());
    }
    // Both consumed identical draws from the stream.
    EXPECT_EQ(dense_rng.next(), lazy_rng.next());
}

TEST(ShardPlan, CsrRoundTripsExplicitPartition)
{
    const std::vector<std::vector<std::size_t>> partition = {
        {4, 1, 7}, {}, {0, 2}, {9}};
    const auto plan = ShardPlan::csr(partition);
    for (std::size_t d = 0; d < partition.size(); ++d) {
        EXPECT_EQ(plan.shardOf(d), partition[d]);
        EXPECT_EQ(plan.shardSize(d), partition[d].size());
    }
}

} // namespace
} // namespace fleet
} // namespace fedgpo
