// Mergeable accumulators: SimStats / LatencyStats shard merging must be
// exact — the campaign runner's determinism contract (runner/runner.hpp)
// rests on merge-of-shards equaling the single stream.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/stats.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {
namespace {

TEST(LatencyStatsMerge, ShardsEqualSingleStreamExactly) {
  util::Xoshiro256 rng(2026);
  std::vector<std::uint64_t> samples(5000);
  for (auto& s : samples) s = rng.below(100000);

  LatencyStats single;
  for (auto s : samples) single.record(s);

  // Shard boundaries chosen unevenly on purpose (including an empty shard).
  const std::size_t cuts[] = {0, 1, 1, 1700, 4999, 5000};
  LatencyStats merged;
  for (std::size_t c = 0; c + 1 < std::size(cuts); ++c) {
    LatencyStats shard;
    for (std::size_t i = cuts[c]; i < cuts[c + 1]; ++i) shard.record(samples[i]);
    merged.merge(shard);
  }

  EXPECT_EQ(merged.count(), single.count());
  EXPECT_EQ(merged.max(), single.max());
  // Mean: shards concatenated in stream order reproduce the identical
  // left-to-right double sum, so equality is exact, not approximate.
  EXPECT_EQ(merged.mean(), single.mean());
  // Percentiles: nth_element selects from the value multiset, which
  // concatenation preserves exactly.
  for (double pct : {0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0}) {
    EXPECT_EQ(merged.percentile(pct), single.percentile(pct)) << "pct=" << pct;
  }
}

TEST(LatencyStatsMerge, MergeIntoEmptyAndFromEmpty) {
  LatencyStats a, b, empty;
  a.record(7);
  a.merge(empty);
  EXPECT_EQ(a.count(), 1u);
  EXPECT_EQ(a.max(), 7u);
  b.merge(a);
  EXPECT_EQ(b.count(), 1u);
  EXPECT_EQ(b.percentile(50), 7u);
}

SimStats make_stats(std::uint64_t base, std::size_t nodes) {
  SimStats s;
  s.slots_run = base;
  s.generated = base + 1;
  s.delivered = base + 2;
  s.hop_successes = base + 3;
  s.transmissions = base + 4;
  s.collisions = base + 5;
  s.receiver_asleep = base + 6;
  s.channel_losses = base + 7;
  s.sync_losses = base + 8;
  s.queue_drops = base + 9;
  s.deaths = base % 3;
  s.state_slots.assign(nodes, {base, base + 1, base + 2, base + 3});
  s.delivered_by_origin.assign(nodes, base);
  s.wake_transitions.assign(nodes, base + 1);
  for (std::uint64_t i = 0; i < 10; ++i) s.latency.record(base * 10 + i);
  return s;
}

TEST(SimStatsMerge, CountersAddAndVectorsAddElementwise) {
  SimStats a = make_stats(100, 4);
  const SimStats b = make_stats(7, 4);
  a.merge(b);
  EXPECT_EQ(a.slots_run, 107u);
  EXPECT_EQ(a.generated, 109u);
  EXPECT_EQ(a.delivered, 111u);
  EXPECT_EQ(a.hop_successes, 113u);
  EXPECT_EQ(a.transmissions, 115u);
  EXPECT_EQ(a.collisions, 117u);
  EXPECT_EQ(a.receiver_asleep, 119u);
  EXPECT_EQ(a.channel_losses, 121u);
  EXPECT_EQ(a.sync_losses, 123u);
  EXPECT_EQ(a.queue_drops, 125u);
  EXPECT_EQ(a.deaths, 2u);  // 100 % 3 + 7 % 3
  EXPECT_EQ(a.latency.count(), 20u);
  ASSERT_EQ(a.state_slots.size(), 4u);
  for (const auto& per_node : a.state_slots) {
    EXPECT_EQ(per_node[0], 107u);
    EXPECT_EQ(per_node[3], 113u);
  }
  for (auto d : a.delivered_by_origin) EXPECT_EQ(d, 107u);
  for (auto w : a.wake_transitions) EXPECT_EQ(w, 109u);
}

TEST(SimStatsMerge, ShorterVectorsZeroExtend) {
  SimStats small = make_stats(1, 2);
  const SimStats big = make_stats(1, 5);
  small.merge(big);
  ASSERT_EQ(small.state_slots.size(), 5u);
  EXPECT_EQ(small.state_slots[0][0], 2u);  // overlapping nodes add
  EXPECT_EQ(small.state_slots[4][0], 1u);  // extended nodes take big's value
  ASSERT_EQ(small.delivered_by_origin.size(), 5u);
  EXPECT_EQ(small.delivered_by_origin[1], 2u);
  EXPECT_EQ(small.delivered_by_origin[4], 1u);
}

TEST(SimStatsMerge, FirstDeathSlotTakesMin) {
  SimStats alive;  // first_death_slot = UINT64_MAX
  SimStats died;
  died.first_death_slot = 42;
  died.deaths = 1;
  alive.merge(died);
  EXPECT_EQ(alive.first_death_slot, 42u);
  EXPECT_EQ(alive.deaths, 1u);
  SimStats earlier;
  earlier.first_death_slot = 17;
  alive.merge(earlier);
  EXPECT_EQ(alive.first_death_slot, 17u);
  // Merging an all-alive shard must not regress the minimum.
  alive.merge(SimStats{});
  EXPECT_EQ(alive.first_death_slot, 17u);
}

TEST(SimStatsMerge, FaultCountersAdd) {
  SimStats a, b;
  a.fault_crashes = 3;
  a.fault_recoveries = 2;
  a.burst_losses = 10;
  b.fault_crashes = 4;
  b.fault_battery_spikes = 5;
  b.fault_jam_bursts = 6;
  b.drift_losses = 7;
  a.merge(b);
  EXPECT_EQ(a.fault_crashes, 7u);
  EXPECT_EQ(a.fault_recoveries, 2u);
  EXPECT_EQ(a.fault_battery_spikes, 5u);
  EXPECT_EQ(a.fault_jam_bursts, 6u);
  EXPECT_EQ(a.burst_losses, 10u);
  EXPECT_EQ(a.drift_losses, 7u);
}

// The quarantine contract: one partial shard poisons the whole aggregate's
// partial flag, no matter where in the fold it lands — a degraded campaign
// report can never launder itself clean through merge order.
TEST(SimStatsMerge, PartialFlagIsStickyThroughAnyMergeOrder) {
  for (std::size_t where = 0; where < 4; ++where) {
    SimStats agg;
    for (std::size_t i = 0; i < 4; ++i) {
      SimStats shard = make_stats(i + 1, 2);
      shard.partial = (i == where);
      agg.merge(shard);
    }
    EXPECT_TRUE(agg.partial) << "partial shard at position " << where;
  }
  // And merging clean shards never sets it.
  SimStats clean;
  clean.merge(make_stats(5, 2));
  EXPECT_FALSE(clean.partial);
  // A partial accumulator stays partial when clean shards fold in after.
  SimStats sticky;
  sticky.partial = true;
  sticky.merge(make_stats(9, 2));
  EXPECT_TRUE(sticky.partial);
}

TEST(SimStatsMerge, PartialFlagSurfacesInSummary) {
  SimStats s = make_stats(1, 2);
  EXPECT_EQ(s.summary(EnergyModel{}).find("PARTIAL"), std::string::npos);
  s.partial = true;
  EXPECT_NE(s.summary(EnergyModel{}).find("PARTIAL"), std::string::npos);
}

TEST(SimStatsMerge, MergeIsAssociativeOnCounters) {
  const SimStats a = make_stats(3, 2), b = make_stats(11, 2), c = make_stats(29, 2);
  SimStats left = a;
  left.merge(b);
  left.merge(c);
  SimStats bc = b;
  bc.merge(c);
  SimStats right = a;
  right.merge(bc);
  EXPECT_EQ(left.generated, right.generated);
  EXPECT_EQ(left.delivered, right.delivered);
  EXPECT_EQ(left.latency.count(), right.latency.count());
  EXPECT_EQ(left.latency.max(), right.latency.max());
  EXPECT_EQ(left.first_death_slot, right.first_death_slot);
  EXPECT_EQ(left.state_slots, right.state_slots);
}

// operator== is the bit-identity contract: a change to any one field,
// latency sample order included, makes two stats unequal.
TEST(SimStatsEquality, EveryFieldTakesPart) {
  const SimStats base = make_stats(5, 3);
  EXPECT_TRUE(base == make_stats(5, 3));
  const std::vector<std::function<void(SimStats&)>> perturb = {
      [](SimStats& s) { ++s.slots_run; },
      [](SimStats& s) { ++s.generated; },
      [](SimStats& s) { ++s.delivered; },
      [](SimStats& s) { ++s.hop_successes; },
      [](SimStats& s) { ++s.transmissions; },
      [](SimStats& s) { ++s.collisions; },
      [](SimStats& s) { ++s.receiver_asleep; },
      [](SimStats& s) { ++s.channel_losses; },
      [](SimStats& s) { ++s.sync_losses; },
      [](SimStats& s) { ++s.queue_drops; },
      [](SimStats& s) { s.latency.record(1); },
      [](SimStats& s) {
        // Same multiset, different stored order.
        LatencyStats reversed;
        for (auto it = s.latency.samples().rbegin(); it != s.latency.samples().rend(); ++it) {
          reversed.record(*it);
        }
        s.latency = reversed;
      },
      [](SimStats& s) { ++s.state_slots[1][2]; },
      [](SimStats& s) { ++s.delivered_by_origin[2]; },
      [](SimStats& s) { ++s.wake_transitions[0]; },
      [](SimStats& s) { s.first_death_slot = 17; },
      [](SimStats& s) { ++s.deaths; },
      [](SimStats& s) { ++s.fault_crashes; },
      [](SimStats& s) { ++s.fault_recoveries; },
      [](SimStats& s) { ++s.fault_battery_spikes; },
      [](SimStats& s) { ++s.fault_jam_bursts; },
      [](SimStats& s) { ++s.burst_losses; },
      [](SimStats& s) { ++s.drift_losses; },
      [](SimStats& s) { s.partial = true; },
  };
  for (std::size_t i = 0; i < perturb.size(); ++i) {
    SimStats changed = base;
    perturb[i](changed);
    EXPECT_FALSE(base == changed) << "perturbation " << i;
    EXPECT_TRUE(base != changed) << "perturbation " << i;
  }
}

}  // namespace
}  // namespace ttdc::sim
