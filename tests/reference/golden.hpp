// Golden-equality helpers shared by the test binaries: field-by-field
// SimStats comparison, and a runner that drives the reference simulator and
// sim::Simulator through the same world so a test states only the world.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>

#include "reference_simulator.hpp"

namespace ttdc::sim::golden {

/// Every SimStats field, latency samples in recording order included.
inline void expect_identical_stats(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.slots_run, b.slots_run);
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_EQ(a.hop_successes, b.hop_successes);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.collisions, b.collisions);
  EXPECT_EQ(a.receiver_asleep, b.receiver_asleep);
  EXPECT_EQ(a.channel_losses, b.channel_losses);
  EXPECT_EQ(a.sync_losses, b.sync_losses);
  EXPECT_EQ(a.queue_drops, b.queue_drops);
  EXPECT_EQ(a.burst_losses, b.burst_losses);
  EXPECT_EQ(a.drift_losses, b.drift_losses);
  EXPECT_EQ(a.fault_crashes, b.fault_crashes);
  EXPECT_EQ(a.fault_recoveries, b.fault_recoveries);
  EXPECT_EQ(a.fault_battery_spikes, b.fault_battery_spikes);
  EXPECT_EQ(a.fault_jam_bursts, b.fault_jam_bursts);
  EXPECT_EQ(a.latency.samples(), b.latency.samples());
  EXPECT_EQ(a.state_slots, b.state_slots);
  EXPECT_EQ(a.delivered_by_origin, b.delivered_by_origin);
  EXPECT_EQ(a.wake_transitions, b.wake_transitions);
  EXPECT_EQ(a.first_death_slot, b.first_death_slot);
  EXPECT_EQ(a.deaths, b.deaths);
  EXPECT_EQ(a.partial, b.partial);
}

/// Runs `slots` slots of one world on simulator type Sim (Simulator or
/// ReferenceSimulator) with a fresh MAC and traffic source from the
/// factories, and returns the final stats.
template <typename Sim, typename MacFactory, typename TrafficFactory>
SimStats run(const net::Graph& graph, MacFactory&& make_mac, TrafficFactory&& make_traffic,
             const SimConfig& config, std::uint64_t slots) {
  auto mac = make_mac();
  auto traffic = make_traffic();
  Sim sim(graph, *mac, *traffic, config);
  sim.run(slots);
  return sim.stats();
}

/// The golden gate: the production pipeline reproduces the reference
/// simulator's SimStats exactly on this world.
template <typename MacFactory, typename TrafficFactory>
void expect_matches_reference(const net::Graph& graph, MacFactory&& make_mac,
                              TrafficFactory&& make_traffic, const SimConfig& config,
                              std::uint64_t slots) {
  const SimStats reference =
      run<ReferenceSimulator>(graph, make_mac, make_traffic, config, slots);
  const SimStats pipeline = run<Simulator>(graph, make_mac, make_traffic, config, slots);
  expect_identical_stats(reference, pipeline);
}

}  // namespace ttdc::sim::golden
