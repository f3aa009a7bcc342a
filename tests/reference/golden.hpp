// Golden-equality helpers shared by the test binaries: field-by-field
// SimStats comparison, and a runner that drives the reference simulator and
// sim::Simulator through the same world so a test states only the world.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "obs/metrics.hpp"
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
  // Catches a field added to SimStats after the list above was written.
  EXPECT_TRUE(a == b);
}

/// The `<prefix>_*` gauges obs::publish_sim_stats() left in `registry`
/// equal the counters of `stats`, fault counters included.
inline void expect_registry_matches(const obs::MetricsRegistry& registry, const SimStats& stats,
                                    const std::string& prefix = "ttdc_sim") {
  std::map<std::string, double> gauges;
  for (const obs::MetricSnapshot& m : registry.snapshot()) {
    if (m.type == obs::MetricSnapshot::Type::kGauge) gauges[m.name] = m.gauge_value;
  }
  const auto expect = [&](const char* suffix, std::uint64_t value) {
    const std::string name = prefix + suffix;
    ASSERT_EQ(gauges.count(name), 1u) << name << " not published";
    EXPECT_EQ(gauges[name], static_cast<double>(value)) << name;
  };
  expect("_slots_run", stats.slots_run);
  expect("_generated", stats.generated);
  expect("_delivered", stats.delivered);
  expect("_transmissions", stats.transmissions);
  expect("_hop_successes", stats.hop_successes);
  expect("_collisions", stats.collisions);
  expect("_receiver_asleep", stats.receiver_asleep);
  expect("_channel_losses", stats.channel_losses);
  expect("_sync_losses", stats.sync_losses);
  expect("_queue_drops", stats.queue_drops);
  expect("_deaths", stats.deaths);
  expect("_fault_crashes", stats.fault_crashes);
  expect("_fault_recoveries", stats.fault_recoveries);
  expect("_fault_battery_spikes", stats.fault_battery_spikes);
  expect("_fault_jam_bursts", stats.fault_jam_bursts);
  expect("_burst_losses", stats.burst_losses);
  expect("_drift_losses", stats.drift_losses);
  expect("_latency_max_slots", stats.latency.max());
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
