// The flight recorder as the simulator's event trace: its event stream
// rebuilds every SimStats counter it determines, the ring keeps the last N
// events of a run in order, the JSONL writer emits one object per line,
// and a JSONL dump replays to the live counters exactly (from a stream or
// a file, with malformed lines reported rather than fatal).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace ttdc;
using obs::FlightEvent;
using obs::FlightRecorder;
using K = FlightEvent::Kind;

/// Rebuilds every SimStats counter a flight-event stream determines and
/// compares it with `stats`; one line per mismatch (empty == equal).
std::vector<std::string> counter_mismatches(const std::vector<FlightEvent>& events,
                                            const sim::SimStats& stats) {
  std::map<K, std::uint64_t> n;
  for (const FlightEvent& e : events) ++n[e.kind];
  std::vector<std::string> out;
  const auto check = [&out](const char* name, std::uint64_t rebuilt, std::uint64_t live) {
    if (rebuilt != live) {
      out.push_back(std::string(name) + ": events " + std::to_string(rebuilt) + " != stats " +
                    std::to_string(live));
    }
  };
  check("generated", n[K::kCreated], stats.generated);
  check("transmissions", n[K::kTxAttempt], stats.transmissions);
  check("delivered", n[K::kDelivered], stats.delivered);
  check("latency samples", n[K::kDelivered], stats.latency.count());
  check("hop_successes", n[K::kHopDelivered] + n[K::kDelivered], stats.hop_successes);
  check("collisions", n[K::kCollided], stats.collisions);
  check("receiver_asleep", n[K::kReceiverAsleep], stats.receiver_asleep);
  check("channel_losses", n[K::kChannelLoss], stats.channel_losses);
  check("sync_losses", n[K::kSyncLoss], stats.sync_losses);
  check("queue_drops", n[K::kDropped] + n[K::kExpired], stats.queue_drops);
  return out;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string all;
  for (const auto& line : lines) all += "  " + line + "\n";
  return all;
}

/// A 4-node TDMA ring (every node awake every slot), recorded into `ring`.
sim::SimStats run_tdma_ring(std::uint64_t slots, double rate, double packet_error_rate,
                            std::uint64_t seed, FlightRecorder* ring) {
  const core::Schedule s = core::non_sleeping_from_family(comb::tdma_family(4));
  sim::DutyCycledScheduleMac mac(s);
  sim::BernoulliTraffic traffic(4, rate);
  sim::SimConfig config;
  config.seed = seed;
  config.packet_error_rate = packet_error_rate;
  config.recorder = ring;
  sim::Simulator sim(net::ring_graph(4), mac, traffic, config);
  sim.run(slots);
  return sim.stats();
}

// ------------------------------------------------------------- the trace

TEST(Trace, EventsReconstructAggregateCounters) {
  FlightRecorder ring(1 << 16);
  const sim::SimStats st = run_tdma_ring(4000, 0.08, 0.1, 11, &ring);
  ASSERT_FALSE(ring.wrapped());
  ASSERT_GT(st.delivered, 0u);
  ASSERT_GT(st.channel_losses, 0u);
  ASSERT_GT(st.hop_successes, st.delivered) << "the ring must forward multi-hop";
  const auto mismatches = counter_mismatches(ring.events(), st);
  EXPECT_TRUE(mismatches.empty()) << joined(mismatches);
}

TEST(Trace, NoHookMeansNoOverheadPathStillWorks) {
  // No recorder installed: the simulator runs its hook-free path.
  const core::Schedule s = core::non_sleeping_from_family(comb::tdma_family(3));
  sim::DutyCycledScheduleMac mac(s);
  sim::BernoulliTraffic traffic(3, 0.05);
  sim::Simulator sim(net::path_graph(3), mac, traffic, {.seed = 4});
  sim.run(600);
  EXPECT_GT(sim.stats().delivered, 0u);
}

// ------------------------------------------------------------- the sinks

TEST(TraceSinks, RingBufferKeepsLastNInOrder) {
  // A small ring on a run is exactly the tail of the full event stream.
  FlightRecorder full(1 << 16);
  FlightRecorder tail(64);
  run_tdma_ring(1500, 0.08, 0.0, 3, &full);
  run_tdma_ring(1500, 0.08, 0.0, 3, &tail);
  ASSERT_FALSE(full.wrapped());
  ASSERT_TRUE(tail.wrapped());
  EXPECT_EQ(tail.seen(), full.seen());
  const auto all = full.events();
  const auto kept = tail.events();
  ASSERT_EQ(kept.size(), 64u);
  const std::vector<FlightEvent> expected(all.end() - 64, all.end());
  EXPECT_TRUE(kept == expected) << "the ring keeps the last 64 events, oldest first";
  tail.clear();
  EXPECT_EQ(tail.size(), 0u);
  EXPECT_EQ(tail.seen(), 0u);
}

TEST(TraceSinks, JsonlSinkWritesOneObjectPerLine) {
  FlightEvent tx;
  tx.kind = K::kTxAttempt;
  tx.slot = 12;
  tx.packet_id = 77;
  tx.node = 3;
  tx.peer = 4;
  FlightEvent collided = tx;
  collided.kind = K::kCollided;
  collided.node = 4;
  collided.peer = 3;
  collided.interferer_count = 2;
  collided.interferers[0] = 5;
  collided.interferers[1] = 9;
  FlightEvent delivered = tx;
  delivered.kind = K::kDelivered;
  delivered.slot = 13;
  delivered.aux = 6;
  std::ostringstream out;
  obs::write_flight_jsonl(out, std::vector<FlightEvent>{tx, collided, delivered});
  EXPECT_EQ(out.str(),
            "{\"kind\":\"tx_attempt\",\"slot\":12,\"packet\":77,\"node\":3,\"peer\":4}\n"
            "{\"kind\":\"collided\",\"slot\":12,\"packet\":77,\"node\":4,\"peer\":3,"
            "\"interferer_count\":2,\"interferers\":[5,9]}\n"
            "{\"kind\":\"delivered\",\"slot\":13,\"packet\":77,\"node\":3,\"peer\":4,"
            "\"aux\":6}\n");
}

// ------------------------------------------------------------ the replay

TEST(TraceReplay, TenThousandSlotRoundTripMatchesLiveStatsExactly) {
  // A lossy, collision-prone run so every counter is exercised: slotted
  // ALOHA on a random degree-bounded graph plus channel/sync error knobs
  // and a short queue.
  constexpr std::size_t kN = 25;
  util::Xoshiro256 rng(12);
  const net::Graph g = net::random_bounded_degree_graph(kN, 4, 2 * kN, rng);
  sim::SlottedAlohaMac mac(kN, 0.15);
  sim::BernoulliTraffic traffic(kN, 0.02);
  FlightRecorder ring(1 << 19);
  sim::SimConfig config;
  config.seed = 777;
  config.packet_error_rate = 0.05;
  config.sync_miss_rate = 0.03;
  config.queue_capacity = 8;
  config.recorder = &ring;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(10000);
  ASSERT_FALSE(ring.wrapped());

  const auto& live = sim.stats();
  ASSERT_GT(live.delivered, 0u);
  ASSERT_GT(live.collisions, 0u);
  ASSERT_GT(live.channel_losses, 0u);
  ASSERT_GT(live.sync_losses, 0u);
  ASSERT_GT(live.queue_drops, 0u);

  std::stringstream stream;
  obs::write_flight_jsonl(stream, ring.events());
  const obs::FlightParseResult replay = obs::read_flight_jsonl(stream);
  EXPECT_TRUE(replay.errors.empty());
  EXPECT_EQ(replay.events.size(), ring.seen());
  const auto mismatches = counter_mismatches(replay.events, live);
  EXPECT_TRUE(mismatches.empty()) << "replay mismatches:\n" << joined(mismatches);
}

TEST(TraceReplay, FileRoundTripAndMismatchDetection) {
  const std::string path = testing::TempDir() + "/ttdc_test_trace.jsonl";
  FlightRecorder ring(1 << 16);
  const sim::SimStats live = run_tdma_ring(2000, 0.05, 0.0, 5, &ring);
  ASSERT_FALSE(ring.wrapped());
  ASSERT_TRUE(obs::write_flight_jsonl_file(path, ring.events()));
  const obs::FlightParseResult replay = obs::read_flight_jsonl_file(path);
  std::remove(path.c_str());
  EXPECT_TRUE(replay.errors.empty());
  EXPECT_TRUE(counter_mismatches(replay.events, live).empty());

  // A doctored live-stats copy must be flagged.
  sim::SimStats doctored = live;
  doctored.delivered += 1;
  EXPECT_FALSE(counter_mismatches(replay.events, doctored).empty());

  EXPECT_THROW((void)obs::read_flight_jsonl_file("/nonexistent/dir/trace.jsonl"),
               std::runtime_error);
}

TEST(TraceReplay, MalformedLinesAreReportedNotFatal) {
  // Garbage spliced into a real dump costs exactly the bad lines: every
  // event after them is still read back.
  FlightRecorder ring(1 << 16);
  const sim::SimStats live = run_tdma_ring(1000, 0.05, 0.0, 6, &ring);
  const auto original = ring.events();
  ASSERT_GT(original.size(), 100u);
  std::stringstream stream;
  std::size_t injected = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (i % 50 == 0) {
      stream << (i % 100 == 0 ? "not json at all\n"
                              : "{\"kind\":\"no_such_kind\",\"slot\":1,\"packet\":1,"
                                "\"node\":0,\"peer\":1}\n");
      ++injected;
    }
    obs::write_flight_jsonl(stream, original[i]);
  }
  const obs::FlightParseResult replay = obs::read_flight_jsonl(stream);
  EXPECT_EQ(replay.errors.size(), injected);
  EXPECT_TRUE(replay.events == original);
  EXPECT_TRUE(counter_mismatches(replay.events, live).empty());
}

}  // namespace
