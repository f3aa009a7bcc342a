// Reference simulator: the paper's slot model (§3) read one node at a time.
//
// This is the differential oracle for sim::Simulator. It states the same
// rules as directly as possible and trusts nothing the production pipeline
// derives incrementally:
//
//   * the MAC is queried only through its per-node interface (begin_slot,
//     can_receive, wants_transmit, idle_state) — never fill_slot_sets();
//   * a transmission x -> y succeeds iff y is alive, up and willing to
//     receive, y is not itself transmitting, and no OTHER neighbor of y
//     transmits (collision-at-receiver, no capture); then the injected
//     faults and channel imperfections get their say;
//   * every alive node pays for its radio state each slot (transmit,
//     listen when it can receive, otherwise its idle state), plus a wakeup
//     surcharge on every sleep -> awake transition, and dies when its
//     battery reaches zero.
//
// Bit-identical SimStats require the same randomness in the same order, so
// the one simulator stream (SimConfig::seed) is drawn, per slot, by the
// traffic source, then the MAC's begin_slot(), then — per transmission in
// ascending transmitter order — the sync-miss coin and the packet-error
// coin. Fault randomness comes only from the fault plan's own per-link
// streams. Batteries count integer nano-millijoules, as in the simulator,
// so death slots agree exactly.
//
// Supported SimConfig fields: seed, queue_capacity, drop_unroutable,
// packet_error_rate, sync_miss_rate, battery_mj, energy, fault_plan and
// recorder (the flight recorder sees the simulator's exact event stream).
// shared_routing and fast_forward are ignored: they never change SimStats.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

#include "net/graph.hpp"
#include "net/routing.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/mac.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "util/rng.hpp"

namespace ttdc::sim {

class ReferenceSimulator {
 public:
  ReferenceSimulator(net::Graph graph, MacProtocol& mac, TrafficSource& traffic,
                     const SimConfig& config = {});
  // routing_ points at graph_, so the object must not move.
  ReferenceSimulator(const ReferenceSimulator&) = delete;
  ReferenceSimulator& operator=(const ReferenceSimulator&) = delete;

  /// Runs `slots` additional slots (cumulative, like Simulator::run).
  void run(std::uint64_t slots);
  /// Swaps the topology (churn) and notifies the MAC.
  void set_graph(net::Graph graph);

  [[nodiscard]] const SimStats& stats() const { return stats_; }
  [[nodiscard]] std::uint64_t now() const { return now_; }

 private:
  void step();
  void apply_fault_events();
  void inject(std::size_t origin, std::size_t destination);
  void collect_transmissions();
  void resolve(std::size_t x, std::size_t y);
  void account_energy();

  [[nodiscard]] std::size_t next_hop(std::size_t node) const;
  [[nodiscard]] bool collided(std::size_t x, std::size_t y) const;
  [[nodiscard]] bool drift_lost(std::size_t x, std::size_t y) const;
  bool burst_lost(std::size_t x, std::size_t y);
  bool enqueue(std::size_t node, const Packet& p);
  void dequeue(std::size_t node);
  void drain(std::size_t node, std::int64_t units);
  void kill(std::size_t node);
  void record(obs::FlightEvent::Kind kind, std::size_t node, std::size_t peer,
              std::uint64_t packet_id, std::uint32_t aux = 0);
  void record_head_of_line(std::size_t node);
  void record_collision(std::size_t x, std::size_t y, std::uint64_t packet_id);

  net::Graph graph_;
  MacProtocol& mac_;
  TrafficSource& traffic_;
  SimConfig config_;
  util::Xoshiro256 rng_;
  net::RoutingTable routing_;
  std::vector<PacketQueue> queues_;
  SimStats stats_;
  std::uint64_t now_ = 0;
  std::uint64_t next_packet_id_ = 0;
  bool recording_ = false;

  // Per-node world state.
  std::vector<std::int64_t> battery_;  // nano-mJ; only drained when battery_mj > 0
  std::vector<bool> dead_;
  std::vector<bool> down_;     // crashed by the fault plan
  std::vector<bool> jamming_;  // inside a jam burst
  std::vector<bool> was_awake_;  // radio state of the previous slot
  std::vector<std::uint64_t> down_since_;
  std::size_t next_fault_ = 0;
  struct LinkChain {  // Gilbert-Elliott state of one directed link
    util::Xoshiro256 rng;
    std::uint64_t last_slot = 0;
    bool bad = false;
  };
  std::map<std::uint64_t, LinkChain> links_;

  // This slot's transmissions: (transmitter, next hop) in node order, and
  // every node radiating (transmitters plus active jammers).
  std::vector<std::pair<std::size_t, std::size_t>> attempts_;
  std::vector<bool> transmitting_;
};

}  // namespace ttdc::sim
