#include "reference_simulator.hpp"

#include <algorithm>
#include <cmath>

#include "util/check.hpp"
#include "util/hash.hpp"

namespace ttdc::sim {

namespace {

constexpr std::size_t kNoHop = static_cast<std::size_t>(-1);
constexpr double kUnitsPerMj = 1e9;  // battery bookkeeping in nano-mJ

std::int64_t to_units(double mj) {
  return static_cast<std::int64_t>(std::llround(mj * kUnitsPerMj));
}

}  // namespace

ReferenceSimulator::ReferenceSimulator(net::Graph graph, MacProtocol& mac,
                                       TrafficSource& traffic, const SimConfig& config)
    : graph_(std::move(graph)), mac_(mac), traffic_(traffic), config_(config),
      rng_(config.seed), routing_(graph_) {
  const std::size_t n = graph_.num_nodes();
  queues_.assign(n, PacketQueue(config_.queue_capacity));
  stats_.state_slots.assign(n, {0, 0, 0, 0});
  stats_.delivered_by_origin.assign(n, 0);
  stats_.wake_transitions.assign(n, 0);
  battery_.assign(n, to_units(config_.battery_mj));
  dead_.assign(n, false);
  down_.assign(n, false);
  jamming_.assign(n, false);
  was_awake_.assign(n, false);  // nodes boot asleep
  down_since_.assign(n, 0);
  transmitting_.assign(n, false);
  if (config_.fault_plan != nullptr) {
    TTDC_ASSERT(config_.fault_plan->num_nodes() == n, "fault plan built for ",
                config_.fault_plan->num_nodes(), " nodes, reference has ", n);
  }
}

void ReferenceSimulator::run(std::uint64_t slots) {
  for (std::uint64_t i = 0; i < slots; ++i) step();
}

void ReferenceSimulator::set_graph(net::Graph graph) {
  TTDC_ASSERT(graph.num_nodes() == graph_.num_nodes(), "set_graph cannot change the node count");
  graph_ = std::move(graph);
  routing_.set_graph(graph_);
  mac_.on_topology_change(graph_);
}

void ReferenceSimulator::step() {
  recording_ = config_.recorder != nullptr && obs::FlightRecorder::enabled();
  // World faults land first, so a node crashing at slot t misses slot t.
  if (config_.fault_plan != nullptr) apply_fault_events();
  traffic_.generate(now_, rng_, [&](std::size_t o, std::size_t d) { inject(o, d); });
  mac_.begin_slot(now_, rng_);

  collect_transmissions();
  // Jammers radiate noise: they carry no packet but collide like senders.
  const std::size_t n = graph_.num_nodes();
  for (std::size_t v = 0; v < n; ++v) {
    if (jamming_[v] && !dead_[v] && !down_[v]) transmitting_[v] = true;
  }
  stats_.transmissions += attempts_.size();
  for (const auto& [x, y] : attempts_) resolve(x, y);
  account_energy();

  ++now_;
  ++stats_.slots_run;
}

void ReferenceSimulator::apply_fault_events() {
  const auto& events = config_.fault_plan->events();
  for (; next_fault_ < events.size() && events[next_fault_].slot <= now_; ++next_fault_) {
    const FaultEvent& e = events[next_fault_];
    const std::size_t v = e.node;
    const auto note = [&](obs::FlightEvent::Kind kind, std::uint32_t aux) {
      record(kind, v, obs::FlightEvent::kNoNode, obs::FlightEvent::kNoPacket, aux);
    };
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
        if (dead_[v] || down_[v]) break;
        down_[v] = true;
        down_since_[v] = now_;
        ++stats_.fault_crashes;
        note(obs::FlightEvent::Kind::kFaultCrash, 0);
        break;
      case FaultEvent::Kind::kRecover:
        if (!down_[v]) break;
        down_[v] = false;
        ++stats_.fault_recoveries;
        note(obs::FlightEvent::Kind::kFaultRecover,
             static_cast<std::uint32_t>(now_ - down_since_[v]));
        break;
      case FaultEvent::Kind::kBatterySpike:
        if (dead_[v]) break;
        ++stats_.fault_battery_spikes;
        note(obs::FlightEvent::Kind::kFaultBatterySpike,
             static_cast<std::uint32_t>(e.magnitude_mj));
        drain(v, to_units(e.magnitude_mj));
        break;
      case FaultEvent::Kind::kJamStart:
        if (jamming_[v]) break;
        jamming_[v] = true;
        ++stats_.fault_jam_bursts;
        note(obs::FlightEvent::Kind::kFaultJamStart, 0);
        break;
      case FaultEvent::Kind::kJamEnd:
        if (!jamming_[v]) break;
        jamming_[v] = false;
        note(obs::FlightEvent::Kind::kFaultJamEnd, 0);
        break;
    }
  }
}

void ReferenceSimulator::inject(std::size_t origin, std::size_t destination) {
  if (dead_[origin] || down_[origin]) return;  // nothing senses on a dead radio
  ++stats_.generated;
  Packet p;
  p.id = next_packet_id_++;
  p.origin = origin;
  p.destination = destination;
  p.created_slot = now_;
  record(obs::FlightEvent::Kind::kCreated, origin, destination, p.id);
  if (!enqueue(origin, p)) {
    ++stats_.queue_drops;
    record(obs::FlightEvent::Kind::kDropped, origin, origin, p.id);
  }
}

// Every alive, up, non-jamming node with a packet offers its head-of-line
// packet to the MAC. A head with no route is dropped (or stalls the queue).
void ReferenceSimulator::collect_transmissions() {
  attempts_.clear();
  std::fill(transmitting_.begin(), transmitting_.end(), false);
  for (std::size_t v = 0; v < graph_.num_nodes(); ++v) {
    if (dead_[v] || down_[v] || jamming_[v]) continue;
    while (!queues_[v].empty()) {
      const std::size_t hop = next_hop(v);
      if (hop == kNoHop) {
        if (!config_.drop_unroutable) break;
        ++stats_.queue_drops;
        const Packet& head = queues_[v].front();
        record(obs::FlightEvent::Kind::kExpired, v, head.origin, head.id);
        dequeue(v);
        continue;
      }
      if (mac_.wants_transmit(v, hop)) {
        attempts_.emplace_back(v, hop);
        transmitting_[v] = true;
        record(obs::FlightEvent::Kind::kTxAttempt, v, hop, queues_[v].front().id);
      }
      break;
    }
  }
}

void ReferenceSimulator::resolve(std::size_t x, std::size_t y) {
  const std::uint64_t id = queues_[x].front().id;
  if (dead_[y] || down_[y] || !mac_.can_receive(y) || transmitting_[y]) {
    ++stats_.receiver_asleep;
    record(obs::FlightEvent::Kind::kReceiverAsleep, y, x, id);
    return;
  }
  if (collided(x, y)) {
    ++stats_.collisions;
    if (recording_) record_collision(x, y, id);
    return;
  }
  if (config_.fault_plan != nullptr) {
    if (drift_lost(x, y)) {
      ++stats_.drift_losses;
      record(obs::FlightEvent::Kind::kDriftLoss, y, x, id);
      return;
    }
    if (burst_lost(x, y)) {
      ++stats_.burst_losses;
      record(obs::FlightEvent::Kind::kBurstLoss, y, x, id);
      return;
    }
  }
  if (config_.sync_miss_rate > 0.0 && rng_.bernoulli(config_.sync_miss_rate)) {
    ++stats_.sync_losses;
    record(obs::FlightEvent::Kind::kSyncLoss, y, x, id);
    return;
  }
  if (config_.packet_error_rate > 0.0 && rng_.bernoulli(config_.packet_error_rate)) {
    ++stats_.channel_losses;
    record(obs::FlightEvent::Kind::kChannelLoss, y, x, id);
    return;
  }
  // Received: x forgets the packet, y delivers or forwards it.
  Packet p = queues_[x].front();
  dequeue(x);
  ++stats_.hop_successes;
  ++p.hops;
  if (p.destination == y) {
    const std::uint64_t latency = now_ - p.created_slot;
    ++stats_.delivered;
    ++stats_.delivered_by_origin[p.origin];
    stats_.latency.record(latency);
    record(obs::FlightEvent::Kind::kDelivered, y, p.origin, p.id,
           static_cast<std::uint32_t>(latency));
    return;
  }
  record(obs::FlightEvent::Kind::kHopDelivered, y, x, p.id);
  if (!enqueue(y, p)) {
    ++stats_.queue_drops;
    record(obs::FlightEvent::Kind::kDropped, y, p.origin, p.id);
  }
}

// Each alive node's radio state for the slot, its energy, and its death.
void ReferenceSimulator::account_energy() {
  const EnergyModel& energy = config_.energy;
  for (std::size_t v = 0; v < graph_.num_nodes(); ++v) {
    if (dead_[v]) continue;
    RadioState state;
    if (down_[v]) {
      state = RadioState::kSleep;  // a crashed radio is off
    } else if (transmitting_[v]) {
      state = RadioState::kTransmit;
    } else if (mac_.can_receive(v)) {
      state = RadioState::kListen;  // awake whether or not a packet arrived
    } else {
      state = mac_.idle_state(v);
    }
    ++stats_.state_slots[v][static_cast<std::size_t>(state)];
    const bool awake = state != RadioState::kSleep;
    const bool woke = awake && !was_awake_[v];
    was_awake_[v] = awake;
    if (woke) ++stats_.wake_transitions[v];
    drain(v, to_units(energy.energy_mj(state, 1)) + (woke ? to_units(energy.wakeup_mj) : 0));
  }
}

std::size_t ReferenceSimulator::next_hop(std::size_t node) const {
  return routing_.next_hop(node, queues_[node].front().destination);
}

// Collision at y: some neighbor of y other than x is radiating.
bool ReferenceSimulator::collided(std::size_t x, std::size_t y) const {
  bool other = false;
  graph_.neighbors(y).for_each([&](std::size_t u) {
    if (u != x && transmitting_[u]) other = true;
  });
  return other;
}

// Clock drift: the pair's relative misalignment grows linearly since the
// last resync epoch and loses the slot once it exceeds the guard time.
bool ReferenceSimulator::drift_lost(std::size_t x, std::size_t y) const {
  const FaultPlan& plan = *config_.fault_plan;
  if (!plan.has_drift()) return false;
  const FaultPlanConfig& fc = plan.config();
  const double phase = fc.resync_interval > 0 ? static_cast<double>(now_ % fc.resync_interval)
                                              : static_cast<double>(now_);
  return std::abs((plan.drift_rates()[x] - plan.drift_rates()[y]) * phase) > fc.drift_guard;
}

// Gilbert-Elliott link x -> y on the link's own stream: the chain starts
// stationary, evolves in closed form over the slots since its last use,
// draws this slot's state, then draws the loss in that state.
bool ReferenceSimulator::burst_lost(std::size_t x, std::size_t y) {
  const FaultPlan& plan = *config_.fault_plan;
  if (!plan.has_link_loss()) return false;
  const GilbertElliott& ge = plan.config().link_loss;
  const std::uint64_t key = static_cast<std::uint64_t>(x) * graph_.num_nodes() + y;
  const double pi = ge.stationary_bad();
  double p_bad = pi;
  auto it = links_.find(key);
  if (it == links_.end()) {
    const util::Xoshiro256 stream(util::mix64(plan.link_stream_seed() ^ key));
    it = links_.emplace(key, LinkChain{stream}).first;
  } else {
    const auto idle = static_cast<double>(now_ - it->second.last_slot);
    const double decay = std::pow(1.0 - ge.p_good_to_bad - ge.p_bad_to_good, idle);
    p_bad = pi + ((it->second.bad ? 1.0 : 0.0) - pi) * decay;
  }
  LinkChain& link = it->second;
  link.bad = link.rng.uniform01() < p_bad;
  link.last_slot = now_;
  const double loss = link.bad ? ge.loss_bad : ge.loss_good;
  return loss > 0.0 && link.rng.uniform01() < loss;
}

bool ReferenceSimulator::enqueue(std::size_t node, const Packet& p) {
  if (!queues_[node].push(p)) return false;
  record(obs::FlightEvent::Kind::kEnqueued, node, p.origin, p.id,
         static_cast<std::uint32_t>(queues_[node].size()));
  if (queues_[node].size() == 1 && recording_) record_head_of_line(node);
  return true;
}

void ReferenceSimulator::dequeue(std::size_t node) {
  queues_[node].pop();
  if (!queues_[node].empty() && recording_) record_head_of_line(node);
}

void ReferenceSimulator::drain(std::size_t node, std::int64_t units) {
  if (config_.battery_mj <= 0.0) return;  // unlimited energy
  battery_[node] -= units;
  if (battery_[node] <= 0) kill(node);
}

void ReferenceSimulator::kill(std::size_t node) {
  dead_[node] = true;
  battery_[node] = 0;
  ++stats_.deaths;
  stats_.first_death_slot = std::min(stats_.first_death_slot, now_);
}

void ReferenceSimulator::record(obs::FlightEvent::Kind kind, std::size_t node,
                                std::size_t peer, std::uint64_t packet_id, std::uint32_t aux) {
  if (!recording_) return;
  obs::FlightEvent e;
  e.slot = now_;
  e.packet_id = packet_id;
  e.node = static_cast<std::uint32_t>(node);
  e.peer = static_cast<std::uint32_t>(peer);
  e.aux = aux;
  e.kind = kind;
  config_.recorder->record(e);
}

void ReferenceSimulator::record_head_of_line(std::size_t node) {
  const std::size_t hop = next_hop(node);
  record(obs::FlightEvent::Kind::kHeadOfLine, node,
         hop == kNoHop ? obs::FlightEvent::kNoNode : hop, queues_[node].front().id,
         static_cast<std::uint32_t>(queues_[node].size()));
}

void ReferenceSimulator::record_collision(std::size_t x, std::size_t y, std::uint64_t packet_id) {
  obs::FlightEvent e;
  e.slot = now_;
  e.packet_id = packet_id;
  e.node = static_cast<std::uint32_t>(y);
  e.peer = static_cast<std::uint32_t>(x);
  e.kind = obs::FlightEvent::Kind::kCollided;
  std::size_t count = 0;
  graph_.neighbors(y).for_each([&](std::size_t u) {
    if (u == x || !transmitting_[u]) return;
    if (count < obs::FlightEvent::kMaxInterferers) {
      e.interferers[count] = static_cast<std::uint32_t>(u);
    }
    ++count;
  });
  e.interferer_count = static_cast<std::uint8_t>(std::min<std::size_t>(count, 255));
  config_.recorder->record(e);
}

}  // namespace ttdc::sim
