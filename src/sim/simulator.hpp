// The slot-synchronous WSN simulator.
//
// Implements the paper's system model (§3) verbatim: time is a sequence of
// slots; in each slot a MAC protocol decides who transmits and who can
// receive; a transmission x -> y succeeds iff y can receive, y is not
// itself transmitting, and x is the ONLY transmitter in y's neighborhood
// (collision-at-receiver, no capture). Energy is accounted per node per
// slot by radio state.
//
// The per-slot pipeline operates on whole node-sets rather than individual
// nodes — the batched formulation the paper uses analytically (per-slot
// transmitter set T[i] and receiver set R[i]) mapped onto set algebra over
// util::SlotSet. There is one pipeline; the simulator picks the set
// representation from the density it observes (kPinnedDenseMaxNodes,
// kDensityProbeSlots). The node-at-a-time reading of the same rules lives
// in tests/reference as the differential oracle. See DESIGN.md §8 and §13.
//
// Topology can be swapped mid-run (set_graph) to model churn; topology-
// transparent MACs keep working with no reconfiguration, which is the point
// of the paper.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "net/graph.hpp"
#include "obs/flight_recorder.hpp"
#include "sim/fastforward.hpp"
#include "sim/fault.hpp"
#include "sim/mac.hpp"
#include "sim/packet.hpp"
#include "sim/stats.hpp"
#include "sim/traffic.hpp"
#include "util/counter_planes.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::sim {

struct SimConfig {
  std::uint64_t seed = 0x5eed;
  std::size_t queue_capacity = 64;
  /// If true, packets whose next hop is unreachable are dropped (counted as
  /// queue drops); otherwise they stall at the head of the queue.
  bool drop_unroutable = true;
  /// Channel imperfections. The paper assumes a perfect slotted channel
  /// ("we assume an efficient synchronization scheme is available"); these
  /// knobs probe how gracefully the guarantees degrade when it is not.
  /// An otherwise-successful reception is lost with probability
  /// packet_error_rate (fading/noise), and independently with probability
  /// sync_miss_rate (transmitter misaligned with the slot grid).
  double packet_error_rate = 0.0;
  double sync_miss_rate = 0.0;
  /// Optional packet flight recorder (obs/flight_recorder.hpp): a bounded
  /// ring of per-packet lifecycle events (created -> enqueued ->
  /// head-of-line -> tx-attempt -> collided/delivered/dropped/expired),
  /// with collision events carrying the interferer set recovered from the
  /// phase-2 intersection. Cost contract: leave null (the default) and
  /// step() pays one branch per slot; installed but disarmed
  /// (FlightRecorder::enable(false)) costs one relaxed load per slot; armed
  /// recording never touches the RNG stream or SimStats, so golden
  /// equality with the reference simulator holds with recording on or off.
  obs::FlightRecorder* recorder = nullptr;
  /// Per-node battery budget in millijoules; 0 means unlimited. When a
  /// node's budget (drained per slot by radio state and per wakeup, using
  /// `energy`) reaches zero the node dies: it stops generating,
  /// transmitting, receiving, and draining. This is the network-lifetime
  /// model duty cycling exists to optimize.
  double battery_mj = 0.0;
  EnergyModel energy;
  /// Optional deterministic fault plan (sim/fault.hpp). When set, the
  /// simulator applies the plan's timestamped events at the start of each
  /// slot (crash/recover, battery spikes, jam bursts) and runs its
  /// continuous processes (Gilbert-Elliott bursty link loss, clock drift)
  /// against every transmission. Cost contract: null (the default) costs
  /// one predictable branch per slot and per hook site; armed fault
  /// randomness comes from per-link/per-node streams derived from the plan
  /// seed — never from the simulator's own rng_ — so a run with an
  /// armed-but-EMPTY plan is bit-identical to an unarmed run, and the
  /// reference-simulator golden equality holds with faults on. The plan
  /// must outlive the simulator and is shareable across cells (all mutable
  /// fault state lives in the simulator).
  const FaultPlan* fault_plan = nullptr;
  /// Optional shared read-only routing table. When set, next-hop queries go
  /// to this table instead of the simulator's internal one, so campaign
  /// cells replaying the same topology (runner/cache.hpp) share one set of
  /// BFS columns instead of each rebuilding them. The table must have been
  /// built over a graph identical to the simulator's and fully materialized
  /// via build_all_columns() (a lazily built table would mutate under
  /// concurrent readers). set_graph() reverts to the internal table, since
  /// the shared one no longer describes the topology.
  const net::RoutingTable* shared_routing = nullptr;
  /// Frame-level fast-forwarding (sim/fastforward.hpp): memoize per-frame
  /// deltas and replay them in O(state) across provably identical frames,
  /// turning static-topology lifetime runs from O(slots) into O(events).
  /// Produces BIT-IDENTICAL SimStats to a normal run — the golden tests
  /// assert exactly that — because the engine only ever replays frames it
  /// has verified exactly and falls back to slot-accurate stepping at every
  /// invalidation source (arrival, fault event, battery death crossing,
  /// topology change, armed flight recorder). The knob is a no-op (engine
  /// stays disarmed) unless the MAC reports a fast_forward_period() and the
  /// traffic source supports_lookahead(); it is also disarmed under channel
  /// imperfections (per-slot rng draws make frames unrepeatable).
  bool fast_forward = false;
};

class Simulator {
 public:
  /// Largest node count whose per-slot sets are pinned dense (word-parallel
  /// bitsets) from the first slot: a set of at most 8 words beats a sparse
  /// index list whatever its population. Representation never changes
  /// SimStats.
  static constexpr std::size_t kPinnedDenseMaxNodes = 512;
  /// Above kPinnedDenseMaxNodes the per-slot sets start adaptive and the
  /// first kDensityProbeSlots stepped slots measure the MAC's published
  /// sets. If the smaller of the two averages more members than a set has
  /// bitset words, sparse lists would be longer than the bitsets they
  /// replace, and every per-slot set is pinned dense for the rest of the
  /// run. Otherwise the sets stay adaptive, so slot cost scales with the
  /// slot's active population instead of n — the metropolitan regime where
  /// almost everyone sleeps.
  static constexpr std::uint64_t kDensityProbeSlots = 64;

  Simulator(net::Graph graph, MacProtocol& mac, TrafficSource& traffic,
            const SimConfig& config = {});

  /// Runs `slots` additional slots (cumulative; stats keep accumulating).
  void run(std::uint64_t slots);

  /// Swaps the topology (churn). Invalidates the routing cache; notifies
  /// the MAC. The node count must not change.
  void set_graph(net::Graph graph);

  /// Cross-checks the simulator's incremental state against its defining
  /// invariants and the MAC's slot sets against its per-node answers:
  ///
  ///   * every PacketQueue's ring invariants; backlogged_ and
  ///     unroutable_head_ agree with the queues and the routing table;
  ///   * dead_/battery_/slots_lived_ are mutually consistent and no dead
  ///     node is transmitting;
  ///   * per-node state-slot counters (pending phase-3 counts drained
  ///     first) never exceed the slots the node participated in (the
  ///     sleep-identity of finalize_sleep_counts()), and a node awake in
  ///     the last slot has woken and been counted awake;
  ///   * fill_slot_sets() agrees with can_receive()/wants_transmit()/
  ///     idle_state() per node, per the contract in mac.hpp (including the
  ///     sender_gates_on_receiver() gating and the sleep promise phase 3
  ///     relies on).
  ///
  /// O(n · queue depth) + one batched MAC query; intended for tests and
  /// debugging, not the hot path. Compiled to a no-op unless contract
  /// checks are enabled (TTDC_ENABLE_CHECKS); violations report through
  /// TTDC_DCHECK (abort, or ContractViolation in throw mode).
  void audit_invariants() const;

  /// Simulation statistics. Per-node state-slot and wake counts are
  /// materialized lazily on this call: phase 3 counts dense sets in
  /// bit-sliced banks and sleep slots are derived, not accumulated, so a
  /// slot costs O(words) per dense set and O(members) per sparse one, not
  /// one update per awake node. The operation is idempotent and logically
  /// const.
  [[nodiscard]] const SimStats& stats() const {
    const_cast<Simulator*>(this)->finalize_sleep_counts();
    return stats_;
  }
  [[nodiscard]] const net::Graph& graph() const { return graph_; }
  [[nodiscard]] std::uint64_t now() const { return now_; }
  /// True once the per-slot sets are pinned dense (see kDensityProbeSlots).
  [[nodiscard]] bool slot_sets_pinned() const { return sets_pinned_; }

  /// Backlog probe for SaturatedFlows.
  [[nodiscard]] std::size_t queue_size(std::size_t node) const {
    return queues_[node].size();
  }

  /// Pre-sizes the latency sample buffer (see LatencyStats::reserve).
  void reserve_latency(std::size_t n) { stats_.latency.reserve(n); }

  /// Fault-injection probes (only meaningful with an armed fault plan).
  [[nodiscard]] bool is_down(std::size_t node) const {
    return fault_armed_ && down_.test(node);
  }
  [[nodiscard]] bool is_jamming(std::size_t node) const {
    return fault_armed_ && jamming_.test(node);
  }

  /// Battery state (only meaningful when config.battery_mj > 0).
  [[nodiscard]] bool is_alive(std::size_t node) const { return !dead_.test(node); }
  [[nodiscard]] std::size_t alive_count() const { return dead_.size() - dead_.count(); }
  [[nodiscard]] double remaining_battery_mj(std::size_t node) const {
    return static_cast<double>(battery_[node]) / static_cast<double>(kBatteryUnitsPerMj);
  }

  /// Fast-forward accounting (all-zero when the engine is disarmed).
  /// Deliberately separate from stats(): SimStats must be bit-identical
  /// with fast-forwarding on or off.
  [[nodiscard]] FastForwardStats fast_forward_stats() const {
    return ff_ ? ff_->stats : FastForwardStats{};
  }

 private:
  void inject(std::size_t origin, std::size_t destination);
  void step();

  // --- frame-level fast-forwarding (sim/fastforward.cpp) ---
  /// Attempts to cover the frame starting at now_ (period slots) from the
  /// memo. Returns true when the frame was handled — replayed, or stepped-
  /// and-recorded on a memo miss — and false when an invalidation source
  /// vetoed it (caller steps one slot and retries at the next boundary).
  bool try_fast_forward(std::uint64_t period, std::uint64_t run_end);
  /// Hash of everything that determines the upcoming frame's outcome.
  [[nodiscard]] std::uint64_t frame_fingerprint(std::uint64_t period) const;
  /// Exact pre-state comparison (hash collisions must never replay).
  [[nodiscard]] bool verify_entry(const FastForwardState::Entry& entry) const;
  /// Steps `period` slots while snapshotting enough state to diff; inserts
  /// the resulting delta into the memo unless the frame was tainted.
  void record_frame(std::uint64_t key, std::uint64_t period);
  /// Applies a verified entry's delta k times in O(state).
  void replay_frame(const FastForwardState::Entry& entry, std::uint64_t period,
                    std::uint64_t k);

  // --- set representation (kPinnedDenseMaxNodes, kDensityProbeSlots) ---
  void pin_slot_sets();
  /// Adds this slot's MAC set populations to the probe; decides at its end.
  void probe_density();

  // --- pipeline phases (DESIGN.md §8) ---
  void collect_transmissions();  // phase 1
  void resolve_receptions();     // phase 2
  void account_energy();         // phase 3
  void kill_node(std::size_t v, std::uint64_t slots_lived);

  // --- fault injection (all no-ops / never called unless fault_armed_) ---
  /// Applies every plan event due at now_, then refreshes the per-slot
  /// jam_active_ / fault_out_ sets. Runs before traffic and the MAC see
  /// the slot.
  void apply_fault_events();
  void apply_fault_event(const FaultEvent& e);
  /// True when the transmission x -> y is lost to accumulated clock drift
  /// (deterministic: a pure function of the plan's rates and now_).
  [[nodiscard]] bool drift_lost(std::size_t x, std::size_t y) const;
  /// Advances link (x, y)'s Gilbert-Elliott chain to now_ (closed-form
  /// k-step transition, lazily — idle links cost nothing) and draws the
  /// loss verdict from the link's OWN SplitMix64-derived stream.
  bool ge_lost(std::size_t x, std::size_t y);
  /// Drains the phase-3 counter banks, then rewrites
  /// state_slots[v][kSleep] from the identity
  ///   sleep = slots_participated - transmit - receive - listen;
  /// phase 3 never increments sleep counts eagerly.
  void finalize_sleep_counts();
  /// Folds the pending phase-3 counts (transmit_slots_, listen_slots_,
  /// wake_counts_) into stats_. Idempotent; every reader of
  /// stats_.state_slots or stats_.wake_transitions calls it first.
  void drain_state_counts();

  /// Queue mutations funnel through these so backlogged_ and
  /// unroutable_head_ stay exact. Tracking head routability incrementally
  /// (one cached-column lookup per head change) is what lets phase 1 visit
  /// only eligible ∪ unroutable-head nodes instead of every backlogged
  /// node, while still dropping an unroutable packet in the slot its node
  /// would have been offered the channel.
  bool queue_push(std::size_t node, const Packet& p) {
    if (!queues_[node].push(p)) return false;
    backlogged_.set(node);
    if (queues_[node].size() == 1) refresh_head_routability(node);
    if (recording_) {
      record_flight(obs::FlightEvent::Kind::kEnqueued, node, p.origin, p.id,
                    static_cast<std::uint32_t>(queues_[node].size()));
      if (queues_[node].size() == 1) record_head_of_line(node);
    }
    return true;
  }
  void queue_pop(std::size_t node) {
    queues_[node].pop();
    if (queues_[node].empty()) {
      backlogged_.reset(node);
      unroutable_head_.reset(node);
    } else {
      refresh_head_routability(node);
      if (recording_) record_head_of_line(node);
    }
  }
  void refresh_head_routability(std::size_t node) {
    const std::size_t hop = routing_view_->next_hop(node, queues_[node].front().destination);
    if (hop == static_cast<std::size_t>(-1)) {
      unroutable_head_.set(node);
    } else {
      unroutable_head_.reset(node);
    }
  }

  /// Flight-recorder emission. Every hook site is guarded by `recording_`,
  /// which step() refreshes once per slot from the installed recorder and
  /// the process-wide arming flag (the contract documented on
  /// SimConfig::recorder).
  void record_flight(obs::FlightEvent::Kind kind, std::size_t node, std::size_t peer,
                     std::uint64_t packet_id, std::uint32_t aux = 0) {
    obs::FlightEvent e;
    e.slot = now_;
    e.packet_id = packet_id;
    e.node = static_cast<std::uint32_t>(node);
    e.peer = static_cast<std::uint32_t>(peer);
    e.aux = aux;
    e.kind = kind;
    config_.recorder->record(e);
  }
  /// kHeadOfLine for the current head of `node`'s (non-empty) queue; peer
  /// is the next hop (kNoNode when unroutable), aux the queue depth.
  void record_head_of_line(std::size_t node);
  /// kCollided at receiver y of transmitter x, with the interferer set
  /// (the OTHER transmitting neighbors of y) recovered word-parallel from
  /// the phase-2 intersection neighbors(y) AND transmitting_.
  void record_collision(std::size_t y, std::size_t x, std::uint64_t packet_id);

  net::Graph graph_;
  MacProtocol& mac_;
  TrafficSource& traffic_;
  SimConfig config_;
  util::Xoshiro256 rng_;
  RoutingTable routing_;
  // Either &routing_ or config_.shared_routing; all next-hop queries go
  // through this so the two cases share one code path.
  const RoutingTable* routing_view_ = nullptr;
  std::vector<PacketQueue> queues_;
  SimStats stats_;
  bool recording_ = false;  // per-slot sample of (recorder installed && armed)
  std::uint64_t now_ = 0;
  std::uint64_t next_packet_id_ = 0;

  // Per-slot scratch, kept here so the steady-state hot path never touches
  // the allocator (the zero-allocation invariant, DESIGN.md §8). All node
  // sets are SlotSets: pinned dense up to kPinnedDenseMaxNodes nodes, above
  // it adaptive unless the density probe pins them.
  bool sets_pinned_ = false;
  bool probing_ = false;               // density probe still running
  std::uint64_t probe_slots_ = 0;
  std::uint64_t probe_members_ = 0;    // sum of min(|receivers|, |eligible|)
  std::vector<std::size_t> tx_nodes_;
  std::vector<std::size_t> tx_targets_;
  util::SlotSet transmitting_;  // this slot's transmitters
  util::SlotSet receivers_;     // MAC's awake-receiver set for the slot
  util::SlotSet eligible_;      // MAC's eligible-transmitter set
  util::SlotSet backlogged_;    // {v : queue non-empty}, kept incrementally
  util::SlotSet unroutable_head_;  // {v : head of v's queue has no route}
  util::SlotSet prev_awake_;    // previous-slot awake set (wakeup accounting)
  util::SlotSet listen_;        // phase-3 scratch
  util::SlotSet awake_now_;     // phase-3 scratch
  util::SlotSet woke_;          // phase-3 scratch
  util::SlotSet scratch_;       // general per-slot scratch
  // Phase-3 counts not yet in stats_: transmit and listen slots and wake
  // transitions per node, bit-sliced (util/counter_planes.hpp).
  util::CounterPlanes transmit_slots_;
  util::CounterPlanes listen_slots_;
  util::CounterPlanes wake_counts_;
  // Battery bookkeeping is INTEGER: nano-millijoule units, converted once
  // from the double-valued config at construction. Integer drains make
  // "k frames of idle cost exactly k * per-frame cost" an identity rather
  // than a floating-point accident, which is what lets the fast-forward
  // engine lump whole stretches of frames into one subtraction and still
  // match the slot-by-slot run bit for bit.
  std::vector<std::int64_t> battery_;  // remaining units per node (battery_mj > 0 only)
  util::SlotSet dead_;          // depleted nodes
  // Slots whose radio accounting included the node (its lifetime in slots),
  // kStillAlive while alive. A node drained to zero in phase 3 lived
  // through its death slot; one killed by a fault at slot start did not.
  std::vector<std::uint64_t> slots_lived_;

  // Fault-injection state (sized / maintained only when fault_armed_).
  bool fault_armed_ = false;          // config_.fault_plan != nullptr
  bool fault_world_ = false;          // plan has timestamped events (crash/jam/...)
  bool fault_drift_ = false;          // plan has drift rates
  bool fault_ge_ = false;             // plan has an armed Gilbert-Elliott channel
  std::size_t fault_cursor_ = 0;      // next unapplied plan event
  util::SlotSet down_;          // crashed (recoverable) nodes
  util::SlotSet jamming_;       // nodes inside a jam burst
  util::SlotSet jam_active_;    // per slot: jamming_ minus dead_/down_
  util::SlotSet fault_out_;     // per slot: down_ | jam_active_ (phase-1 skip set)
  std::vector<std::uint64_t> down_since_;  // crash slot while down (recover aux)
  struct GeLink {
    util::Xoshiro256 rng;    // this link's private coin stream
    std::uint64_t last_slot = 0;
    bool bad = false;
  };
  std::unordered_map<std::uint64_t, GeLink> ge_links_;  // key = x * n + y
  // Per-slot energy constants in battery units (see battery_ above).
  std::int64_t b_transmit_ = 0, b_listen_ = 0, b_sleep_ = 0;
  std::int64_t b_wakeup_ = 0;

  // Fast-forward engine state; null whenever the arming conditions in the
  // constructor do not hold, in which case run() is byte-for-byte the
  // plain stepping loop.
  std::unique_ptr<FastForwardState> ff_;

  static constexpr std::uint64_t kStillAlive = ~std::uint64_t{0};
  /// Battery integer scale: 1e9 units per millijoule. The smallest per-slot
  /// cost (sleep, 3e-5 mJ) is 30 000 units, so every radio-state cost is
  /// exactly representable; the largest budget that fits comfortably is
  /// ~9e9 mJ, far beyond any config in the tree.
  static constexpr std::int64_t kBatteryUnitsPerMj = 1'000'000'000;
};

}  // namespace ttdc::sim
