// The simulator hot path (DESIGN.md §8): golden equivalence between the
// reference simulator and sim::Simulator for every MAC protocol, on one
// network small enough for pinned-dense slot sets and one large enough for
// adaptive ones; SimStats that do not depend on when stats() drains the
// phase-3 counter banks; the MAC slot-set contract; the lazy routing cache;
// the ring-buffer packet queue; and the zero-allocation steady-state
// invariant of Simulator::step() (verified with a global operator-new
// counting hook).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <type_traits>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "golden.hpp"
#include "net/routing.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/check.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: replaces the global operator new for this test
// binary. The zero-allocation test snapshots the counter around sim.run();
// everything else is unaffected (the counter is a relaxed atomic increment).
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC pairs call sites of the replacement operator new with the free() in
// the replacement operator delete and flags a mismatch; both sides go
// through malloc/free, so the pairing is exactly right.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
// ---------------------------------------------------------------------------

namespace ttdc::sim {
namespace {

using core::Schedule;
using golden::expect_identical_stats;

constexpr std::size_t kN = 36;
constexpr std::size_t kD = 4;
constexpr std::uint64_t kSlots = 10000;

/// A bounded-degree network with its duty-cycled schedule.
struct World {
  std::size_t n;
  net::Graph graph;
  Schedule duty;
  std::uint64_t slots;
};

World make_world(std::size_t n, std::uint64_t slots) {
  util::Xoshiro256 rng(21);
  return {n, net::random_bounded_degree_graph(n, kD, 2 * n, rng),
          core::construct_duty_cycled(
              core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kD), n)),
              kD, 4, n / 3),
          slots};
}

/// One world on each side of Simulator::kPinnedDenseMaxNodes. Above it the
/// duty-cycled schedule's few-member sets stay adaptive, while the denser
/// MACs are pinned dense by the density probe a few dozen slots in.
const std::vector<World>& worlds() {
  static const std::vector<World> kWorlds = [] {
    std::vector<World> w;
    w.push_back(make_world(kN, kSlots));
    w.push_back(make_world(Simulator::kPinnedDenseMaxNodes + 128, kSlots / 4));
    return w;
  }();
  return kWorlds;
}

/// Reference vs pipeline on every world; make_mac(world) and rate pick the
/// MAC and the Bernoulli load.
template <typename MacFactory>
void expect_pipeline_matches_reference(MacFactory make_mac, double rate, SimConfig config) {
  for (const World& w : worlds()) {
    SCOPED_TRACE("n=" + std::to_string(w.n));
    golden::expect_matches_reference(
        w.graph, [&] { return make_mac(w); },
        [&] { return std::make_unique<BernoulliTraffic>(w.n, rate); }, config, w.slots);
  }
}

TEST(HotPathGolden, DutyCycledScheduleMac) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<DutyCycledScheduleMac>(w.duty); }, 0.01,
      {.seed = 101});
}

TEST(HotPathGolden, DutyCycledScheduleMacNaiveSenders) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<DutyCycledScheduleMac>(w.duty, false); },
      0.01, {.seed = 102});
}

TEST(HotPathGolden, SlottedAlohaMac) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<SlottedAlohaMac>(w.n, 0.08); }, 0.02,
      {.seed = 103});
}

TEST(HotPathGolden, UncoordinatedSleepMac) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<UncoordinatedSleepMac>(w.n, 0.3, 0.5); },
      0.02, {.seed = 104});
}

TEST(HotPathGolden, CommonActivePeriodMac) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<CommonActivePeriodMac>(w.n, 10, 3, 0.2); },
      0.02, {.seed = 105});
}

TEST(HotPathGolden, ColoringTdmaMac) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<ColoringTdmaMac>(w.graph); }, 0.02,
      {.seed = 106});
}

TEST(HotPathGolden, LossyChannelDrawsIdenticalRngStream) {
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<DutyCycledScheduleMac>(w.duty); }, 0.02,
      {.seed = 107, .packet_error_rate = 0.1, .sync_miss_rate = 0.05});
}

TEST(HotPathGolden, BatteryDeathsAndWakeAccounting) {
  SimConfig config{.seed = 108};
  config.battery_mj = 40.0;  // dies after ~60 listen slots: plenty of deaths
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<DutyCycledScheduleMac>(w.duty); }, 0.02,
      config);

  SimConfig uconfig{.seed = 109};
  uconfig.battery_mj = 25.0;
  expect_pipeline_matches_reference(
      [](const World& w) { return std::make_unique<UncoordinatedSleepMac>(w.n, 0.4, 0.5); },
      0.02, uconfig);
}

TEST(HotPathGolden, TopologyChurnKeepsPathsAligned) {
  // Same churn sequence on both simulators: set_graph between epochs.
  const auto run = [](auto tag, const World& w) {
    using Sim = typename decltype(tag)::type;
    DutyCycledScheduleMac mac(w.duty);
    BernoulliTraffic traffic(w.n, 0.01);
    util::Xoshiro256 topo_rng(1);
    Sim sim(net::random_bounded_degree_graph(w.n, kD, 2 * w.n, topo_rng), mac, traffic,
            {.seed = 110});
    const std::uint64_t epoch_slots = w.slots * 3 / 20;  // 1,500 on the n = 36 world
    for (int epoch = 0; epoch < 4; ++epoch) {
      sim.run(epoch_slots);
      sim.set_graph(net::random_bounded_degree_graph(w.n, kD, 2 * w.n, topo_rng));
    }
    sim.run(epoch_slots);
    return sim.stats();
  };
  for (const World& w : worlds()) {
    SCOPED_TRACE("n=" + std::to_string(w.n));
    expect_identical_stats(run(std::type_identity<ReferenceSimulator>{}, w),
                           run(std::type_identity<Simulator>{}, w));
  }
}

// -------------------------------------------------- stats() call patterns

/// One Simulator run that reads stats() after every `chunk` slots. Phase 3
/// counts into bit-sliced banks that drain into SimStats on every read, so
/// the final stats must not depend on when, or how often, they were read.
struct ReadRun {
  SimStats stats;
  FastForwardStats ff;
  bool pinned = false;
};

template <typename MacFactory, typename TrafficFactory>
ReadRun run_reading_every(const net::Graph& graph, MacFactory&& make_mac,
                          TrafficFactory&& make_traffic, const SimConfig& config,
                          std::uint64_t slots, std::uint64_t chunk) {
  auto mac = make_mac();
  auto traffic = make_traffic();
  Simulator sim(graph, *mac, *traffic, config);
  for (std::uint64_t done = 0; done < slots;) {
    done += std::min(chunk, slots - done);
    sim.run(done - sim.now());
    EXPECT_EQ(sim.stats().slots_run, done);
  }
  return {sim.stats(), sim.fast_forward_stats(), sim.slot_sets_pinned()};
}

/// Reads after every slot, after every frame and once at the end all give
/// the reference simulator's SimStats. Returns the read-once run.
template <typename MacFactory, typename TrafficFactory>
ReadRun expect_reads_do_not_change_stats(const net::Graph& graph, MacFactory make_mac,
                                         TrafficFactory make_traffic, const SimConfig& config,
                                         std::uint64_t slots, std::uint64_t frame) {
  const SimStats reference =
      golden::run<ReferenceSimulator>(graph, make_mac, make_traffic, config, slots);
  ReadRun once;
  for (const std::uint64_t chunk : {std::uint64_t{1}, frame, slots}) {
    SCOPED_TRACE("stats() every " + std::to_string(chunk) + " slots");
    ReadRun run = run_reading_every(graph, make_mac, make_traffic, config, slots, chunk);
    expect_identical_stats(reference, run.stats);
    if (chunk == slots) once = std::move(run);
  }
  return once;
}

TEST(HotPathGolden, StatsReadPatternPinnedWorld) {
  const World& w = worlds().front();
  ASSERT_LE(w.n, Simulator::kPinnedDenseMaxNodes);
  const ReadRun once = expect_reads_do_not_change_stats(
      w.graph, [&] { return std::make_unique<DutyCycledScheduleMac>(w.duty); },
      [&] { return std::make_unique<BernoulliTraffic>(w.n, 0.01); }, {.seed = 111}, w.slots,
      w.duty.frame_length());
  EXPECT_TRUE(once.pinned);
}

// The metro regime at test size: n above kPinnedDenseMaxNodes with
// αR = n/3, so the receiver (listen) sets are dense adaptive sets while the
// transmitter sets stay sparse and the density probe leaves them adaptive.
TEST(HotPathGolden, StatsReadPatternMetroShapedWorld) {
  const World& w = worlds().back();
  ASSERT_GT(w.n, Simulator::kPinnedDenseMaxNodes);
  {
    DutyCycledScheduleMac mac(w.duty);
    util::Xoshiro256 rng(1);
    util::SlotSet receivers(w.n), eligible(w.n);
    for (std::uint64_t slot = 0; slot < w.duty.frame_length(); ++slot) {
      mac.begin_slot(slot, rng);
      mac.fill_slot_sets(receivers, eligible);
      ASSERT_GT(receivers.count(), util::SlotSet::promote_threshold(w.n)) << "slot " << slot;
      ASSERT_TRUE(receivers.is_dense());
    }
  }
  const ReadRun once = expect_reads_do_not_change_stats(
      w.graph, [&] { return std::make_unique<DutyCycledScheduleMac>(w.duty); },
      [&] { return std::make_unique<ConvergecastTraffic>(w.n, 0, 0.002); }, {.seed = 112},
      w.slots, w.duty.frame_length());
  EXPECT_FALSE(once.pinned);
  EXPECT_GT(once.stats.delivered, 0u);
}

// Fast-forward on, batteries that run out: record_frame snapshots and diffs
// the state counts, so it must see them drained, and replayed frames add
// their deltas on top of counts still pending in the banks.
TEST(HotPathGolden, StatsReadPatternFastForwardLifetimeWorld) {
  const World& w = worlds().front();
  SimConfig config{.seed = 113};
  config.battery_mj = 2000.0;  // first death after roughly 10^4 slots
  config.fast_forward = true;
  const std::uint64_t slots = 4 * w.slots;
  // Sparse enough that most frames carry no arrival and can be replayed.
  const ReadRun once = expect_reads_do_not_change_stats(
      w.graph, [&] { return std::make_unique<DutyCycledScheduleMac>(w.duty); },
      [&] { return std::make_unique<LookaheadConvergecastTraffic>(w.n, 0, 1e-4, 0x77); },
      config, slots, w.duty.frame_length());
  EXPECT_GT(once.ff.frames_recorded, 0u);
  EXPECT_GT(once.ff.frames_replayed, 0u);
  EXPECT_GT(once.stats.deaths, 0u);
}

// Under slotted ALOHA every non-transmitting node listens, so a run longer
// than a bank's capacity, read once, pushes listen counts past what the
// planes hold: the banks must drain themselves into SimStats on the way.
TEST(HotPathGolden, RunLongerThanABankHoldsMatchesReference) {
  const World& w = worlds().front();
  const std::uint64_t slots = util::CounterPlanes::kCapacity + 5000;
  golden::expect_matches_reference(
      w.graph, [&] { return std::make_unique<SlottedAlohaMac>(w.n, 0.05); },
      [&] { return std::make_unique<BernoulliTraffic>(w.n, 0.002); }, {.seed = 114}, slots);
}

// ------------------------------------------------------- slot-set contract

/// Checks fill_slot_sets() against the per-node interface for whatever slots
/// the MAC is currently in: receivers must mirror can_receive, and the
/// batched transmit rule must mirror wants_transmit for every (v, target).
void expect_slot_sets_match(MacProtocol& mac, std::size_t n, std::uint64_t slots) {
  util::Xoshiro256 rng(5);
  util::SlotSet receivers(n), transmitters(n);
  for (std::uint64_t slot = 0; slot < slots; ++slot) {
    mac.begin_slot(slot, rng);
    const bool batched = mac.fill_slot_sets(receivers, transmitters);
    ASSERT_TRUE(batched);
    const bool gates = mac.sender_gates_on_receiver();
    for (std::size_t v = 0; v < n; ++v) {
      EXPECT_EQ(receivers.test(v), mac.can_receive(v)) << "slot " << slot << " v " << v;
      for (std::size_t target = 0; target < n; ++target) {
        if (target == v) continue;
        const bool batched_tx =
            transmitters.test(v) && (!gates || receivers.test(target));
        EXPECT_EQ(batched_tx, mac.wants_transmit(v, target))
            << "slot " << slot << " v " << v << " target " << target;
      }
      // The sleep contract: not transmitting-eligible, not receiving =>
      // the node's idle state is sleep.
      if (!receivers.test(v) && !transmitters.test(v)) {
        EXPECT_EQ(mac.idle_state(v), RadioState::kSleep);
      }
    }
  }
}

TEST(MacSlotSets, AllInTreeMacsMatchScalarInterface) {
  const World& w = worlds().front();
  DutyCycledScheduleMac aware(w.duty), naive(w.duty, false);
  expect_slot_sets_match(aware, kN, 2 * w.duty.frame_length());
  expect_slot_sets_match(naive, kN, 2 * w.duty.frame_length());
  SlottedAlohaMac aloha(kN, 0.3);
  expect_slot_sets_match(aloha, kN, 50);
  UncoordinatedSleepMac unco(kN, 0.4, 0.5);
  expect_slot_sets_match(unco, kN, 50);
  CommonActivePeriodMac smac(kN, 8, 3, 0.4);
  expect_slot_sets_match(smac, kN, 24);
  ColoringTdmaMac tdma(w.graph);
  expect_slot_sets_match(tdma, kN, 40);
}

TEST(MacSlotSets, ScheduleSizeMismatchIsAContractViolation) {
  // A schedule over fewer nodes than the simulated graph would be read past
  // its bitsets; the always-on check must refuse it in every build type.
  check::ScopedThrowOnViolation guard;
  const World& small = worlds().front();
  DutyCycledScheduleMac mac(small.duty);
  util::SlotSet receivers(small.n + 8), transmitters(small.n + 8);
  try {
    mac.fill_slot_sets(receivers, transmitters);
    FAIL() << "fill_slot_sets accepted a graph larger than its schedule";
  } catch (const check::ContractViolation& e) {
    EXPECT_NE(std::string(e.what()).find("schedule has"), std::string::npos) << e.what();
  }
  BernoulliTraffic traffic(small.n + 8, 0.01);
  Simulator sim(net::path_graph(small.n + 8), mac, traffic, {.seed = 1});
  EXPECT_THROW(sim.run(1), check::ContractViolation);
}

// ------------------------------------------------------------ routing cache

TEST(RoutingCache, ColumnsBuildLazilyAndInvalidateOnSetGraph) {
  net::Graph path = net::path_graph(5);
  net::RoutingTable table(path);
  EXPECT_EQ(table.cached_destinations(), 0u);
  EXPECT_EQ(table.next_hop(0, 4), 1u);
  EXPECT_EQ(table.cached_destinations(), 1u);  // only dst=4 materialized
  EXPECT_EQ(table.next_hop(3, 4), 4u);
  EXPECT_EQ(table.cached_destinations(), 1u);  // cache hit, no new column
  EXPECT_EQ(table.next_hop(4, 4), 4u);
  EXPECT_EQ(table.next_hop(4, 0), 3u);
  EXPECT_EQ(table.cached_destinations(), 2u);

  // Add a chord 0-4: the shortest path changes only after invalidation.
  net::Graph chord = net::path_graph(5);
  chord.add_edge(0, 4);
  table.set_graph(chord);
  EXPECT_EQ(table.cached_destinations(), 0u);
  EXPECT_EQ(table.next_hop(0, 4), 4u);

  // Unreachable destinations keep reporting SIZE_MAX.
  net::Graph split(4);
  split.add_edge(0, 1);
  split.add_edge(2, 3);
  net::RoutingTable t2(split);
  EXPECT_EQ(t2.next_hop(0, 3), static_cast<std::size_t>(-1));
  EXPECT_EQ(t2.next_hop(2, 3), 3u);
}

// --------------------------------------------------------- ring PacketQueue

TEST(PacketQueueRing, WrapsAroundWithoutLosingFifoOrder) {
  PacketQueue q(3);
  auto pkt = [](std::uint64_t id) {
    Packet p;
    p.id = id;
    return p;
  };
  EXPECT_TRUE(q.push(pkt(1)));
  EXPECT_TRUE(q.push(pkt(2)));
  EXPECT_TRUE(q.push(pkt(3)));
  EXPECT_FALSE(q.push(pkt(4)));  // full: dropped
  EXPECT_EQ(q.front().id, 1u);
  q.pop();
  EXPECT_TRUE(q.push(pkt(5)));  // head has wrapped past the buffer start
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.front().id, 2u);
  q.pop();
  EXPECT_EQ(q.front().id, 3u);
  q.pop();
  EXPECT_EQ(q.front().id, 5u);
  q.pop();
  EXPECT_TRUE(q.empty());
}

// ------------------------------------------------------- zero allocations

/// Counts allocations over a 2000-slot steady-state window of a saturated
/// convergecast run on `w`, read through stats() every 100 slots (which
/// drains the phase-3 counter banks), plus `known_allocations` deliberate
/// allocations inside the window.
std::uint64_t allocations_in_window(const World& w, int known_allocations) {
  DutyCycledScheduleMac mac(w.duty);
  ConvergecastTraffic traffic(w.n, 0, 0.02);  // single sink: one routing column
  Simulator sim(w.graph, mac, traffic, {.seed = 200});
  sim.run(3000);  // steady state: routing column built, queues saturated
  // Latency samples are the one unbounded buffer; pre-size it for the
  // measured window (the paper's experiments do the same via reserve()).
  sim.reserve_latency(sim.stats().latency.count() + 8192);
  // Above kPinnedDenseMaxNodes this is the metro regime: sets left
  // adaptive by the density probe.
  EXPECT_EQ(sim.slot_sets_pinned(), w.n <= Simulator::kPinnedDenseMaxNodes);
  std::uint64_t listen_slots = 0;
  const std::uint64_t before = g_alloc_count.load(std::memory_order_relaxed);
  for (int chunk = 0; chunk < 20; ++chunk) {
    sim.run(100);
    listen_slots = sim.stats().state_slots[0][static_cast<std::size_t>(RadioState::kListen)];
  }
  for (int i = 0; i < known_allocations; ++i) {
    // A direct operator-new call: unlike a new-expression, it cannot be
    // elided, so the hook must see it.
    ::operator delete(::operator new(64));
  }
  const std::uint64_t after = g_alloc_count.load(std::memory_order_relaxed);
  EXPECT_GT(sim.stats().delivered, 0u);      // the window did real work
  EXPECT_GT(sim.stats().transmissions, 0u);  // including phase-2 resolution
  EXPECT_GT(listen_slots, 0u);               // and phase 3
  return after - before;
}

TEST(HotPathAllocations, BatchedStepIsAllocationFreeInSteadyState) {
  for (const World& w : worlds()) {
    EXPECT_EQ(allocations_in_window(w, 0), 0u)
        << "Simulator::step() allocated on the hot path at n=" << w.n;
  }
}

TEST(HotPathAllocations, CountingHookSeesKnownAllocations) {
  // Control for the test above: the same window plus three deliberate
  // allocations must count exactly three, proving the hook observes this
  // binary's allocations and the window itself adds none.
  EXPECT_EQ(allocations_in_window(worlds().front(), 3), 3u);
}

}  // namespace
}  // namespace ttdc::sim
