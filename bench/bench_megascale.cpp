// Metropolitan-scale pipeline bench (DESIGN.md §13): sim::Simulator slot
// rate at n in {1e3, 1e4, 1e5} under a low-duty round-robin schedule (2
// awake slots per frame of 8192 ≈ 0.02% duty — the regime where the
// expected active population per slot is ≪ n, which is where metropolitan-
// scale duty cycling lives). Every size is above
// Simulator::kPinnedDenseMaxNodes and its slots hold far fewer members than
// a bitset has words, so the per-slot sets stay adaptive and slot cost
// tracks the active population. Gate: the pipeline at n = 10^4 runs at
// least as many slots/sec as it manages at n = 800 under the classic regime
// (frame 41, ~5% duty — dense enough that the density probe pins its sets):
// "a 12.5x bigger city, same wall-clock", decided on the median per-round
// ratio of the two interleaved rows (bench/harness.hpp).
// scripts/run_benches.sh --perf-check additionally holds
// n10000_slots_per_sec within 25% of the committed baseline.
//
// Rates are per-round medians with their quartiles; the n = 10^3 and 10^5
// rows are measured alone (single-arm rounds).
//
// Before anything is timed, the reference simulator (tests/reference) and
// the pipeline must produce identical SimStats on this workload at one size
// on each side of kPinnedDenseMaxNodes, the larger one both with sets the
// density probe pins and with sets it leaves adaptive (the full cross-MAC
// golden matrix lives in tests/test_megascale.cpp). Emits
// BENCH_megascale.json.
//
// --smoke: small sizes, few rounds, no perf gates — the CI Release job runs
// this to prove the megascale path stays alive and agrees with the
// reference without paying for a full calibrated run.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "reference_simulator.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/slot_set.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kFrame = 8192;    // duty cycle 2/kFrame ≈ 0.024%
constexpr std::size_t kMaxDegree = 6;
constexpr std::size_t kBatch = 1;       // packets injected per slot; O(batch)
                                        // traffic keeps the common per-slot
                                        // work small so the pipeline is
                                        // what gets measured
constexpr std::size_t kQueueCap = 4;    // small sensor buffers; keeps the
                                        // queue arena cache-resident
constexpr std::uint64_t kWarmup = 2000;
constexpr std::size_t kGateN = 10000;
constexpr std::size_t kClassicN = 800;
constexpr std::size_t kClassicFrame = 41;  // ~4.9% duty: the classic regime

/// Synthetic low-duty schedule, built directly as SlotSets so fill cost is
/// O(active) on adaptive slot sets: in slot t (mod frame) the residue class
/// t transmits and the residue class t+1 listens. Senders are naive (no
/// receiver gating), so every backlogged transmitter fires in its slot.
class RoundRobinMac final : public sim::MacProtocol {
 public:
  RoundRobinMac(std::size_t n, std::size_t frame) : frame_(frame) {
    members_.assign(frame, util::SlotSet(n));
    for (std::size_t v = 0; v < n; ++v) members_[v % frame].set(v);
  }

  void begin_slot(std::uint64_t slot, util::Xoshiro256&) override {
    cur_ = static_cast<std::size_t>(slot % frame_);
  }
  [[nodiscard]] bool can_receive(std::size_t v) const override {
    return v % frame_ == (cur_ + 1) % frame_;
  }
  [[nodiscard]] bool wants_transmit(std::size_t v, std::size_t) const override {
    return v % frame_ == cur_;
  }
  [[nodiscard]] sim::RadioState idle_state(std::size_t v) const override {
    return can_receive(v) ? sim::RadioState::kListen : sim::RadioState::kSleep;
  }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    transmitters.copy_from(members_[cur_]);
    receivers.copy_from(members_[(cur_ + 1) % frame_]);
    return true;
  }

 private:
  std::size_t frame_;
  std::size_t cur_ = 0;
  std::vector<util::SlotSet> members_;
};

struct World {
  net::Positions pos;
  net::DomainGrid grid;
  net::Graph graph;
};

World make_world(std::size_t n) {
  util::Xoshiro256 rng(0xC170 ^ static_cast<std::uint64_t>(n));
  net::Positions pos = net::random_positions(n, rng);
  const double radius = std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
  net::DomainGrid grid(pos, radius);
  net::Graph graph = net::unit_disk_graph(pos, radius, kMaxDegree, grid);
  return {std::move(pos), std::move(grid), std::move(graph)};
}

sim::SimConfig base_config() {
  sim::SimConfig cfg;
  cfg.seed = 11;
  cfg.drop_unroutable = true;  // islands shed load instead of accumulating
  cfg.queue_capacity = kQueueCap;
  return cfg;
}

template <typename Sim>
sim::SimStats run_stats(const World& world, std::size_t frame, std::uint64_t slots) {
  const std::size_t n = world.graph.num_nodes();
  RoundRobinMac mac(n, frame);
  sim::BatchArrivalTraffic traffic(n, /*sink=*/0, kBatch);
  Sim sim(world.graph, mac, traffic, base_config());
  sim.run(slots);
  return sim.stats();
}

double slot_rate_once(const World& world, std::size_t frame, std::uint64_t timed) {
  const std::size_t n = world.graph.num_nodes();
  RoundRobinMac mac(n, frame);
  sim::BatchArrivalTraffic traffic(n, /*sink=*/0, kBatch);
  sim::Simulator sim(world.graph, mac, traffic, base_config());
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(timed);
  return static_cast<double>(timed) / timer.seconds();
}

std::uint64_t timed_slots(std::size_t n, bool smoke) {
  // Floor high enough that a rep amortizes cold caches on a freshly
  // constructed simulator; the pipeline at the gate size covers a rep in
  // ~10 ms.
  const std::uint64_t scaled = 16'000'000 / n;
  const std::uint64_t slots = scaled < 20'000 ? 20'000 : scaled;
  return smoke ? slots / 20 : slots;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const int rounds = smoke ? 3 : 9;

  obs::BenchReport report("megascale");
  report.param("mac", "round_robin_frame_8192");
  report.param("duty_cycle", 2.0 / static_cast<double>(kFrame));
  report.param("classic_duty_cycle", 2.0 / static_cast<double>(kClassicFrame));
  report.param("traffic", "batch_arrival_1_per_slot");
  report.param("rounds", static_cast<std::int64_t>(rounds));
  report.param("warmup_slots", static_cast<std::int64_t>(kWarmup));
  report.param("gate_n", static_cast<std::int64_t>(kGateN));
  report.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  bool ok = true;
  struct Check {
    std::size_t n, frame;
  };
  for (const Check c : {Check{sim::Simulator::kPinnedDenseMaxNodes - 112, kClassicFrame},
                        Check{sim::Simulator::kPinnedDenseMaxNodes + 488, kClassicFrame},
                        Check{sim::Simulator::kPinnedDenseMaxNodes + 488, kFrame}}) {
    // Equality tripwire before timing anything: the reference simulator
    // and the pipeline must count the same world.
    const World world = make_world(c.n);
    const bool agree = run_stats<sim::ReferenceSimulator>(world, c.frame, 2000) ==
                       run_stats<sim::Simulator>(world, c.frame, 2000);
    std::cout << "reference == pipeline @ n=" << c.n << " frame " << c.frame << ": "
              << (agree ? "yes" : "MISMATCH") << "\n";
    ok = ok && agree;
  }

  const auto arm = [smoke](const World& world, std::size_t frame) {
    const std::uint64_t timed = timed_slots(world.graph.num_nodes(), smoke);
    return [&world, frame, timed] { return slot_rate_once(world, frame, timed); };
  };
  const auto single_row = [&](std::size_t n) {
    const World world = make_world(n);
    const bench::Spread rate = bench::interleave(rounds, {arm(world, kFrame)})[0].rate;
    std::cout << "  " << n << "  " << rate << "\n";
    // Built by appends: gcc 12 misfires -Wrestrict on "literal" + string.
    std::string key = "n";
    key += std::to_string(n);
    bench::write(report, key + "_slots_per_sec", rate);
  };

  std::cout << "megascale pipeline (slots/sec, frame " << kFrame
            << "; median [q1, q3] of " << rounds << " rounds)\n";
  single_row(1000);
  // The scale gate: the n = 10^4 low-duty row against the pipeline at
  // n = 800 under the classic duty cycle, interleaved.
  const World classic = make_world(kClassicN);
  const World gate_world = make_world(kGateN);
  const auto scale = bench::interleave(
      rounds, {arm(classic, kClassicFrame), arm(gate_world, kFrame)});
  std::cout << "  " << kGateN << "  " << scale[1].rate << "\n";
  bench::write(report, "n800_classic_slots_per_sec", scale[0].rate);
  bench::write(report, "n10000_slots_per_sec", scale[1].rate);
  bench::write(report, "n10000_over_classic", scale[1].ratio);
  if (!smoke) single_row(100000);
  std::cout << "classic @ n=" << kClassicN << " (frame " << kClassicFrame
            << "): " << scale[0].rate << "\n";

  const bool scale_ok = scale[1].ratio.median >= 1.0;
  std::cout << "\npipeline @ n=" << kGateN << " / classic @ n=" << kClassicN << ": "
            << scale[1].ratio << " (gate >= 1): " << (scale_ok ? "CONFIRMED" : "FAILED")
            << "\n";
  if (!smoke) ok = ok && scale_ok;
  report.metric("ok", ok ? 1 : 0);
  report.write();
  // Smoke mode proves the path runs and matches the reference; it is too
  // short to hold the calibrated perf gates.
  return ok ? 0 : 1;
}
