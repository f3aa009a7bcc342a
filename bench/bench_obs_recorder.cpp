// Flight-recorder cost contract (DESIGN.md §11): a recording run may be at
// most 10% slower than the same run without a recorder. Three arms — no
// recorder, recorder attached but disarmed (FlightRecorder::enable(false)),
// recorder armed — run interleaved in rounds (bench/harness.hpp); each
// overhead is the median per-round no-recorder/arm ratio minus one,
// reported with its quartiles. The gate decides on the armed median. The
// disarmed arm (one relaxed load + branch per event batch) is reported
// alongside as the same estimator's read of a near-zero cost.
#include <cstddef>
#include <iostream>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "harness.hpp"
#include "net/topology.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kNodes = 200;
constexpr std::size_t kDegree = 4;
constexpr std::uint64_t kWarmup = 1000;
constexpr std::uint64_t kTimedSlots = 8'000;
constexpr int kRounds = 33;
constexpr double kMaxOverhead = 0.10;
// 4096 events keep the ring (56 B/event) inside L2: what this gates is the
// CPU cost of recording, and a multi-MB ring instead measures how loaded
// the memory system happens to be (the ring wraps either way, so the
// per-event work is identical to a capture-sized ring).
constexpr std::size_t kRingCapacity = 1 << 12;

enum class Mode { kOff, kDisarmed, kArmed };

double slot_rate_once(const net::Graph& g, const core::Schedule& duty, Mode mode) {
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(g.num_nodes(), 0.01);
  obs::FlightRecorder recorder(kRingCapacity);
  obs::FlightRecorder::enable(mode != Mode::kDisarmed);
  sim::SimConfig config{.seed = 7};
  if (mode != Mode::kOff) config.recorder = &recorder;
  sim::Simulator sim(g, mac, traffic, config);
  sim.run(kWarmup);
  util::Timer timer;
  sim.run(kTimedSlots);
  const double rate = static_cast<double>(kTimedSlots) / timer.seconds();
  obs::FlightRecorder::enable(true);  // restore the global default
  return rate;
}

}  // namespace

int main() {
  obs::BenchReport report("obs_recorder");
  report.param("mac", "DutyCycledScheduleMac");
  report.param("traffic", "bernoulli_0.01");
  report.param("n", static_cast<std::int64_t>(kNodes));
  report.param("rounds", static_cast<std::int64_t>(kRounds));
  report.param("ring_capacity", static_cast<std::int64_t>(kRingCapacity));
  report.param("max_overhead", kMaxOverhead);

  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(kNodes, kDegree, 2 * kNodes, rng);
  const core::Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kNodes, kDegree), kNodes)),
      kDegree, 4, kNodes / 3);

  const auto arm = [&](Mode mode) {
    return [&, mode] { return slot_rate_once(g, duty, mode); };
  };
  const auto results =
      bench::interleave(kRounds, {arm(Mode::kOff), arm(Mode::kDisarmed), arm(Mode::kArmed)});
  const bench::Spread disarmed_overhead = bench::overhead(results[1].ratio);
  const bench::Spread armed_overhead = bench::overhead(results[2].ratio);

  std::cout << "flight recorder cost (n=" << kNodes << ", " << kTimedSlots << " timed slots, "
            << kRounds << " interleaved rounds; median [q1, q3])\n"
            << "  no recorder:        " << results[0].rate << " slots/s\n"
            << "  attached, disarmed: " << results[1].rate << " slots/s (overhead "
            << disarmed_overhead << ")\n"
            << "  attached, armed:    " << results[2].rate << " slots/s (overhead "
            << armed_overhead << ")\n";

  bench::write(report, "off_slots_per_sec", results[0].rate);
  bench::write(report, "disarmed_slots_per_sec", results[1].rate);
  bench::write(report, "armed_slots_per_sec", results[2].rate);
  bench::write(report, "disarmed_overhead", disarmed_overhead);
  bench::write(report, "armed_overhead", armed_overhead);

  const bool ok = armed_overhead.median <= kMaxOverhead;
  std::cout << "\narmed overhead " << armed_overhead.median * 100 << "% (gate <= "
            << kMaxOverhead * 100 << "%): " << (ok ? "CONFIRMED" : "FAILED") << "\n";
  report.metric("ok", ok ? 1 : 0);
  report.write();
  return ok ? 0 : 1;
}
