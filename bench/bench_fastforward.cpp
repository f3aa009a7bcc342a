// Frame-level fast-forwarding bench (DESIGN.md §15): the memoized replay
// engine vs slot-accurate stepping on the workload it was built for — a
// static-topology duty-cycled network with sparse lookahead traffic (the
// E21 lifetime regime: long silent stretches between convergecast
// arrivals). Gates:
//
//   * fastforward_speedup >= 10x: FF-on vs FF-off wall-clock on the
//     sparse-traffic run (stats asserted bit-identical before timing);
//   * disarmed_overhead <= 2%: an armed engine that falls back on every
//     frame (saturating arrivals veto each boundary) must cost within 2%
//     of the flag-off run — the boundary probe is the entire toll.
//
// Both gates interleave the two runs in rounds (bench/harness.hpp) and
// decide on the median per-round ratio; rates are per-round medians, and
// every gated quantity is reported with its quartiles.
//
// Emits BENCH_fastforward.json; fastforward_speedup is regression-gated by
// scripts/run_benches.sh --perf-check.
//
// --smoke: short run, no gate failures — the CI Release job runs this to
// prove the replay engine stays alive and golden-equal without paying for
// a calibrated run.
#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <iostream>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "harness.hpp"
#include "net/domain_grid.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::size_t kN = 400;
constexpr std::size_t kMaxDegree = 6;
constexpr double kBatteryMj = 1.0e7;  // outlives every timed window: no
                                      // death crossing inside a rep
constexpr double kGateSpeedup = 10.0;
constexpr double kGateOverhead = 0.02;
// Aggregate arrival gap for the sparse (fast-forwardable) workload, in
// FRAMES (the n=400 schedule's frame is ~2400 slots). 150 frames of
// silence per arrival: the post-arrival drain (a handful of slot-accurate
// frames while packets are in flight) stays a rounding error against the
// replayable stretch, yet every timed window still sees re-entries.
constexpr double kSparseGapFrames = 150.0;

struct World {
  net::Positions pos;
  net::DomainGrid grid;
  net::Graph graph;
  core::Schedule schedule;
};

World make_world(std::size_t n) {
  util::Xoshiro256 rng(0xFF5D ^ static_cast<std::uint64_t>(n));
  net::Positions pos = net::random_positions(n, rng);
  const double radius = std::min(0.4, std::sqrt(10.0 / static_cast<double>(n)));
  net::DomainGrid grid(pos, radius);
  net::Graph graph = net::unit_disk_graph(pos, radius, kMaxDegree, grid);
  core::Schedule schedule = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, kMaxDegree), n)),
      kMaxDegree, 4, std::max<std::size_t>(4, n / 3));
  return {std::move(pos), std::move(grid), std::move(graph), std::move(schedule)};
}

double per_node_rate(double gap_slots) {
  // P(any arrival in a slot) ~ 1/gap; spread uniformly over n-1 origins.
  return 1.0 / (gap_slots * static_cast<double>(kN - 1));
}

sim::SimConfig base_config(bool fast_forward) {
  sim::SimConfig cfg;
  cfg.seed = 0xE21;
  cfg.battery_mj = kBatteryMj;
  cfg.fast_forward = fast_forward;
  return cfg;
}

struct RunResult {
  sim::SimStats stats;
  sim::FastForwardStats ff;
  double slots_per_sec = 0.0;
};

RunResult run_once(const World& world, bool fast_forward, double rate,
                   std::uint64_t warmup, std::uint64_t timed) {
  sim::DutyCycledScheduleMac mac(world.schedule);
  sim::LookaheadConvergecastTraffic traffic(kN, /*sink=*/0, rate, /*seed=*/0x5EED);
  sim::Simulator sim(world.graph, mac, traffic, base_config(fast_forward));
  sim.run(warmup);
  util::Timer timer;
  sim.run(timed);
  const double secs = timer.seconds();
  return {sim.stats(), sim.fast_forward_stats(),
          static_cast<double>(timed) / secs};
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const int rounds = smoke ? 3 : 5;
  const World world = make_world(kN);
  const std::uint64_t period = world.schedule.frame_length();
  // Warmup covers the memo's boundary-state cycle (the schedule rotation
  // yields a handful of distinct frame-boundary fingerprints, each needing
  // one slot-accurate recording before replays begin).
  const std::uint64_t warmup = 12 * period;
  const std::uint64_t timed = (smoke ? 30 : 600) * period;
  // The overhead gate compares two nearly equal rates, so its runs are long
  // and its rounds numerous: a 2% gate leaves little room for noise.
  const std::uint64_t overhead_timed = (smoke ? 20 : 300) * period;
  const int overhead_rounds = smoke ? 3 : 17;

  obs::BenchReport report("fastforward");
  report.param("n", static_cast<std::int64_t>(kN));
  report.param("mac", "duty_cycled_schedule");
  report.param("frame_length", static_cast<std::int64_t>(period));
  report.param("traffic", "lookahead_convergecast");
  report.param("sparse_gap_frames", kSparseGapFrames);
  report.param("battery_mj", kBatteryMj);
  report.param("rounds", static_cast<std::int64_t>(rounds));
  report.param("overhead_rounds", static_cast<std::int64_t>(overhead_rounds));
  report.param("warmup_slots", static_cast<std::int64_t>(warmup));
  report.param("timed_slots", static_cast<std::int64_t>(timed));
  report.param("gate_speedup", kGateSpeedup);
  report.param("gate_overhead", kGateOverhead);
  report.param("smoke", static_cast<std::int64_t>(smoke ? 1 : 0));

  bool ok = true;
  const double sparse_rate =
      per_node_rate(kSparseGapFrames * static_cast<double>(period));

  // Golden tripwire on the exact timed workload (warmup + timed window):
  // the replay engine must count the same world as slot-accurate stepping,
  // bit for bit. (The full cross-MAC matrix lives in
  // tests/test_fastforward.cpp.)
  {
    const RunResult off = run_once(world, false, sparse_rate, warmup, timed);
    const RunResult on = run_once(world, true, sparse_rate, warmup, timed);
    if (off.stats != on.stats) {
      std::cout << "GOLDEN MISMATCH: fast-forward changed the stats\n";
      ok = false;
    }
    if (on.ff.frames_replayed == 0) {
      std::cout << "ENGINE IDLE: sparse workload never replayed a frame\n";
      ok = false;
    }
    const double replayed_fraction =
        static_cast<double>(on.ff.slots_replayed) /
        static_cast<double>(on.stats.slots_run);
    std::cout << "replayed fraction: " << replayed_fraction << " ("
              << on.ff.frames_replayed << " frames via " << on.ff.frames_recorded
              << " recordings)\n";
    report.metric("replayed_fraction", replayed_fraction);
    report.metric("frames_replayed", static_cast<double>(on.ff.frames_replayed));
    report.metric("frames_recorded", static_cast<double>(on.ff.frames_recorded));
  }

  // One timed run as a harness arm.
  const auto arm = [&world, warmup](bool fast_forward, double arrival_rate,
                                    std::uint64_t slots) {
    return [&world, warmup, fast_forward, arrival_rate, slots] {
      return run_once(world, fast_forward, arrival_rate, warmup, slots).slots_per_sec;
    };
  };

  // Speedup gate: sparse traffic, FF on vs off.
  double speedup = 0.0;
  if (ok) {
    const auto results = bench::interleave(
        rounds, {arm(false, sparse_rate, timed), arm(true, sparse_rate, timed)});
    speedup = results[1].ratio.median;
    std::cout << "sparse: off " << results[0].rate << " slots/s, on " << results[1].rate
              << " slots/s, speedup " << results[1].ratio << "x\n";
    bench::write(report, "off_slots_per_sec", results[0].rate);
    bench::write(report, "on_slots_per_sec", results[1].rate);
    bench::write(report, "fastforward_speedup", results[1].ratio);
  }

  // Overhead gate: saturating arrivals veto every frame boundary, so the
  // armed engine's only work is the per-frame probe. Compare against the
  // flag-off run on the identical workload.
  double overhead = 0.0;
  {
    // ~1 arrival per 200 slots in aggregate: every frame (~2400 slots)
    // contains one, so each boundary probe vetoes and the engine never
    // records or replays — pure fallback toll.
    const double dense_rate = per_node_rate(200.0);
    const RunResult probe = run_once(world, true, dense_rate, warmup, overhead_timed);
    if (probe.ff.frames_replayed != 0) {
      std::cout << "OVERHEAD WORKLOAD LEAKED REPLAYS: " << probe.ff.frames_replayed << "\n";
      ok = false;
    }
    const auto results = bench::interleave(
        overhead_rounds,
        {arm(false, dense_rate, overhead_timed), arm(true, dense_rate, overhead_timed)});
    const bench::Spread cost = bench::overhead(results[1].ratio);
    overhead = cost.median;
    std::cout << "fallback-every-frame: off " << results[0].rate << " slots/s, armed "
              << results[1].rate << " slots/s, overhead " << cost << "\n";
    bench::write(report, "armed_fallback_slots_per_sec", results[1].rate);
    bench::write(report, "flag_off_slots_per_sec", results[0].rate);
    bench::write(report, "disarmed_overhead", cost);
  }

  const bool speedup_ok = speedup >= kGateSpeedup;
  const bool overhead_ok = overhead <= kGateOverhead;
  std::cout << "\nfastforward speedup: " << speedup << "x (gate >= " << kGateSpeedup
            << "x): " << (speedup_ok ? "CONFIRMED" : "FAILED") << "\n"
            << "disarmed overhead: " << overhead * 100.0 << "% (gate <= "
            << kGateOverhead * 100.0 << "%): " << (overhead_ok ? "CONFIRMED" : "FAILED")
            << "\n";
  if (!smoke) ok = ok && speedup_ok && overhead_ok;
  report.metric("ok", ok ? 1 : 0);
  report.write();
  // Smoke mode proves golden equality and that the engine engages; it is
  // too short to hold the calibrated perf gates.
  return ok ? 0 : 1;
}
