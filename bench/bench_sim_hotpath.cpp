// Slot-rate regression harness for the simulator hot path (DESIGN.md §8):
// measures slots/sec of the node-at-a-time reference simulator
// (tests/reference) against sim::Simulator for
// n in {50, 100, 200, 400, 800, 1600, 3200} under DutyCycledScheduleMac
// with tracing off, and gates on a >= 3x speedup at n = 400. The 1600 and
// 3200 rows ride along informationally (slots_per_sec metrics only, no
// gated *_speedup — the reference is far outside any sensible envelope
// there and the ratio is too noisy to gate; the metropolitan sizes proper
// are bench_megascale's job). Emits BENCH_sim_hotpath.json (consumed by
// scripts/run_benches.sh --perf-check for regression tracking against the
// committed baseline).
#include <algorithm>
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "harness.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "reference_simulator.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/timer.hpp"

namespace {

using namespace ttdc;

constexpr std::uint64_t kWarmup = 2000;
constexpr int kRounds = 9;
constexpr double kGateN = 400;
constexpr double kGateSpeedup = 3.0;

// Timed slots scale down with n so every row costs comparable wall time.
std::uint64_t timed_slots(std::size_t n) { return 4'000'000 / n; }

template <typename Sim>
double slot_rate_once(const net::Graph& g, const core::Schedule& duty) {
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(g.num_nodes(), 0.01);
  Sim sim(g, mac, traffic, {.seed = 7});
  sim.run(kWarmup);
  const std::uint64_t timed = timed_slots(g.num_nodes());
  util::Timer timer;
  sim.run(timed);
  return static_cast<double>(timed) / timer.seconds();
}

}  // namespace

int main() {
  obs::BenchReport report("sim_hotpath");
  report.param("mac", "DutyCycledScheduleMac");
  report.param("traffic", "bernoulli_0.01");
  report.param("rounds", static_cast<std::int64_t>(kRounds));
  report.param("warmup_slots", static_cast<std::int64_t>(kWarmup));
  report.param("gate_n", static_cast<std::int64_t>(kGateN));
  report.param("gate_speedup", kGateSpeedup);

  bool gate_ok = false;
  double gate_speedup = 0.0;
  std::cout << "simulator hot path: reference simulator vs pipeline (slots/sec)\n"
            << "    n  reference/s   pipeline/s  speedup\n";
  for (std::size_t n : {50, 100, 200, 400, 800, 1600, 3200}) {
    util::Xoshiro256 rng(3);
    const net::Graph g = net::random_bounded_degree_graph(n, 4, 2 * n, rng);
    const core::Schedule duty = core::construct_duty_cycled(
        core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 4), n)), 4, 4,
        n / 3);
    const auto results = bench::interleave(
        kRounds, {[&] { return slot_rate_once<sim::ReferenceSimulator>(g, duty); },
                  [&] { return slot_rate_once<sim::Simulator>(g, duty); }});
    const double speedup = results[1].ratio.median;
    std::cout << "  " << n << "  " << results[0].rate.median << "  "
              << results[1].rate.median << "  " << results[1].ratio << "x\n";
    std::string key = "n";
    key += std::to_string(n);
    bench::write(report, key + "_reference_slots_per_sec", results[0].rate);
    bench::write(report, key + "_pipeline_slots_per_sec", results[1].rate);
    // The extended ladder rows (n > 800) are informational only: no
    // *_speedup key, so --perf-check never gates them.
    if (n <= 800) bench::write(report, key + "_speedup", results[1].ratio);
    if (static_cast<double>(n) == kGateN) {
      gate_speedup = speedup;
      gate_ok = speedup >= kGateSpeedup;
    }
  }
  std::cout << "\npipeline speedup @ n=" << kGateN << ": " << gate_speedup
            << "x (gate >= " << kGateSpeedup << "x): " << (gate_ok ? "CONFIRMED" : "FAILED")
            << "\n";
  report.metric("ok", gate_ok ? 1 : 0);
  report.write();
  return gate_ok ? 0 : 1;
}
