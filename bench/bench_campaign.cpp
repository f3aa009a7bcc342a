// E23 -- the campaign engine itself: parallel simulation campaigns must be
// (a) bit-identical to the serial loop they replace and (b) actually faster
// on multi-core hosts.
//
// A replicated convergecast study (three TT schedule variants x several
// SplitMix64-derived seed replicas on a 5x5 grid) runs through
// Campaign::run_serial() and through the work-stealing worker pool, as the
// two arms of bench::interleave (bench/harness.hpp): one untimed run of
// each, then rounds with the first arm rotating. Every run's aggregate JSON
// is compared byte for byte with the first serial run's -- this is the
// determinism contract of DESIGN.md §10 (child seeds are a function of
// (master_seed, cell_index) only; merges fold in cell-index order).
//
// Flags:
//   --smoke       reduced cell grid and no speedup gate (CI on small runners)
//   --perf-check  gate: median per-round parallel/serial cell rate >= 3x
//                 when >= 4 cores
//
// The aggregate-equality gate always applies. The committed baseline for
// scripts/run_benches.sh --perf-check lives in
// bench/baselines/BENCH_campaign.baseline.json; regenerate it by copying a
// fresh BENCH_campaign.json when the cell grid legitimately changes.
#include <cstring>
#include <iostream>
#include <string>

#include "harness.hpp"

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace ttdc;

int main(int argc, char** argv) {
  bool smoke = false, perf_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--perf-check") == 0) perf_check = true;
  }
  constexpr std::size_t kRows = 5, kCols = 5, kN = kRows * kCols, kD = 4, kSink = 0;
  constexpr double kRate = 0.003;
  const std::uint64_t slots = smoke ? 3000 : 20000;
  // 64 replicas = 192 cells: a serial run takes about 0.8 s and a
  // parallel one well past 0.2 s on 4 cores.
  const std::size_t replicas = smoke ? 2 : 64;
  const int rounds = smoke ? 1 : 5;

  obs::BenchReport report("campaign");
  report.param("grid", "5x5");
  report.param("rate_per_node_per_slot", kRate);
  report.param("slots", static_cast<std::int64_t>(slots));
  report.param("replicas", static_cast<std::int64_t>(replicas));
  report.param("rounds", rounds);
  report.param("smoke", smoke ? 1 : 0);
  util::print_banner("E23 / campaign engine: parallel == serial, and faster",
                     {{"grid", "5x5"},
                      {"slots", std::to_string(slots)},
                      {"replicas", std::to_string(replicas)},
                      {"smoke", smoke ? "yes" : "no"}});

  const net::Graph grid = net::grid_graph(kRows, kCols);
  struct Variant {
    const char* name;
    const char* key;
    std::size_t alpha_r;  // 0 = non-sleeping base
  };
  const Variant variants[] = {
      {"base", "base:poly(5,1)", 0},
      {"aR10", "duty:aR=10", 10},
      {"aR5", "duty:aR=5", 5},
  };

  const auto build_campaign = [&] {
    runner::Campaign campaign;
    for (const auto& v : variants) {
      for (std::size_t rep = 0; rep < replicas; ++rep) {
        std::string name(v.name);
        name += ":rep";
        name += std::to_string(rep);
        campaign.add(std::move(name), [&grid, &v, slots](runner::CellContext& ctx) {
          auto base = ctx.artifacts().schedule("base:poly(5,1)", [] {
            return core::non_sleeping_from_family(comb::polynomial_family(5, 1, kN));
          });
          auto schedule = v.alpha_r == 0
                              ? base
                              : ctx.artifacts().schedule(v.key, [&] {
                                  return core::construct_duty_cycled(*base, kD, 5, v.alpha_r);
                                });
          auto routing = ctx.artifacts().routing(grid);
          sim::DutyCycledScheduleMac mac(*schedule);
          sim::ConvergecastTraffic traffic(kN, kSink, kRate);
          sim::SimConfig cfg;
          cfg.seed = ctx.seed();  // SplitMix64 child of the campaign master seed
          cfg.shared_routing = routing.get();
          sim::Simulator sim(grid, mac, traffic, cfg);
          sim.run(slots);
          ctx.record(sim.stats());
          ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
        });
      }
    }
    return campaign;
  };

  // Each arm runs a fresh campaign (paying its own artifact builds) and
  // returns its cell rate. The first serial run's aggregate is the one
  // every run must reproduce.
  std::string reference_json;
  bool equal = true;
  runner::CampaignResult parallel;
  std::size_t artifact_hits = 0, artifact_misses = 0;
  const auto arm = [&](bool serial) {
    return [&, serial] {
      runner::Campaign campaign = build_campaign();
      runner::CampaignResult result = serial ? campaign.run_serial() : campaign.run();
      const std::string json = result.aggregate_json();
      if (reference_json.empty()) reference_json = json;
      equal = equal && json == reference_json;
      const double rate = static_cast<double>(result.cells.size()) / result.elapsed_seconds;
      if (!serial) {
        artifact_hits = campaign.artifacts().hits();
        artifact_misses = campaign.artifacts().misses();
        parallel = std::move(result);
      }
      return rate;
    };
  };
  const auto arms = bench::interleave(rounds, {arm(true), arm(false)});
  const bench::Spread& speedup = arms[1].ratio;
  const int cores = util::hardware_parallelism();
  const bool gate_speedup = perf_check && !smoke && cores >= 4;
  const bool speedup_ok = !gate_speedup || speedup.median >= 3.0;

  std::cout << parallel.cells.size() << " cells, " << parallel.workers << " workers ("
            << cores << " cores), " << rounds << " rounds; median [q1, q3]\n"
            << "serial   " << arms[0].rate << " cells/s\n"
            << "parallel " << arms[1].rate << " cells/s\n"
            << "speedup  " << speedup << "x\n"
            << "aggregate equality (bit-identical JSON): "
            << (equal ? "CONFIRMED" : "FAILED") << "\n";
  if (gate_speedup) {
    std::cout << "speedup gate (>= 3x on " << cores
              << " cores): " << (speedup_ok ? "CONFIRMED" : "FAILED") << "\n";
  } else {
    std::cout << "speedup gate: skipped ("
              << (smoke ? "smoke mode" : !perf_check ? "no --perf-check" : "< 4 cores")
              << ")\n";
  }

  const bool ok = equal && speedup_ok;
  report.metric("cells", parallel.cells.size());
  report.metric("workers", parallel.workers);
  report.metric("cores", cores);
  bench::write(report, "serial_cells_per_s", arms[0].rate);
  bench::write(report, "parallel_cells_per_s", arms[1].rate);
  bench::write(report, "campaign_speedup", speedup);
  report.metric("aggregate_equal", equal ? 1 : 0);
  report.metric("artifact_hits", artifact_hits);
  report.metric("artifact_misses", artifact_misses);
  report.metric("aggregate_delivered", parallel.aggregate.delivered);
  report.metric("aggregate_generated", parallel.aggregate.generated);
  report.metric("ok", ok ? 1 : 0);
  report.write();
  return ok ? 0 : 1;
}
