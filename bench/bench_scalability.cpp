// E15 -- microbenchmarks of the machinery (google-benchmark): requirement
// checking, Construct(), the Theorem 2 evaluator, family construction, and
// raw simulator slot rate. The flight recorder's armed cost is gated by
// bench_obs_recorder.
//
// Two rows time the metro-shaped schedule (n = 10^4, D = 6, αR = n/3 from
// best_plan): Construct itself, and the first tran() on a fresh copy of
// its output, which builds the transposes. BENCH_scalability.json carries
// both as construct_metro_ms and transpose_metro_ms.
#include <benchmark/benchmark.h>

#include <optional>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "core/requirements.hpp"
#include "core/throughput.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"

using namespace ttdc;

namespace {

core::Schedule poly_schedule(std::uint32_t q, std::uint32_t k, std::size_t n) {
  return core::non_sleeping_from_family(comb::polynomial_family(q, k, n));
}

void BM_PolynomialFamilyBuild(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(q) * q;
  for (auto _ : state) {
    benchmark::DoNotOptimize(comb::polynomial_family(q, 1, n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_PolynomialFamilyBuild)->Arg(5)->Arg(9)->Arg(13)->Arg(25);

void BM_Requirement3Exact(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const auto d = static_cast<std::size_t>(state.range(1));
  const core::Schedule s = poly_schedule(q, 1, static_cast<std::size_t>(q) * q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_requirement3_exact(s, d));
  }
}
BENCHMARK(BM_Requirement3Exact)
    ->Args({5, 2})
    ->Args({5, 3})
    ->Args({7, 2})
    ->Args({7, 3})
    ->Args({9, 2});

void BM_Requirement3Sampled(benchmark::State& state) {
  const core::Schedule s = poly_schedule(13, 2, 169);
  util::Xoshiro256 rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::check_requirement3_sampled(s, 5, 1000, rng));
  }
}
BENCHMARK(BM_Requirement3Sampled);

void BM_ConstructDutyCycled(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const std::size_t n = static_cast<std::size_t>(q) * q;
  const core::Schedule base = poly_schedule(q, 1, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::construct_duty_cycled(base, 3, 4, 8));
  }
}
BENCHMARK(BM_ConstructDutyCycled)->Arg(5)->Arg(9)->Arg(13);

constexpr std::size_t kMetroN = 10000;
constexpr std::size_t kMetroD = 6;

const core::Schedule& metro_base() {
  static const core::Schedule base = core::non_sleeping_from_family(
      comb::build_plan(comb::best_plan(kMetroN, kMetroD), kMetroN));
  return base;
}

void BM_ConstructDutyCycledMetro(benchmark::State& state) {
  const core::Schedule& base = metro_base();
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::construct_duty_cycled(base, kMetroD, kMetroD, kMetroN / 3));
  }
}
BENCHMARK(BM_ConstructDutyCycledMetro)->Unit(benchmark::kMillisecond);

void BM_ScheduleTranspose(benchmark::State& state) {
  const core::Schedule duty =
      core::construct_duty_cycled(metro_base(), kMetroD, kMetroD, kMetroN / 3);
  std::optional<core::Schedule> fresh;
  for (auto _ : state) {
    // Untimed: copy T/R into a schedule whose transposes are not built.
    state.PauseTiming();
    fresh.reset();
    std::vector<util::DynamicBitset> t, r;
    for (std::size_t i = 0; i < duty.frame_length(); ++i) {
      t.push_back(duty.transmitters(i));
      r.push_back(duty.receivers(i));
    }
    fresh.emplace(duty.num_nodes(), std::move(t), std::move(r));
    state.ResumeTiming();
    benchmark::DoNotOptimize(&fresh->tran(0));
  }
}
BENCHMARK(BM_ScheduleTranspose)->Unit(benchmark::kMillisecond);

void BM_Theorem2Evaluator(benchmark::State& state) {
  const auto q = static_cast<std::uint32_t>(state.range(0));
  const core::Schedule s = poly_schedule(q, 1, static_cast<std::size_t>(q) * q);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::average_throughput(s, 3));
  }
}
BENCHMARK(BM_Theorem2Evaluator)->Arg(5)->Arg(13)->Arg(25);

void BM_MinGuaranteedGreedy(benchmark::State& state) {
  const core::Schedule s = poly_schedule(9, 1, 81);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::min_guaranteed_slots_greedy(s, 3));
  }
}
BENCHMARK(BM_MinGuaranteedGreedy);

void BM_SimulatorSlotRate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  util::Xoshiro256 rng(3);
  const net::Graph g = net::random_bounded_degree_graph(n, 4, 2 * n, rng);
  const core::Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 4), n)), 4, 4,
      n / 3);
  sim::DutyCycledScheduleMac mac(duty);
  sim::BernoulliTraffic traffic(n, 0.01);
  sim::Simulator sim(g, mac, traffic, {.seed = 7});
  for (auto _ : state) {
    sim.run(1000);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1000);
}
BENCHMARK(BM_SimulatorSlotRate)->Arg(25)->Arg(100)->Arg(400)->Unit(benchmark::kMillisecond);

void BM_SteinerBuild(benchmark::State& state) {
  const auto v = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(comb::steiner_triple_family(v));
  }
}
BENCHMARK(BM_SteinerBuild)->Arg(15)->Arg(63)->Arg(255);

// The console reporter, also copying the metro rows' times per iteration
// into the bench report.
class MetroRowReporter : public benchmark::ConsoleReporter {
 public:
  explicit MetroRowReporter(obs::BenchReport& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const std::string& fn = run.run_name.function_name;
      if (fn == "BM_ConstructDutyCycledMetro") {
        report_.metric("construct_metro_ms", run.GetAdjustedRealTime());
      } else if (fn == "BM_ScheduleTranspose") {
        report_.metric("transpose_metro_ms", run.GetAdjustedRealTime());
      }
    }
  }

 private:
  obs::BenchReport& report_;
};

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReport report("scalability");
  report.param("metro_n", kMetroN);
  report.param("metro_degree", kMetroD);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MetroRowReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  report.write();
  return 0;
}
