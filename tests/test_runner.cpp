// Campaign runner: deterministic seed derivation, shared artifact caches,
// order-independent aggregation, per-cell flight rings dumped in cell
// order, and the campaign metrics registry reading
// exactly the aggregate under retries, quarantine and resume.
#include "runner/runner.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "core/builders.hpp"
#include "core/tradeoff.hpp"
#include "golden.hpp"
#include "net/topology.hpp"
#include "obs/flight_query.hpp"
#include "obs/metrics.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace ttdc::runner {
namespace {

using core::Schedule;

Schedule tdma_schedule(std::size_t n) {
  return core::non_sleeping_from_family(comb::tdma_family(n));
}

// `prefix + std::to_string(i)` trips GCC 12's -Wrestrict false positive
// (PR105329) through the operator+(const char*, string&&) overload; append
// instead.
std::string cell_name(const char* prefix, std::uint64_t i) {
  std::string s(prefix);
  s += std::to_string(i);
  return s;
}

// A representative sim cell: convergecast over a grid under a TDMA MAC,
// using every shared-artifact channel (cached schedule, cached routing).
CellFn sim_cell(std::size_t rows, std::size_t cols, double rate, std::uint64_t slots) {
  return [=](CellContext& ctx) {
    const std::size_t n = rows * cols;
    auto schedule = ctx.artifacts().schedule(
        cell_name("tdma:n=", n), [n] { return tdma_schedule(n); });
    const net::Graph g = net::grid_graph(rows, cols);
    auto routing = ctx.artifacts().routing(g);
    sim::DutyCycledScheduleMac mac(*schedule);
    sim::ConvergecastTraffic traffic(n, 0, rate);
    sim::SimConfig cfg;
    cfg.seed = ctx.seed();
    cfg.shared_routing = routing.get();
    sim::Simulator sim(g, mac, traffic, cfg);
    sim.run(slots);
    ctx.record(sim.stats());
    ctx.metric("delivery_ratio", sim.stats().delivery_ratio());
  };
}

Campaign make_campaign(int workers, std::uint64_t master_seed = 0xCAFE) {
  CampaignOptions opts;
  opts.master_seed = master_seed;
  opts.num_workers = workers;
  Campaign c(opts);
  for (int i = 0; i < 6; ++i) c.add(cell_name("cell", static_cast<std::uint64_t>(i)), sim_cell(4, 4, 0.08, 600));
  return c;
}

TEST(CampaignRunner, AggregateIsBitIdenticalAcrossWorkerCounts) {
  const std::string serial = make_campaign(1).run_serial().aggregate_json();
  for (int workers : {1, 2, 8}) {
    Campaign c = make_campaign(workers);
    const CampaignResult r = c.run();
    EXPECT_EQ(r.aggregate_json(), serial) << "workers=" << workers;
    EXPECT_EQ(r.workers, workers);
  }
}

TEST(CampaignRunner, SeedsAreSplitMixChildrenOfTheMaster) {
  CampaignOptions opts;
  opts.master_seed = 99;
  opts.num_workers = 1;
  Campaign c(opts);
  std::vector<std::uint64_t> observed(3);
  for (int i = 0; i < 3; ++i) {
    c.add(cell_name("s", static_cast<std::uint64_t>(i)),
          [i, &observed](CellContext& ctx) { observed[static_cast<std::size_t>(i)] = ctx.seed(); });
  }
  (void)c.run();
  util::SplitMix64 sm(99);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_EQ(observed[i], sm.next()) << "cell " << i;
}

TEST(CampaignRunner, SharedArtifactsBuildOncePerKey) {
  Campaign c = make_campaign(8);
  (void)c.run();
  // 6 cells x 2 artifacts (schedule + routing) = 12 requests, 2 builds.
  EXPECT_EQ(c.artifacts().misses(), 2u);
  EXPECT_EQ(c.artifacts().hits(), 10u);
}

TEST(CampaignRunner, RoutingCacheDistinguishesDifferentAdjacency) {
  ArtifactStore store;
  auto r1 = store.routing(net::grid_graph(3, 3));
  auto r2 = store.routing(net::ring_graph(9));  // same n, different edges
  auto r3 = store.routing(net::grid_graph(3, 3));
  EXPECT_NE(r1.get(), r2.get());
  EXPECT_EQ(r1.get(), r3.get());
  EXPECT_EQ(store.misses(), 2u);
  EXPECT_EQ(store.hits(), 1u);
}

TEST(CampaignRunner, SharedRoutingMatchesPrivateRouting) {
  // A cell simulated against the store's shared fully-built table must
  // produce the same stats as one building its own lazy table.
  const std::size_t n = 12;
  const Schedule s = tdma_schedule(n);
  const net::Graph g = net::grid_graph(3, 4);

  auto run_once = [&](const net::RoutingTable* shared) {
    sim::DutyCycledScheduleMac mac(s);
    sim::ConvergecastTraffic traffic(n, 0, 0.1);
    sim::SimConfig cfg;
    cfg.seed = 7;
    cfg.shared_routing = shared;
    sim::Simulator sim(g, mac, traffic, cfg);
    sim.run(400);
    return sim.stats().delivered;
  };

  ArtifactStore store;
  auto shared = store.routing(g);
  EXPECT_EQ(run_once(shared.get()), run_once(nullptr));
}

TEST(CampaignRunner, SetGraphRevertsToInternalRouting) {
  const std::size_t n = 12;
  const Schedule s = tdma_schedule(n);
  ArtifactStore store;
  auto shared = store.routing(net::grid_graph(3, 4));
  sim::DutyCycledScheduleMac mac(s);
  sim::ConvergecastTraffic traffic(n, 0, 0.1);
  sim::SimConfig cfg;
  cfg.seed = 7;
  cfg.shared_routing = shared.get();
  sim::Simulator sim(net::grid_graph(3, 4), mac, traffic, cfg);
  sim.run(100);
  // After churn the shared table is stale; the simulator must route over
  // the new topology (ring: node n-1 is adjacent to 0, one hop).
  sim.set_graph(net::ring_graph(n));
  sim.run(400);
  EXPECT_GT(sim.stats().delivered, 0u);
}

TEST(CampaignRunner, TraceEventsReplayInCellIndexOrder) {
  // Each cell records three flight events tagged with its index via
  // packet_id into its private ring; at the barrier the rings are dumped
  // in cell-index order, whatever order the workers finished in.
  CampaignOptions opts;
  opts.master_seed = 5;
  opts.num_workers = 4;
  FlightCaptureOptions capture;
  capture.ring_capacity = 8;
  capture.dir = ::testing::TempDir();
  capture.min_delivery_ratio = 1.0;  // a cell that delivers nothing trips it
  capture.max_dumps = 5;
  opts.flight_capture = capture;
  Campaign c(opts);
  for (std::uint64_t i = 0; i < 5; ++i) {
    c.add(cell_name("t", i), [i](CellContext& ctx) {
      obs::FlightEvent e;
      e.packet_id = i;
      for (int k = 0; k < 3; ++k) ctx.flight_recorder()->record(e);
    });
  }
  const CampaignResult r = c.run();
  ASSERT_EQ(r.flight_dumps.size(), 5u);
  std::vector<std::uint64_t> packet_cell_tags;
  for (std::size_t d = 0; d < r.flight_dumps.size(); ++d) {
    EXPECT_EQ(r.flight_dumps[d].cell_index, d);
    const obs::FlightParseResult parsed = obs::read_flight_jsonl_file(r.flight_dumps[d].path);
    std::remove(r.flight_dumps[d].path.c_str());
    EXPECT_TRUE(parsed.errors.empty());
    for (const auto& e : parsed.events) packet_cell_tags.push_back(e.packet_id);
  }
  ASSERT_EQ(packet_cell_tags.size(), 15u);
  for (std::size_t k = 0; k < packet_cell_tags.size(); ++k) {
    EXPECT_EQ(packet_cell_tags[k], k / 3) << "event " << k;
  }
}

// The campaign registry is published once from the merged aggregate, so
// it must read exactly CampaignResult::aggregate — also where the
// aggregate discards work a cell did (a failed attempt, a quarantined
// cell) or adds work no cell did in this run (cells restored from the
// journal).
ResilienceOptions fast_resilience(int max_attempts) {
  ResilienceOptions res;
  res.max_attempts = max_attempts;
  res.backoff_base_seconds = 0.0;
  return res;
}

TEST(CampaignRunner, RegistryEqualsAggregateWhenAFailedAttemptIsRetried) {
  CampaignOptions opts;
  opts.master_seed = 0xF1A;
  opts.num_workers = 2;
  opts.resilience = fast_resilience(3);
  obs::MetricsRegistry registry;
  opts.metrics = &registry;
  Campaign c(opts);
  for (std::uint64_t i = 0; i < 4; ++i) {
    c.add(cell_name("flaky", i), [i](CellContext& ctx) {
      sim_cell(4, 4, 0.08, 300)(ctx);  // the failed attempt did simulate
      if (i == 1 && ctx.attempt() == 1) throw std::runtime_error("fails after simulating");
    });
  }
  const CampaignResult r = c.run();
  ASSERT_TRUE(r.quarantined.empty());
  EXPECT_EQ(r.cells[1].attempts, 2u);
  EXPECT_EQ(r.aggregate.slots_run, 4u * 300u);
  sim::golden::expect_registry_matches(registry, r.aggregate);
}

TEST(CampaignRunner, RegistryEqualsAggregateWithAQuarantinedCell) {
  CampaignOptions opts;
  opts.master_seed = 0xF1B;
  opts.resilience = fast_resilience(2);
  obs::MetricsRegistry registry;
  opts.metrics = &registry;
  Campaign c(opts);
  for (std::uint64_t i = 0; i < 3; ++i) {
    c.add(cell_name("doomed", i), [i](CellContext& ctx) {
      sim_cell(4, 4, 0.08, 300)(ctx);
      if (i == 2) throw std::runtime_error("fails after simulating, every attempt");
    });
  }
  const CampaignResult r = c.run_serial();
  ASSERT_EQ(r.quarantined, std::vector<std::size_t>{2});
  EXPECT_TRUE(r.aggregate.partial);
  EXPECT_EQ(r.aggregate.slots_run, 2u * 300u);
  sim::golden::expect_registry_matches(registry, r.aggregate);
}

TEST(CampaignRunner, RegistryEqualsAggregateWhenResumedFromTheJournal) {
  const std::string path = ::testing::TempDir() + "ttdc_registry_resume.journal";
  const auto journaled = [&](bool resume, obs::MetricsRegistry* registry) {
    CampaignOptions opts;
    opts.master_seed = 0xF1C;
    opts.resilience = fast_resilience(1);
    opts.resilience->journal_path = path;
    opts.resilience->resume = resume;
    opts.metrics = registry;
    Campaign c(opts);
    for (std::uint64_t i = 0; i < 3; ++i) c.add(cell_name("j", i), sim_cell(4, 4, 0.08, 300));
    return c.run_serial();
  };
  const CampaignResult first = journaled(false, nullptr);
  obs::MetricsRegistry registry;
  const CampaignResult resumed = journaled(true, &registry);
  std::remove(path.c_str());
  ASSERT_EQ(resumed.resumed_cells, 3u);
  EXPECT_EQ(resumed.aggregate_json(), first.aggregate_json());
  ASSERT_GT(resumed.aggregate.delivered, 0u);
  sim::golden::expect_registry_matches(registry, resumed.aggregate);
}

TEST(CampaignRunner, CellsMayUseParallelHelpersReentrantly) {
  // Parallel helpers called from inside the worker team must degrade to
  // serial instead of deadlocking or racing the TSan handoff globals.
  CampaignOptions opts;
  opts.num_workers = 4;
  Campaign c(opts);
  std::vector<std::uint64_t> sums(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    c.add(cell_name("p", i), [i, &sums](CellContext&) {
      sums[i] = util::parallel_sum(0, 1000, [](std::size_t j) { return std::uint64_t{j}; });
    });
  }
  (void)c.run();
  for (auto s : sums) EXPECT_EQ(s, 499500u);
}

TEST(CampaignRunner, MemoTradeoffMatchesDirectEvaluation) {
  const Schedule s = tdma_schedule(10);
  ArtifactStore store;
  auto tables = store.throughput(10, 3);
  for (std::size_t at = 1; at <= 4; ++at) {
    for (std::size_t ar = 1; ar <= 4; ++ar) {
      const auto direct = core::evaluate_tradeoff(s, std::size_t{3}, at, ar);
      const auto memo = core::evaluate_tradeoff(s, *tables, at, ar);
      EXPECT_EQ(memo.alpha_t_star, direct.alpha_t_star);
      EXPECT_EQ(memo.frame_length, direct.frame_length);
      EXPECT_EQ(memo.duty_cycle, direct.duty_cycle);
      EXPECT_EQ(memo.avg_throughput_bound, direct.avg_throughput_bound);
      EXPECT_EQ(memo.ratio_lower_bound, direct.ratio_lower_bound);
    }
  }
}

TEST(CampaignRunner, EmptyCampaignRunsClean) {
  Campaign c{CampaignOptions{}};
  const CampaignResult r = c.run();
  EXPECT_EQ(r.cells.size(), 0u);
  EXPECT_EQ(r.aggregate.generated, 0u);
  EXPECT_NE(r.aggregate_json().find("\"cells\":[]"), std::string::npos);
}

}  // namespace
}  // namespace ttdc::runner
