// E14 -- topology transparency under churn (§1/§3).
//
// A mobile unit-disk network changes topology every epoch. The TT
// duty-cycled schedule is computed ONCE and never touched; the coloring
// TDMA must recolor on every change. Reports per-epoch delivery counts for
// the TT schedule (must stay positive through every epoch) and the
// cumulative reconfiguration count of the topology-aware baseline, plus
// what happens to the stale-coloring variant (collisions appear).
//
// Runs as a runner campaign: one cell per MAC variant. Each cell replays
// its own MobilityModel stream from the same fixed seed (identical graph
// sequence in all three cells) because set_graph() must drive each
// simulator's private routing -- a shared routing table would go stale on
// the first epoch. The TT duty schedule is built once in the campaign
// ArtifactStore; per-epoch deltas are captured per cell and the table is
// assembled in cell-index order after the run.
#include <functional>
#include <iostream>
#include <memory>
#include <vector>

#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "net/topology.hpp"
#include "obs/report.hpp"
#include "runner/runner.hpp"
#include "sim/mac.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

using namespace ttdc;

namespace {

// A coloring TDMA that ignores topology changes: models the window in which
// a topology-aware schedule is stale before re-dissemination completes.
class StaleColoringMac final : public sim::MacProtocol {
 public:
  explicit StaleColoringMac(const net::Graph& g) : inner_(g) {}
  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override {
    inner_.begin_slot(slot, rng);
  }
  bool can_receive(std::size_t v) const override { return inner_.can_receive(v); }
  bool wants_transmit(std::size_t v, std::size_t t) const override {
    return inner_.wants_transmit(v, t);
  }
  sim::RadioState idle_state(std::size_t v) const override { return inner_.idle_state(v); }
  bool fill_slot_sets(util::SlotSet& receivers, util::SlotSet& transmitters) const override {
    return inner_.fill_slot_sets(receivers, transmitters);
  }
  bool on_topology_change(const net::Graph&) override { return false; }  // stays stale

 private:
  sim::ColoringTdmaMac inner_;
};

}  // namespace

int main() {
  constexpr std::size_t kN = 30, kD = 3;
  constexpr int kEpochs = 8;
  constexpr std::uint64_t kSlotsPerEpoch = 5000;
  obs::BenchReport report("mobility");
  report.param("n", kN);
  report.param("D", kD);
  report.param("epochs", kEpochs);
  report.param("slots_per_epoch", static_cast<std::int64_t>(kSlotsPerEpoch));
  util::print_banner("E14 / topology transparency under mobility churn",
                     {{"n", std::to_string(kN)},
                      {"D", std::to_string(kD)},
                      {"epochs", std::to_string(kEpochs)},
                      {"slots_per_epoch", std::to_string(kSlotsPerEpoch)}});

  const auto duty_schedule = [](runner::ArtifactStore& store) {
    return store.schedule("duty:best_plan", [] {
      return core::construct_duty_cycled(
          core::non_sleeping_from_family(comb::build_plan(comb::best_plan(kN, kD), kN)),
          kD, 4, 10);
    });
  };

  struct EpochSeries {
    std::vector<std::uint64_t> delivered;   // per-epoch delivery delta
    std::vector<std::uint64_t> collisions;  // per-epoch collision delta
  };
  std::vector<EpochSeries> series(3);
  std::size_t recolorings = 0;

  // Each cell owns its MAC for the whole mobility run; the factory may also
  // report end-of-run MAC state (the recoloring counter).
  using MacFactory = std::function<std::unique_ptr<sim::MacProtocol>(
      runner::CellContext&, const net::Graph&)>;
  const auto mobility_cell = [&series](std::size_t index, MacFactory make_mac,
                                       std::function<void(sim::MacProtocol&)> on_done) {
    return [index, make_mac = std::move(make_mac),
            on_done = std::move(on_done), &series](runner::CellContext& ctx) {
      // Same seed in every cell: all three replay the identical graph
      // sequence, exactly as the serial version stepped one shared model.
      net::MobilityModel mobility(kN, 0.35, kD, 0.12, 4242);
      net::Graph g = mobility.step();
      auto mac = make_mac(ctx, g);
      sim::BernoulliTraffic traffic(kN, 0.008);
      sim::Simulator sim(g, *mac, traffic, {.seed = 1});
      auto& out = series[index];
      std::uint64_t delivered_prev = 0, collisions_prev = 0;
      for (int epoch = 0; epoch < kEpochs; ++epoch) {
        sim.run(kSlotsPerEpoch);
        out.delivered.push_back(sim.stats().delivered - delivered_prev);
        out.collisions.push_back(sim.stats().collisions - collisions_prev);
        delivered_prev = sim.stats().delivered;
        collisions_prev = sim.stats().collisions;
        sim.set_graph(mobility.step());
      }
      ctx.record(sim.stats());
      if (on_done) on_done(*mac);
    };
  };

  runner::Campaign campaign;
  campaign.add("TT duty-cycled",
               mobility_cell(
                   0,
                   [&duty_schedule](runner::CellContext& ctx, const net::Graph&) {
                     return std::make_unique<sim::DutyCycledScheduleMac>(
                         *duty_schedule(ctx.artifacts()));
                   },
                   nullptr));
  campaign.add("recolored TDMA",
               mobility_cell(
                   1,
                   [](runner::CellContext&, const net::Graph& g) {
                     return std::make_unique<sim::ColoringTdmaMac>(g);
                   },
                   [&recolorings](sim::MacProtocol& mac) {
                     recolorings = static_cast<sim::ColoringTdmaMac&>(mac).recolor_count();
                   }));
  campaign.add("stale TDMA",
               mobility_cell(
                   2,
                   [](runner::CellContext&, const net::Graph& g) {
                     return std::make_unique<StaleColoringMac>(g);
                   },
                   nullptr));
  const runner::CampaignResult result = campaign.run();

  const auto duty = duty_schedule(campaign.artifacts());  // cache hit: already built
  std::cout << "TT schedule: L=" << duty->frame_length() << " duty=" << duty->duty_cycle()
            << " (computed once, never updated)\n\n";

  util::Table table({"epoch", "TT delivered", "TT collisions", "recolored TDMA delivered",
                     "stale TDMA delivered", "stale TDMA collisions"});
  bool tt_alive_every_epoch = true;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    const auto e = static_cast<std::size_t>(epoch);
    tt_alive_every_epoch &= series[0].delivered[e] > 0;
    table.add_row({static_cast<std::int64_t>(epoch),
                   static_cast<std::int64_t>(series[0].delivered[e]),
                   static_cast<std::int64_t>(series[0].collisions[e]),
                   static_cast<std::int64_t>(series[1].delivered[e]),
                   static_cast<std::int64_t>(series[2].delivered[e]),
                   static_cast<std::int64_t>(series[2].collisions[e])});
  }
  std::cout << table.to_text();
  std::cout << "\nTT schedule reconfigurations: 0; coloring TDMA recolorings: " << recolorings
            << "\n";
  std::cout << "result: fixed TT schedule delivered in every epoch with zero "
            << "reconfiguration: " << (tt_alive_every_epoch ? "CONFIRMED" : "FAILED") << "\n";
  report.metric("tt_delivered", result.cells[0].stats.delivered);
  report.metric("tt_collisions", result.cells[0].stats.collisions);
  report.metric("recolored_delivered", result.cells[1].stats.delivered);
  report.metric("stale_delivered", result.cells[2].stats.delivered);
  report.metric("recolorings", recolorings);
  report.metric("ok", tt_alive_every_epoch ? 1 : 0);
  report.write();
  return tt_alive_every_epoch ? 0 : 1;
}
