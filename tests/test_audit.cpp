// Invariant audits: Schedule::audit_invariants(), PacketQueue ring audit,
// and Simulator::audit_invariants() — including the negative test where a
// deliberately broken MAC lies in fill_slot_sets() and the audit must say
// so loudly.
//
// All positive tests run unconditionally (a no-op audit trivially passes).
// The negative tests branch on check::library_checks_enabled(): in a
// Release tree the audits are compiled to nothing and even a lying MAC
// must sail through (that is the point — zero Release overhead); in Debug
// or -DTTDC_CHECKS=ON trees the lie must surface as a ContractViolation.
#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "golden.hpp"
#include "net/topology.hpp"
#include "sim/mac.hpp"
#include "sim/packet.hpp"
#include "sim/simulator.hpp"
#include "sim/traffic.hpp"
#include "util/check.hpp"

namespace ttdc::sim {
namespace {

using core::DynamicBitset;
using core::Schedule;
using ttdc::check::ContractViolation;
using ttdc::check::ScopedThrowOnViolation;

Schedule tdma(std::size_t n) {
  std::vector<DynamicBitset> t;
  t.reserve(n);
  for (std::size_t i = 0; i < n; ++i) t.push_back(DynamicBitset(n, {i}));
  return Schedule::non_sleeping(n, std::move(t));
}

TEST(ScheduleAudit, FreshSchedulePasses) {
  const Schedule s = tdma(6);
  ScopedThrowOnViolation guard;
  EXPECT_NO_THROW(s.audit_invariants());
}

TEST(ScheduleAudit, BuildsAndChecksTransposesOnFirstUse) {
  // Nothing has read tran()/recv() yet: the audit builds them and compares
  // them with the per-slot sets (n = 7 and L = 7 leave partial words).
  const Schedule s = tdma(7);
  ScopedThrowOnViolation guard;
  EXPECT_NO_THROW(s.audit_invariants());
  EXPECT_EQ(s.tran(3), DynamicBitset(7, {3}));
}

TEST(PacketQueueAudit, RingStaysConsistentThroughWrap) {
  PacketQueue q(4);
  ScopedThrowOnViolation guard;
  Packet p;
  // Balanced push/pop walks the head through the ring several times.
  for (int round = 0; round < 10; ++round) {
    EXPECT_TRUE(q.push(p));
    q.audit_invariants();
    q.pop();
    q.audit_invariants();
  }
  // Fill to capacity; overflow is a drop, never a corruption.
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.push(p));
  EXPECT_FALSE(q.push(p));
  q.audit_invariants();
  while (!q.empty()) {
    q.pop();
    q.audit_invariants();
  }
}

// Runs `mac` over `graph` under light random traffic and audits after every
// few slots; every in-tree MAC must pass at any point in a run.
void run_and_audit(MacProtocol& mac, net::Graph graph, double battery_mj = 0.0) {
  const std::size_t n = graph.num_nodes();
  BernoulliTraffic traffic(n, 0.3);
  Simulator sim(std::move(graph), mac, traffic,
                {.seed = 99, .queue_capacity = 4, .battery_mj = battery_mj});
  ScopedThrowOnViolation guard;
  EXPECT_NO_THROW(sim.audit_invariants());  // pre-run state
  for (int burst = 0; burst < 8; ++burst) {
    sim.run(25);
    EXPECT_NO_THROW(sim.audit_invariants());
  }
}

TEST(SimulatorAudit, DutyCycledScheduleMacPasses) {
  const Schedule s = tdma(5);
  DutyCycledScheduleMac mac(s);
  run_and_audit(mac, net::path_graph(5));
}

TEST(SimulatorAudit, DutyCycledUnawareSendersPass) {
  const Schedule s = tdma(5);
  DutyCycledScheduleMac mac(s, /*schedule_aware_senders=*/false);
  run_and_audit(mac, net::star_graph(5));
}

TEST(SimulatorAudit, SlottedAlohaPasses) {
  SlottedAlohaMac mac(6, 0.4);
  run_and_audit(mac, net::grid_graph(2, 3));
}

TEST(SimulatorAudit, UncoordinatedSleepPasses) {
  UncoordinatedSleepMac mac(6, 0.5, 0.5);
  run_and_audit(mac, net::path_graph(6));
}

TEST(SimulatorAudit, CommonActivePeriodPasses) {
  CommonActivePeriodMac mac(5, 8, 3, 0.5);
  run_and_audit(mac, net::path_graph(5));
}

TEST(SimulatorAudit, ColoringTdmaPasses) {
  net::Graph g = net::grid_graph(2, 3);
  ColoringTdmaMac mac(g);
  run_and_audit(mac, std::move(g));
}

TEST(SimulatorAudit, PassesWithBatteryDeaths) {
  const Schedule s = tdma(5);
  DutyCycledScheduleMac mac(s);
  // Tiny budget so nodes die mid-run and the death bookkeeping is audited.
  run_and_audit(mac, net::path_graph(5), /*battery_mj=*/0.5);
}

// Phase 3 counts transmit, listen and wake slots in bit-sliced banks that
// reach SimStats only when drained. An audit between reads (runs of odd
// length, no stats() call) finds counts pending: it must drain them before
// its state-slot checks — a node awake in the last slot has woken, which
// the undrained counts would deny — and the drain must not change the run.
TEST(SimulatorAudit, MidRunAuditDrainsPendingStateCounts) {
  const std::size_t n = 640;  // above the pinned-dense size: adaptive sets
  util::Xoshiro256 topo(3);
  const net::Graph graph = net::random_bounded_degree_graph(n, 4, 2 * n, topo);
  const Schedule duty = core::construct_duty_cycled(
      core::non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 4), n)), 4, 4, n / 3);
  const auto run = [&](bool audit) {
    DutyCycledScheduleMac mac(duty);
    BernoulliTraffic traffic(n, 0.001);
    Simulator sim(graph, mac, traffic, {.seed = 41});
    ScopedThrowOnViolation guard;
    for (const std::uint64_t burst : {1u, 7u, 13u, 37u, 101u}) {
      sim.run(burst);
      if (audit) {
        EXPECT_NO_THROW(sim.audit_invariants()) << "after slot " << sim.now();
      }
    }
    return sim.stats();
  };
  const SimStats plain = run(false);
  golden::expect_identical_stats(run(true), plain);
  EXPECT_GT(plain.wake_transitions[0], 0u);
}

// A MAC that violates the fill_slot_sets() contract in a chosen way while
// its scalar interface stays sane. Wraps slotted ALOHA and corrupts the
// batched answer only.
class BrokenMac final : public MacProtocol {
 public:
  enum class Lie {
    kReceiverSet,    // batched receiver set disagrees with can_receive()
    kSleepContract,  // node absent from both sets but idle_state != kSleep
    kTransmitSet,    // batched transmitter set disagrees with wants_transmit()
  };

  // Attempt probability 1.0: every backlogged node's scalar wants_transmit()
  // is deterministically true, so the kTransmitSet lie is always detectable.
  BrokenMac(std::size_t num_nodes, Lie lie) : inner_(num_nodes, 1.0), lie_(lie) {}

  void begin_slot(std::uint64_t slot, util::Xoshiro256& rng) override {
    inner_.begin_slot(slot, rng);
  }
  [[nodiscard]] bool can_receive(std::size_t node) const override {
    if (lie_ == Lie::kSleepContract) return false;  // nobody admits to listening
    return inner_.can_receive(node);
  }
  [[nodiscard]] bool wants_transmit(std::size_t node, std::size_t target) const override {
    return inner_.wants_transmit(node, target);
  }
  [[nodiscard]] RadioState idle_state(std::size_t) const override {
    // For kSleepContract this breaks the promise that out-of-set nodes
    // sleep; for the other lies it is never consulted by the audit.
    return RadioState::kListen;
  }
  bool fill_slot_sets(util::SlotSet& receivers,
                      util::SlotSet& transmitters) const override {
    inner_.fill_slot_sets(receivers, transmitters);
    switch (lie_) {
      case Lie::kReceiverSet:
        receivers.reset(0);  // ALOHA: everyone can receive; claim 0 cannot
        break;
      case Lie::kSleepContract:
        receivers.reset_all();
        transmitters.reset_all();
        break;
      case Lie::kTransmitSet:
        transmitters.reset_all();  // scalar side still flips transmit coins
        break;
    }
    return true;
  }

 private:
  SlottedAlohaMac inner_;
  Lie lie_;
};

// A backlogged node guarantees the audit has a transmit decision to replay.
void expect_audit_catches(BrokenMac::Lie lie) {
  BrokenMac mac(4, lie);
  Simulator* sim_ptr = nullptr;
  SaturatedFlows traffic({{0, 3}}, [&sim_ptr](std::size_t v) {
    return sim_ptr == nullptr ? std::size_t{0} : sim_ptr->queue_size(v);
  });
  Simulator sim(net::path_graph(4), mac, traffic, {.seed = 7});
  sim_ptr = &sim;
  sim.run(3);
  ScopedThrowOnViolation guard;
  if (ttdc::check::library_checks_enabled()) {
    EXPECT_THROW(sim.audit_invariants(), ContractViolation) << "lie went undetected";
  } else {
    // Release: the audit is a compiled-out no-op and must cost nothing,
    // so even a lying MAC passes silently.
    EXPECT_NO_THROW(sim.audit_invariants());
  }
}

TEST(SimulatorAudit, CatchesReceiverSetLie) {
  expect_audit_catches(BrokenMac::Lie::kReceiverSet);
}

TEST(SimulatorAudit, CatchesSleepContractLie) {
  expect_audit_catches(BrokenMac::Lie::kSleepContract);
}

TEST(SimulatorAudit, CatchesTransmitSetLie) {
  expect_audit_catches(BrokenMac::Lie::kTransmitSet);
}

}  // namespace
}  // namespace ttdc::sim
