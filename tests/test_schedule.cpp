// Schedule <T, R>: invariants, transposition, set operators from §3-§5.
#include "core/schedule.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "combinatorics/constructions.hpp"
#include "combinatorics/params.hpp"
#include "core/builders.hpp"
#include "core/construct.hpp"
#include "util/rng.hpp"

namespace ttdc::core {
namespace {

Schedule tiny_schedule() {
  // n = 4, L = 3.
  // slot 0: T={0},   R={1,2}
  // slot 1: T={1,2}, R={3}
  // slot 2: T={3},   R={0,1,2}
  std::vector<DynamicBitset> t = {DynamicBitset(4, {0}), DynamicBitset(4, {1, 2}),
                                  DynamicBitset(4, {3})};
  std::vector<DynamicBitset> r = {DynamicBitset(4, {1, 2}), DynamicBitset(4, {3}),
                                  DynamicBitset(4, {0, 1, 2})};
  return Schedule(4, std::move(t), std::move(r));
}

TEST(Schedule, BasicAccessors) {
  const Schedule s = tiny_schedule();
  EXPECT_EQ(s.num_nodes(), 4u);
  EXPECT_EQ(s.frame_length(), 3u);
  EXPECT_EQ(s.transmit_sizes()[1], 2u);
  EXPECT_EQ(s.receive_sizes()[2], 3u);
  EXPECT_EQ(s.min_transmitters(), 1u);
  EXPECT_EQ(s.max_transmitters(), 2u);
  EXPECT_EQ(s.max_receivers(), 3u);
}

TEST(Schedule, TransposedSlotSetsMatchSlotMembership) {
  const Schedule s = tiny_schedule();
  EXPECT_EQ(s.tran(0), DynamicBitset(3, {0}));
  EXPECT_EQ(s.tran(1), DynamicBitset(3, {1}));
  EXPECT_EQ(s.tran(3), DynamicBitset(3, {2}));
  EXPECT_EQ(s.recv(1), DynamicBitset(3, {0, 2}));
  EXPECT_EQ(s.recv(3), DynamicBitset(3, {1}));
}

TEST(Schedule, RejectsOverlappingTransmitReceive) {
  std::vector<DynamicBitset> t = {DynamicBitset(3, {0})};
  std::vector<DynamicBitset> r = {DynamicBitset(3, {0, 1})};
  EXPECT_THROW(Schedule(3, std::move(t), std::move(r)), std::invalid_argument);
}

TEST(Schedule, RejectsLengthMismatch) {
  std::vector<DynamicBitset> t = {DynamicBitset(3, {0}), DynamicBitset(3, {1})};
  std::vector<DynamicBitset> r = {DynamicBitset(3, {1})};
  EXPECT_THROW(Schedule(3, std::move(t), std::move(r)), std::invalid_argument);
  EXPECT_THROW(Schedule(3, {}, {}), std::invalid_argument);
}

TEST(Schedule, NonSleepingComplementsTransmitters) {
  std::vector<DynamicBitset> t = {DynamicBitset(5, {0, 2}), DynamicBitset(5, {4})};
  const Schedule s = Schedule::non_sleeping(5, std::move(t));
  EXPECT_TRUE(s.is_non_sleeping());
  EXPECT_EQ(s.receivers(0), DynamicBitset(5, {1, 3, 4}));
  EXPECT_EQ(s.receivers(1), DynamicBitset(5, {0, 1, 2, 3}));
  EXPECT_EQ(s.duty_cycle(), 1.0);
}

TEST(Schedule, DutyCycledScheduleIsNotNonSleeping) {
  const Schedule s = tiny_schedule();
  EXPECT_FALSE(s.is_non_sleeping());
  EXPECT_LT(s.duty_cycle(), 1.0);
  // slot 0 activates 3 of 4, slot 1: 3/4, slot 2: 4/4 -> 10/12.
  EXPECT_DOUBLE_EQ(s.duty_cycle(), 10.0 / 12.0);
}

TEST(Schedule, AlphaSchedulePredicate) {
  const Schedule s = tiny_schedule();
  EXPECT_TRUE(s.is_alpha_schedule(2, 3));
  EXPECT_FALSE(s.is_alpha_schedule(1, 3));
  EXPECT_FALSE(s.is_alpha_schedule(2, 2));
}

TEST(Schedule, FreeSlotsMatchesDefinition) {
  const Schedule s = tiny_schedule();
  // freeSlots(0, {1, 3}) = tran(0) - tran(1) - tran(3) = {0} - {1} - {2} = {0}.
  const std::vector<std::size_t> y = {1, 3};
  EXPECT_EQ(s.free_slots(0, y), DynamicBitset(3, {0}));
  // freeSlots(1, {2}) = {1} - {1} = {}.
  const std::vector<std::size_t> y2 = {2};
  EXPECT_TRUE(s.free_slots(1, y2).none());
}

TEST(Schedule, SigmaMatchesDefinition) {
  const Schedule s = tiny_schedule();
  // σ(0, 1) = tran(0) ∩ recv(1) = {0} ∩ {0, 2} = {0}.
  EXPECT_EQ(s.sigma(0, 1), DynamicBitset(3, {0}));
  // σ(3, 0) = {2} ∩ {2} = {2}.
  EXPECT_EQ(s.sigma(3, 0), DynamicBitset(3, {2}));
  // σ(1, 0) = {1} ∩ {2} = {}.
  EXPECT_TRUE(s.sigma(1, 0).none());
}

TEST(Schedule, GuaranteedSlotsMatchesDefinition) {
  const Schedule s = tiny_schedule();
  // T(0, 1, {2}) = recv(1) ∩ (tran(0) - tran(1) - tran(2))
  //             = {0,2} ∩ ({0} - {1} - {1}) = {0}.
  const std::vector<std::size_t> neighbors = {2};
  EXPECT_EQ(s.guaranteed_slots(0, 1, neighbors), DynamicBitset(3, {0}));
  EXPECT_EQ(s.guaranteed_slot_count(0, 1, neighbors), 1u);
}

TEST(Schedule, GuaranteedSlotsShrinkWithLargerNeighborhood) {
  // Monotonicity noted after Definition 1: T(x,y,S) ⊇ T(x,y,S') for S ⊆ S'.
  util::Xoshiro256 rng(99);
  const Schedule s = random_alpha_schedule(10, 20, 3, 5, false, rng);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t x = static_cast<std::size_t>(rng.below(10));
    std::size_t y = static_cast<std::size_t>(rng.below(9));
    if (y >= x) ++y;
    std::vector<std::size_t> small, large;
    for (std::size_t v = 0; v < 10; ++v) {
      if (v == x || v == y) continue;
      if (rng.bernoulli(0.3)) small.push_back(v);
      large.push_back(v);
    }
    EXPECT_GE(s.guaranteed_slot_count(x, y, small), s.guaranteed_slot_count(x, y, large));
  }
}

TEST(Schedule, PerNodeDutyCycle) {
  const Schedule s = tiny_schedule();
  const auto duty = s.per_node_duty_cycle();
  // Node 0: tran {0}, recv {2} -> 2/3. Node 3: tran {2}, recv {1} -> 2/3.
  EXPECT_DOUBLE_EQ(duty[0], 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(duty[3], 2.0 / 3.0);
  // Node 1: tran {1}, recv {0, 2} -> 1.
  EXPECT_DOUBLE_EQ(duty[1], 1.0);
}

TEST(Schedule, FromFamilyTransposesMembership) {
  const auto family = comb::polynomial_family(3, 1, 9);
  const Schedule s = non_sleeping_from_family(family);
  EXPECT_EQ(s.num_nodes(), 9u);
  EXPECT_TRUE(s.is_non_sleeping());
  // Node x transmits exactly in its member set's slots (no empty slots for
  // the full polynomial family: every (i, s) pair is some poly's value).
  EXPECT_EQ(s.frame_length(), 9u);
  for (std::size_t x = 0; x < 9; ++x) {
    EXPECT_EQ(s.tran(x).count(), 3u);
  }
}

TEST(Schedule, FromFamilyDropsEmptySlots) {
  // Two members over universe 4, slots {0} and {2}: slots 1 and 3 empty.
  std::vector<DynamicBitset> sets = {DynamicBitset(4, {0}), DynamicBitset(4, {2})};
  const comb::SetFamily family(4, std::move(sets));
  const Schedule dropped = non_sleeping_from_family(family, true);
  EXPECT_EQ(dropped.frame_length(), 2u);
  const Schedule kept = non_sleeping_from_family(family, false);
  EXPECT_EQ(kept.frame_length(), 4u);
}

// tran()/recv() are built on first use. These tests pin what that must not
// change: the values, one build shared by concurrent first readers, and
// copy/move semantics at either side of the build. A frame length and node
// count off multiples of 64 exercise the transpose's partial words.
Schedule lazy_schedule() {
  const std::size_t n = 65;
  const Schedule base = non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 3), n));
  return construct_duty_cycled(base, 3, 3, 21);
}

// Checks every tran(x)/recv(x) against the per-slot sets, bit by bit.
void expect_transposes_match(const Schedule& s) {
  for (std::size_t x = 0; x < s.num_nodes(); ++x) {
    DynamicBitset tran(s.frame_length()), recv(s.frame_length());
    for (std::size_t i = 0; i < s.frame_length(); ++i) {
      if (s.transmitters(i).test(x)) tran.set(i);
      if (s.receivers(i).test(x)) recv.set(i);
    }
    ASSERT_EQ(s.tran(x), tran) << "node " << x;
    ASSERT_EQ(s.recv(x), recv) << "node " << x;
  }
}

TEST(ScheduleLazyTransposes, FrameAndNodesAreOffWordBoundaries) {
  const Schedule s = lazy_schedule();
  ASSERT_NE(s.frame_length() % 64, 0u);
  ASSERT_NE(s.num_nodes() % 64, 0u);
  expect_transposes_match(s);
}

TEST(ScheduleLazyTransposes, ConcurrentFirstAccessBuildsOnce) {
  // n = 1000 (L = 7,140): the build takes long enough that the readers'
  // first calls overlap it.
  const std::size_t n = 1000;
  const Schedule base = non_sleeping_from_family(comb::build_plan(comb::best_plan(n, 3), n));
  const auto s = std::make_shared<const Schedule>(construct_duty_cycled(base, 3, 3, n / 3));
  constexpr int kThreads = 8;
  std::atomic<int> waiting{kThreads};
  std::vector<const DynamicBitset*> first_tran(kThreads), first_recv(kThreads);
  std::vector<std::size_t> active(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      waiting.fetch_sub(1);
      while (waiting.load() > 0) std::this_thread::yield();
      // Half the threads start with recv(), half with tran().
      if (t % 2 == 0) {
        first_recv[t] = &s->recv(0);
        first_tran[t] = &s->tran(0);
      } else {
        first_tran[t] = &s->tran(0);
        first_recv[t] = &s->recv(0);
      }
      for (std::size_t x = 0; x < s->num_nodes(); ++x) {
        active[t] += s->tran(x).count() + s->recv(x).count();
      }
    });
  }
  for (auto& th : threads) th.join();
  std::size_t expected = 0;
  for (std::size_t i = 0; i < s->frame_length(); ++i) {
    expected += s->transmit_sizes()[i] + s->receive_sizes()[i];
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(first_tran[t], first_tran[0]) << "thread " << t << " saw a second build";
    EXPECT_EQ(first_recv[t], first_recv[0]) << "thread " << t << " saw a second build";
    EXPECT_EQ(active[t], expected) << "thread " << t;
  }
}

TEST(ScheduleLazyTransposes, CopyBeforeBuild) {
  const Schedule original = lazy_schedule();
  const Schedule copy = original;  // neither has read its transposes
  expect_transposes_match(copy);
  expect_transposes_match(original);
}

TEST(ScheduleLazyTransposes, CopyAfterBuild) {
  const Schedule original = lazy_schedule();
  expect_transposes_match(original);
  Schedule copy = tiny_schedule();
  copy = original;
  expect_transposes_match(copy);
  EXPECT_EQ(copy.frame_length(), original.frame_length());
}

TEST(ScheduleLazyTransposes, MoveBeforeAndAfterBuild) {
  Schedule unbuilt = lazy_schedule();
  const Schedule moved_unbuilt = std::move(unbuilt);
  expect_transposes_match(moved_unbuilt);

  Schedule built = lazy_schedule();
  expect_transposes_match(built);
  Schedule target = tiny_schedule();
  target = std::move(built);
  expect_transposes_match(target);
}

}  // namespace
}  // namespace ttdc::core
