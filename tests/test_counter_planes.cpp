// util::CounterPlanes — bit-sliced per-member counters (DESIGN.md §8).
//
// A bank is checked against plain uint64_t counters: every add of a set
// bumps the naive counter of each member, and every drain must hand over
// exactly the counts accumulated since the previous one, so the drained
// totals equal the naive counters at every drain point — for dense sets
// (counted in the planes) and sparse ones (handed straight to the sink), for
// universes that end mid-word, across low-tier folds and across the
// self-drain a full bank performs before its top plane could carry out.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/counter_planes.hpp"
#include "util/rng.hpp"
#include "util/slot_set.hpp"

namespace ttdc::util {
namespace {

/// Drain sink that accumulates into `values` and checks the drain contract:
/// one call per non-zero counter, in increasing element order within each
/// drain (an add may drain too, so both reset the order check).
struct Totals {
  std::vector<std::uint64_t> values;
  std::uint64_t calls = 0;
  std::size_t last = 0;
  bool first_of_drain = true;

  explicit Totals(std::size_t n) : values(n, 0) {}

  auto sink() {
    return [this](std::size_t i, std::uint64_t count) {
      ASSERT_LT(i, values.size());
      EXPECT_GT(count, 0u) << "drain reported a zero counter at " << i;
      if (!first_of_drain) {
        EXPECT_LT(last, i) << "drain out of order";
      }
      first_of_drain = false;
      last = i;
      values[i] += count;
      ++calls;
    };
  }
  void add(CounterPlanes& bank, const SlotSet& s) {
    first_of_drain = true;
    bank.add(s, sink());
  }
  void drain(CounterPlanes& bank) {
    first_of_drain = true;
    bank.drain(sink());
  }
};

/// A random set over [0, n) with about `permille`/1000 of the universe.
SlotSet random_set(std::size_t n, std::uint64_t permille, Xoshiro256& rng) {
  SlotSet s(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (rng.below(1000) < permille) s.set(v);
  }
  return s;
}

TEST(CounterPlanes, RandomDenseAndSparseAddsMatchNaiveCounters) {
  Xoshiro256 rng(0xC0FFEE);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 700u, 5000u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    CounterPlanes bank(n);
    Totals totals(n);
    std::vector<std::uint64_t> naive(n, 0);
    bool saw_dense = false;
    bool saw_sparse = false;
    for (int step = 0; step < 600; ++step) {
      // Densities from empty to full, so both representations (and pinned
      // dense sets) feed the same bank.
      static constexpr std::uint64_t kPermille[] = {0, 2, 20, 60, 333, 900, 1000};
      SlotSet s = random_set(n, kPermille[rng.below(7)], rng);
      if (rng.below(4) == 0) s.pin_dense();
      saw_dense = saw_dense || s.is_dense();
      saw_sparse = saw_sparse || !s.is_dense();
      s.for_each([&](std::size_t v) { ++naive[v]; });
      totals.add(bank, s);
      if (rng.below(40) == 0) {
        totals.drain(bank);
        ASSERT_EQ(bank.pending_adds(), 0u);
        ASSERT_EQ(totals.values, naive) << "after step " << step;
      }
    }
    totals.drain(bank);
    EXPECT_EQ(totals.values, naive);
    EXPECT_TRUE(saw_dense);
    EXPECT_TRUE(saw_sparse);
  }
}

TEST(CounterPlanes, DrainingTwiceAddsNothing) {
  const std::size_t n = 300;
  CounterPlanes bank(n);
  Totals totals(n);
  Xoshiro256 rng(5);
  for (int i = 0; i < 37; ++i) totals.add(bank, random_set(n, 400, rng));
  totals.drain(bank);
  const std::vector<std::uint64_t> once = totals.values;
  const std::uint64_t calls = totals.calls;
  totals.drain(bank);
  EXPECT_EQ(totals.values, once);
  EXPECT_EQ(totals.calls, calls) << "a second drain called the sink";
  // A sparse set goes straight to the sink, one count per member, and
  // leaves nothing pending.
  const SlotSet few(n, {3, 200});
  ASSERT_FALSE(few.is_dense());
  totals.add(bank, few);
  EXPECT_EQ(bank.pending_adds(), 0u);
  EXPECT_EQ(totals.calls, calls + 2);
  EXPECT_EQ(totals.values[3], once[3] + 1);
  EXPECT_EQ(totals.values[200], once[200] + 1);
  // An empty dense set still counts as an add, and drains to nothing.
  SlotSet empty(n);
  empty.pin_dense();
  totals.add(bank, empty);
  EXPECT_EQ(bank.pending_adds(), 1u);
  totals.drain(bank);
  EXPECT_EQ(totals.calls, calls + 2);
}

// The dense add that would overflow the top plane must first hand every
// counter to the sink. A three-word set makes the 2^16 adds to get there
// cheap.
TEST(CounterPlanes, SelfDrainsBeforeTheTopPlaneCarriesOut) {
  const std::size_t n = 130;  // three element groups, the last one partial
  constexpr std::uint64_t capacity = CounterPlanes::kCapacity;
  SlotSet all(n);
  all.pin_dense();
  all.set_all();
  SlotSet odd(n);
  odd.pin_dense();
  for (std::size_t v = 1; v < n; v += 2) odd.set(v);
  CounterPlanes bank(n);
  Totals totals(n);
  for (std::uint64_t i = 0; i < capacity; ++i) totals.add(bank, all);
  EXPECT_EQ(totals.calls, 0u) << "drained before the bank was full";
  EXPECT_EQ(bank.pending_adds(), capacity);
  totals.add(bank, odd);  // full: self-drains, then counts `odd`
  EXPECT_EQ(totals.calls, n);
  EXPECT_EQ(bank.pending_adds(), 1u);
  for (std::size_t v = 0; v < n; ++v) ASSERT_EQ(totals.values[v], capacity) << v;
  // Keep going through two more self-drains.
  const std::uint64_t extra = 2 * capacity + 2;
  for (std::uint64_t i = 0; i < extra; ++i) totals.add(bank, i % 2 == 0 ? all : odd);
  totals.drain(bank);
  const std::uint64_t evens = capacity + (extra + 1) / 2;
  const std::uint64_t odds = capacity + 1 + extra;
  for (std::size_t v = 0; v < n; ++v) {
    ASSERT_EQ(totals.values[v], v % 2 == 0 ? evens : odds) << v;
  }
}

}  // namespace
}  // namespace ttdc::util
