// DynamicBitset: pinned against std::set-based reference semantics.
#include "util/bitset.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace ttdc::util {
namespace {

TEST(Bitset, EmptyAfterConstruction) {
  DynamicBitset b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  EXPECT_FALSE(b.any());
  for (std::size_t i = 0; i < 130; ++i) EXPECT_FALSE(b.test(i));
}

TEST(Bitset, SetResetTest) {
  DynamicBitset b(100);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(99);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(Bitset, InitializerListConstruction) {
  DynamicBitset b(10, {1, 3, 7});
  EXPECT_EQ(b.count(), 3u);
  EXPECT_TRUE(b.test(1));
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(7));
  EXPECT_FALSE(b.test(0));
}

TEST(Bitset, SetAllRespectsUniverseBoundary) {
  // A non-multiple-of-64 size must not leak bits past the end.
  DynamicBitset b(70);
  b.set_all();
  EXPECT_EQ(b.count(), 70u);
  EXPECT_EQ(b.complement().count(), 0u);
}

TEST(Bitset, ComplementCountsAreExact) {
  DynamicBitset b(129, {0, 64, 128});
  const DynamicBitset c = b.complement();
  EXPECT_EQ(c.count(), 126u);
  EXPECT_FALSE(c.test(0));
  EXPECT_FALSE(c.test(64));
  EXPECT_FALSE(c.test(128));
  EXPECT_TRUE(c.test(1));
}

TEST(Bitset, FindFirstAndNextWalkMembers) {
  DynamicBitset b(200, {5, 63, 64, 150});
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_next(5), 63u);
  EXPECT_EQ(b.find_next(63), 64u);
  EXPECT_EQ(b.find_next(64), 150u);
  EXPECT_EQ(b.find_next(150), 200u);  // exhausted
  EXPECT_EQ(DynamicBitset(200).find_first(), 200u);
}

TEST(Bitset, ForEachVisitsInOrder) {
  DynamicBitset b(300, {2, 70, 140, 299});
  std::vector<std::size_t> seen;
  b.for_each([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{2, 70, 140, 299}));
  EXPECT_EQ(b.to_vector(), seen);
}

TEST(Bitset, ToStringRendersMembers) {
  EXPECT_EQ(DynamicBitset(10, {1, 4}).to_string(), "{1, 4}");
  EXPECT_EQ(DynamicBitset(10).to_string(), "{}");
}

// Randomized equivalence against std::set semantics over all operations.
TEST(Bitset, RandomizedAgainstSetReference) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(rng.below(257));
    std::set<std::size_t> sa, sb;
    DynamicBitset a(universe), b(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(0.3)) {
        sa.insert(i);
        a.set(i);
      }
      if (rng.bernoulli(0.3)) {
        sb.insert(i);
        b.set(i);
      }
    }
    // Intersection / union / difference / xor sizes.
    std::vector<std::size_t> tmp;
    std::set_intersection(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ((a & b).count(), tmp.size());
    EXPECT_EQ(a.intersection_count(b), tmp.size());
    EXPECT_EQ(a.intersects(b), !tmp.empty());
    tmp.clear();
    std::set_union(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ((a | b).count(), tmp.size());
    tmp.clear();
    std::set_difference(sa.begin(), sa.end(), sb.begin(), sb.end(), std::back_inserter(tmp));
    EXPECT_EQ(difference(a, b).count(), tmp.size());
    EXPECT_EQ(a.difference_count(b), tmp.size());
    EXPECT_EQ(a.has_member_outside(b), !tmp.empty());
    tmp.clear();
    std::set_symmetric_difference(sa.begin(), sa.end(), sb.begin(), sb.end(),
                                  std::back_inserter(tmp));
    EXPECT_EQ((a ^ b).count(), tmp.size());
    // Subset relation.
    const bool subset = std::includes(sb.begin(), sb.end(), sa.begin(), sa.end());
    EXPECT_EQ(a.is_subset_of(b), subset);
  }
}

TEST(Bitset, FusedKernelsMatchComposedOps) {
  Xoshiro256 rng(7);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t universe = 1 + static_cast<std::size_t>(rng.below(200));
    DynamicBitset a(universe), b(universe), c(universe);
    for (std::size_t i = 0; i < universe; ++i) {
      if (rng.bernoulli(0.4)) a.set(i);
      if (rng.bernoulli(0.4)) b.set(i);
      if (rng.bernoulli(0.4)) c.set(i);
    }
    const DynamicBitset composed = difference(a & b, c);
    EXPECT_EQ(a.count_and_andnot(b, c), composed.count());
    EXPECT_EQ(a.any_and_andnot(b, c), composed.any());
  }
}

TEST(Bitset, EqualityAndHashConsistency) {
  DynamicBitset a(66, {0, 65});
  DynamicBitset b(66, {0, 65});
  DynamicBitset c(66, {0, 64});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  BitsetHash h;
  EXPECT_EQ(h(a), h(b));
}

// Bits at positions >= size() in the last word must be zero.
bool tail_is_clear(const DynamicBitset& b) {
  const std::size_t rem = b.size() % DynamicBitset::kWordBits;
  return rem == 0 || b.words().empty() || (b.words().back() >> rem) == 0;
}

TEST(Bitset, TransposeMatchesPerBitTranspose) {
  const std::size_t dims[] = {1, 63, 64, 65, 127, 129};
  Xoshiro256 rng(2024);
  for (const std::size_t m : dims) {
    for (const std::size_t cols : dims) {
      // Rows of mixed density; every third row is empty.
      std::vector<DynamicBitset> rows;
      for (std::size_t r = 0; r < m; ++r) {
        DynamicBitset row(cols);
        const double p = r % 3 == 0 ? 0.0 : (r % 3 == 1 ? 0.05 : 0.6);
        for (std::size_t c = 0; c < cols; ++c) {
          if (rng.bernoulli(p)) row.set(c);
        }
        rows.push_back(std::move(row));
      }
      const std::vector<DynamicBitset> out = transpose(rows, cols);
      ASSERT_EQ(out.size(), cols);
      for (std::size_t c = 0; c < cols; ++c) {
        DynamicBitset expected(m);
        for (std::size_t r = 0; r < m; ++r) {
          if (rows[r].test(c)) expected.set(r);
        }
        ASSERT_EQ(out[c], expected) << m << " rows x " << cols << " cols, column " << c;
        ASSERT_TRUE(tail_is_clear(out[c])) << m << " rows x " << cols << " cols";
      }
    }
  }
}

TEST(Bitset, TransposeOfAllOnesAndOfNoRows) {
  std::vector<DynamicBitset> rows(65, DynamicBitset(129));
  for (auto& row : rows) row.set_all();
  for (const auto& col : transpose(rows, 129)) {
    EXPECT_EQ(col.count(), 65u);
    EXPECT_TRUE(tail_is_clear(col));
  }
  const auto empty = transpose({}, 3);
  ASSERT_EQ(empty.size(), 3u);
  EXPECT_EQ(empty[0].size(), 0u);
}

TEST(Bitset, AddLowestOutsideMatchesPerBitFill) {
  Xoshiro256 rng(7);
  for (const std::size_t n : {1u, 63u, 64u, 65u, 129u, 300u}) {
    for (int trial = 0; trial < 20; ++trial) {
      DynamicBitset a(n), exclude(n);
      for (std::size_t v = 0; v < n; ++v) {
        if (rng.bernoulli(0.3)) a.set(v);
        if (rng.bernoulli(0.3)) exclude.set(v);
      }
      const std::size_t k = rng.below(n + 2);
      DynamicBitset expected = a;
      std::size_t want = 0;
      for (std::size_t v = 0; v < n && want < k; ++v) {
        if (!a.test(v) && !exclude.test(v)) {
          expected.set(v);
          ++want;
        }
      }
      DynamicBitset got = a;
      EXPECT_EQ(got.add_lowest_outside(exclude, k), want) << "n=" << n << " k=" << k;
      EXPECT_EQ(got, expected) << "n=" << n << " k=" << k;
      EXPECT_TRUE(tail_is_clear(got)) << "n=" << n;
    }
  }
}

TEST(Bitset, SubtractInPlace) {
  DynamicBitset a(10, {1, 2, 3});
  DynamicBitset b(10, {2, 5});
  a.subtract(b);
  EXPECT_EQ(a, DynamicBitset(10, {1, 3}));
}

}  // namespace
}  // namespace ttdc::util
