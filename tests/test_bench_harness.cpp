// bench/harness.hpp: the interleaved-rounds primitive every timed bench
// measures through. Fake arms log their call order and return scripted
// rates, so each property is checked exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "obs/report.hpp"

namespace ttdc::bench {
namespace {

/// Arms that append their index to `log` and return `rates[arm][call]`.
std::vector<std::function<double()>> scripted_arms(
    const std::vector<std::vector<double>>& rates, std::vector<std::size_t>& log) {
  std::vector<std::function<double()>> arms;
  for (std::size_t a = 0; a < rates.size(); ++a) {
    arms.push_back([&rates, &log, a, call = std::size_t{0}]() mutable {
      log.push_back(a);
      return rates[a][call++];
    });
  }
  return arms;
}

TEST(BenchHarness, WarmsEveryArmOnceThenRotatesTheFirstArm) {
  const std::vector<std::vector<double>> rates(3, std::vector<double>(5, 1.0));
  std::vector<std::size_t> log;
  (void)interleave(4, scripted_arms(rates, log));
  const std::vector<std::size_t> expected = {
      0, 1, 2,  // untimed warmup, one call per arm
      0, 1, 2,  // round 0
      1, 2, 0,  // round 1
      2, 0, 1,  // round 2
      0, 1, 2,  // round 3
  };
  EXPECT_EQ(log, expected);
}

TEST(BenchHarness, WarmupResultIsDiscarded) {
  // Call 0 is the warmup; its rate must not reach the summary.
  const std::vector<std::vector<double>> rates = {{1000.0, 5.0, 5.0, 5.0}};
  std::vector<std::size_t> log;
  const auto results = interleave(3, scripted_arms(rates, log));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].rate.median, 5.0);
  EXPECT_EQ(results[0].rate.q1, 5.0);
  EXPECT_EQ(results[0].rate.q3, 5.0);
  EXPECT_EQ(results[0].ratio.median, 1.0);
}

TEST(BenchHarness, RatiosAreTakenWithinARound) {
  // Both arms drift by 10x per round; arm 1 is 3x arm 0 in rounds 0 and 2
  // and equal to it otherwise. The per-round ratios are {3, 1, 3, 1, 1}
  // (median 1, q3 3), where the ratio of the median rates would read 3.
  const std::vector<std::vector<double>> rates = {{9.0, 1.0, 10.0, 100.0, 1000.0, 10000.0},
                                                  {9.0, 3.0, 10.0, 300.0, 1000.0, 10000.0}};
  std::vector<std::size_t> log;
  const auto results = interleave(5, scripted_arms(rates, log));
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].ratio.median, 1.0);
  EXPECT_EQ(results[1].ratio.median, 1.0);
  EXPECT_EQ(results[1].ratio.q1, 1.0);
  EXPECT_EQ(results[1].ratio.q3, 3.0);
  EXPECT_EQ(results[0].rate.median, 100.0);
  EXPECT_EQ(results[1].rate.median, 300.0);
}

TEST(BenchHarness, SpreadOfOddAndEvenLengthSamples) {
  const Spread odd = spread({5.0, 1.0, 3.0, 2.0, 4.0});
  EXPECT_EQ(odd.median, 3.0);
  EXPECT_EQ(odd.q1, 2.0);
  EXPECT_EQ(odd.q3, 4.0);

  const Spread even = spread({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(even.median, 2.5);
  EXPECT_EQ(even.q1, 1.75);
  EXPECT_EQ(even.q3, 3.25);

  const Spread one = spread({7.0});
  EXPECT_EQ(one.median, 7.0);
  EXPECT_EQ(one.q1, 7.0);
  EXPECT_EQ(one.q3, 7.0);
}

TEST(BenchHarness, OverheadSwapsQuartiles) {
  const Spread cost = overhead({0.5, 0.25, 1.0});
  EXPECT_EQ(cost.median, 1.0);
  EXPECT_EQ(cost.q1, 0.0);
  EXPECT_EQ(cost.q3, 3.0);
}

TEST(BenchHarness, WriteEmitsMedianAndQuartileKeys) {
  obs::BenchReport report("harness_test");
  write(report, "x_speedup", {2.0, 1.5, 2.5});
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"x_speedup\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x_speedup_q1\":1.5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"x_speedup_q3\":2.5"), std::string::npos) << json;
}

}  // namespace
}  // namespace ttdc::bench
