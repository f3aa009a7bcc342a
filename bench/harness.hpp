// The timed benches' one measurement path. interleave() runs a set of
// arms (callables that each run one timed workload and return its rate)
// in rounds: every arm once untimed, then `rounds` rounds of all arms with
// the first arm rotating round by round, so neither a periodic load nor a
// warming cache settles on one arm's position. Each arm is summarized by
// the median and quartiles of its per-round rates and of its per-round
// ratio to arm 0, taken within the round: pairing inside a round cancels
// slow drift of the host's speed, and the median discards a round that a
// load spike hit.
//
// Noise-floor policy: a gate decides on the median per-round ratio, the
// report carries its q1/q3 beside it, and no gate is skipped for noise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/report.hpp"

namespace ttdc::bench {

/// Median and quartiles of a sample, linearly interpolated between order
/// statistics (numpy's default quantile).
struct Spread {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
};

[[nodiscard]] inline Spread spread(std::vector<double> samples) {
  if (samples.empty()) return {};
  std::sort(samples.begin(), samples.end());
  const auto quantile = [&](double p) {
    const double pos = p * static_cast<double>(samples.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, samples.size() - 1);
    return samples[lo] + (pos - static_cast<double>(lo)) * (samples[hi] - samples[lo]);
  };
  return {quantile(0.5), quantile(0.25), quantile(0.75)};
}

/// One arm's summary. `ratio` is this arm's rate over arm 0's rate in the
/// same round (exactly 1 for arm 0).
struct ArmResult {
  Spread rate;
  Spread ratio;
};

/// Runs every arm once untimed, then `rounds` rounds of all arms; round r
/// starts with arm r mod arms.size(). A single arm measures an unpaired
/// rate.
[[nodiscard]] inline std::vector<ArmResult> interleave(
    int rounds, const std::vector<std::function<double()>>& arms) {
  const std::size_t k = arms.size();
  for (const auto& arm : arms) arm();
  std::vector<std::vector<double>> rates(k), ratios(k);
  std::vector<double> round_rates(k);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t j = 0; j < k; ++j) {
      const std::size_t a = (j + static_cast<std::size_t>(r)) % k;
      round_rates[a] = arms[a]();
    }
    for (std::size_t a = 0; a < k; ++a) {
      rates[a].push_back(round_rates[a]);
      ratios[a].push_back(round_rates[a] / round_rates[0]);
    }
  }
  std::vector<ArmResult> results;
  for (std::size_t a = 0; a < k; ++a) {
    results.push_back({spread(std::move(rates[a])), spread(std::move(ratios[a]))});
  }
  return results;
}

/// An arm's cost over arm 0, read from its ratio spread: arm 0's rate over
/// the arm's rate, minus one. The map is decreasing, so the quartiles swap.
/// With 4k + 1 rounds every field is a sample, and the result is exactly
/// the spread of the per-round costs.
[[nodiscard]] inline Spread overhead(const Spread& ratio) {
  const auto cost = [](double r) { return 1.0 / r - 1.0; };
  return {cost(ratio.median), cost(ratio.q3), cost(ratio.q1)};
}

/// Prints "median [q1, q3]".
inline std::ostream& operator<<(std::ostream& os, const Spread& s) {
  return os << s.median << " [" << s.q1 << ", " << s.q3 << "]";
}

/// Writes `s` as `<key>` (median), `<key>_q1` and `<key>_q3`.
inline void write(obs::BenchReport& out, const std::string& key, const Spread& s) {
  out.metric(key, s.median);
  out.metric(key + "_q1", s.q1);
  out.metric(key + "_q3", s.q3);
}

}  // namespace ttdc::bench
