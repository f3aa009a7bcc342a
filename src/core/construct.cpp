#include "core/construct.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/throughput.hpp"
#include "obs/profile.hpp"
#include "util/check.hpp"

namespace ttdc::core {

namespace {

// Divides `set` into k = ⌈|set|/cap⌉ subsets of size exactly
// min(cap, |set|) whose union is `set` (Figure 2, lines 3-4), returned as
// bitsets. Subsets are cyclic windows over the sorted member list; the two
// policies differ only in where the windows start.
std::vector<DynamicBitset> divide(const DynamicBitset& set, std::size_t cap,
                                  DivisionPolicy policy) {
  TTDC_DCHECK(cap >= 1, "divide() with zero cap");
  const std::vector<std::size_t> members = set.to_vector();
  const std::size_t s = members.size();
  if (s == 0) return {};
  const std::size_t size = std::min(cap, s);
  const std::size_t k = (s + cap - 1) / cap;
  std::vector<DynamicBitset> subsets(k, DynamicBitset(set.size()));
  for (std::size_t j = 0; j < k; ++j) {
    std::size_t start = 0;
    switch (policy) {
      case DivisionPolicy::kContiguous:
        // Last window wraps to the front when s is not a multiple of cap.
        start = std::min(j * cap, s - size);
        break;
      case DivisionPolicy::kBalanced:
        // Evenly spread starts; consecutive starts differ by <= size, so the
        // windows cover every member, with multiplicities differing by <= 1.
        start = (j * s) / k;
        break;
    }
    for (std::size_t t = 0; t < size; ++t) subsets[j].set(members[(start + t) % s]);
  }
  return subsets;
}

}  // namespace

Schedule construct_duty_cycled(const Schedule& non_sleeping, std::size_t degree_bound,
                               std::size_t alpha_t, std::size_t alpha_r,
                               const ConstructOptions& options) {
  TTDC_PROF_SCOPE("core.construct_duty_cycled");
  const std::size_t n = non_sleeping.num_nodes();
  if (!non_sleeping.is_non_sleeping()) {
    throw std::invalid_argument("construct_duty_cycled: input must be non-sleeping");
  }
  if (alpha_t < 1 || alpha_r < 1 || alpha_t + alpha_r > n) {
    throw std::invalid_argument("construct_duty_cycled: need 1 <= αT, αR and αT + αR <= n");
  }
  const std::size_t cap_t = options.use_alpha_t_verbatim
                                ? alpha_t
                                : optimal_transmitters_alpha(n, degree_bound, alpha_t);

  // Every output slot pairs one transmitter window with one receiver
  // window of its base slot, so each window is built once per base slot.
  const std::size_t out_length = constructed_frame_length(non_sleeping, cap_t, alpha_r);
  std::vector<DynamicBitset> out_t;
  std::vector<DynamicBitset> out_r;
  out_t.reserve(out_length);
  out_r.reserve(out_length);
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    const auto t_windows = divide(non_sleeping.transmitters(i), cap_t, options.division);
    const auto r_windows = divide(non_sleeping.receivers(i), alpha_r, options.division);
    // Line 8: a window smaller than αR is all of R[i]; pad it up to αR from
    // V - T̄[k] - R̄. Feasible because |T̄[k]| <= αT and αT + αR <= n.
    const std::size_t r_size = non_sleeping.receive_sizes()[i];
    const std::size_t pad = r_size < alpha_r ? alpha_r - r_size : 0;
    for (const auto& ta : t_windows) {
      for (const auto& rb : r_windows) {
        out_t.push_back(ta);
        out_r.push_back(rb);
        if (pad > 0) {
          [[maybe_unused]] const std::size_t added = out_r.back().add_lowest_outside(ta, pad);
          TTDC_DCHECK(added == pad, "receiver padding fell short: added ", added, " of ", pad,
                      " for alpha_r = ", alpha_r);
        }
      }
    }
  }
  TTDC_DCHECK(out_t.size() == out_length, "Construct built ", out_t.size(),
              " slots, Theorem 7 says ", out_length);
  return Schedule(n, std::move(out_t), std::move(out_r));
}

std::size_t constructed_frame_length(const Schedule& non_sleeping, std::size_t alpha_t_star,
                                     std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  std::size_t total = 0;
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    const std::size_t t = non_sleeping.transmit_sizes()[i];
    const std::size_t r = n - t;
    const std::size_t kt = t == 0 ? 0 : (t + alpha_t_star - 1) / alpha_t_star;
    const std::size_t kr = r == 0 ? 0 : (r + alpha_r - 1) / alpha_r;
    total += kt * kr;
  }
  return total;
}

std::size_t constructed_frame_length_bound(const Schedule& non_sleeping,
                                           std::size_t alpha_t_star, std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t max_t = non_sleeping.max_transmitters();
  const std::size_t min_t = non_sleeping.min_transmitters();
  const std::size_t kt = (max_t + alpha_t_star - 1) / alpha_t_star;
  const std::size_t kr = (n - min_t + alpha_r - 1) / alpha_r;
  return kt * kr * non_sleeping.frame_length();
}

namespace {

// The Theorem 8 body after αT* and r(M_in) are resolved; shared by the
// direct and memoized overloads (which differ only in how they resolve
// those two quantities).
long double theorem8_from_cap(const Schedule& non_sleeping, std::size_t cap_t,
                              std::size_t alpha_r, long double r_min) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t min_t = non_sleeping.min_transmitters();
  std::size_t a1 = 0, a2 = 0;
  for (std::size_t t : non_sleeping.transmit_sizes()) {
    (t < cap_t ? a1 : a2) += 1;
  }
  if (a1 == 0) return 1.0L;  // M_in >= αT*: the construction is optimal
  const std::size_t alpha_m = std::max(cap_t, alpha_r);
  const std::size_t numer_c = (n + alpha_m - 1) / alpha_m;  // ⌈n/α_m⌉
  const std::size_t denom_c = (n - min_t + alpha_r - 1) / alpha_r;
  const long double c =
      static_cast<long double>(numer_c - 1) / static_cast<long double>(denom_c);
  return (r_min * static_cast<long double>(a1) + c * static_cast<long double>(a2)) /
         (static_cast<long double>(a1) + c * static_cast<long double>(a2));
}

}  // namespace

long double theorem8_ratio_lower_bound(const Schedule& non_sleeping, std::size_t degree_bound,
                                       std::size_t alpha_t, std::size_t alpha_r) {
  const std::size_t n = non_sleeping.num_nodes();
  const std::size_t cap_t = optimal_transmitters_alpha(n, degree_bound, alpha_t);
  const long double r_min =
      optimality_ratio_r(n, degree_bound, alpha_t, non_sleeping.min_transmitters());
  return theorem8_from_cap(non_sleeping, cap_t, alpha_r, r_min);
}

long double theorem8_ratio_lower_bound(const Schedule& non_sleeping,
                                       const ThroughputTables& tables, std::size_t alpha_t,
                                       std::size_t alpha_r) {
  const std::size_t cap_t = tables.alpha_star(alpha_t);
  const long double r_min =
      optimality_ratio_r(tables, alpha_t, non_sleeping.min_transmitters());
  return theorem8_from_cap(non_sleeping, cap_t, alpha_r, r_min);
}

long double theorem9_min_throughput_bound(const Schedule& non_sleeping,
                                          std::size_t min_guaranteed_slots_of_t,
                                          std::size_t alpha_t_star, std::size_t alpha_r) {
  const std::size_t lbar = constructed_frame_length(non_sleeping, alpha_t_star, alpha_r);
  if (lbar == 0) return 0.0L;
  return static_cast<long double>(min_guaranteed_slots_of_t) / static_cast<long double>(lbar);
}

}  // namespace ttdc::core
