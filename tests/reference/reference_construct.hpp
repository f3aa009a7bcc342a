// Reference Construct: Figure 2 of the paper read one slot pair at a time.
//
// This is the differential oracle for core::construct_duty_cycled. For
// every base slot i it lists the members of T[i] and R[i], divides each
// list into its cyclic windows, and for every (transmitter window,
// receiver window) pair builds both output sets member by member. Line 8's
// padding walks the nodes in increasing order and adds each one that is in
// neither set until the receiver set holds αR members. Nothing is shared
// between pairs, and nothing is computed a word at a time.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/construct.hpp"
#include "core/schedule.hpp"
#include "core/throughput.hpp"

namespace ttdc::core {

namespace reference_detail {

// Divides `members` into k = ⌈|members|/cap⌉ cyclic windows of size exactly
// min(cap, |members|) whose union is `members` (Figure 2, lines 3-4).
inline std::vector<std::vector<std::size_t>> divide(const std::vector<std::size_t>& members,
                                                    std::size_t cap, DivisionPolicy policy) {
  const std::size_t s = members.size();
  if (s == 0) return {};
  const std::size_t size = std::min(cap, s);
  const std::size_t k = (s + cap - 1) / cap;
  std::vector<std::vector<std::size_t>> subsets(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::size_t start =
        policy == DivisionPolicy::kContiguous ? std::min(j * cap, s - size) : (j * s) / k;
    for (std::size_t t = 0; t < size; ++t) subsets[j].push_back(members[(start + t) % s]);
  }
  return subsets;
}

}  // namespace reference_detail

/// Construct(αT*, αR, <T>) with the same arguments, policies and output
/// order as core::construct_duty_cycled.
inline Schedule reference_construct_duty_cycled(const Schedule& non_sleeping,
                                                std::size_t degree_bound, std::size_t alpha_t,
                                                std::size_t alpha_r,
                                                const ConstructOptions& options = {}) {
  const std::size_t n = non_sleeping.num_nodes();
  if (!non_sleeping.is_non_sleeping() || alpha_t < 1 || alpha_r < 1 || alpha_t + alpha_r > n) {
    throw std::invalid_argument("reference_construct_duty_cycled: bad input");
  }
  const std::size_t cap_t = options.use_alpha_t_verbatim
                                ? alpha_t
                                : optimal_transmitters_alpha(n, degree_bound, alpha_t);
  std::vector<DynamicBitset> out_t;
  std::vector<DynamicBitset> out_r;
  for (std::size_t i = 0; i < non_sleeping.frame_length(); ++i) {
    const auto t_subsets =
        reference_detail::divide(non_sleeping.transmitters(i).to_vector(), cap_t,
                                 options.division);
    const auto r_subsets = reference_detail::divide(non_sleeping.receivers(i).to_vector(),
                                                    alpha_r, options.division);
    for (const auto& ta : t_subsets) {
      DynamicBitset tbar(n);
      for (std::size_t v : ta) tbar.set(v);
      for (const auto& rb : r_subsets) {
        DynamicBitset rbar(n);
        for (std::size_t v : rb) rbar.set(v);
        for (std::size_t v = 0; v < n && rbar.count() < alpha_r; ++v) {
          if (!tbar.test(v) && !rbar.test(v)) rbar.set(v);
        }
        out_t.push_back(tbar);
        out_r.push_back(std::move(rbar));
      }
    }
  }
  return Schedule(n, std::move(out_t), std::move(out_r));
}

}  // namespace ttdc::core
