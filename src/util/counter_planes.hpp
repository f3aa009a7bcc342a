// Bit-sliced per-member counters: a bank that counts set membership
// word-parallel.
//
// A CounterPlanes bank holds one counter per element of a fixed universe
// [0, n), stored transposed: plane k holds bit k of every counter, one
// 64-bit word per 64 elements. Adding a dense SlotSet increments the
// counter of every member with a ripple carry over whole words — the set's
// word is the carry into plane 0 and moves up one plane per step — so a
// word of 64 members costs a few word operations instead of 64 scattered
// read-modify-writes. A sparse set is not worth transposing: one member
// would cost a ripple on add and a bit extraction on drain, about ten
// plain increments, so add() hands its members straight to the sink with a
// count of 1. An add thus costs O(words) for a dense set (which holds at
// least about one member per word) and O(members) for a sparse one, and
// nothing is spent on the bank while only sparse sets arrive.
//
// Two tiers keep the ripple branch-free. Every dense add ripples through
// kLowPlanes low planes with a fixed number of steps; after 2^kLowPlanes - 1
// dense adds the low tier is folded into kWidePlanes wide planes with one
// word-parallel full adder. A data-dependent carry loop thus runs once per
// fifteen adds instead of once per word per add, where its mispredicted
// exit would cost more than the additions.
//
// The owner drains the bank into its own wide counters whenever it needs
// exact totals, and the bank drains itself, through the sink handed to
// add(), before the top wide plane could carry out: counters never exceed
// the dense adds since the last drain, so a bank that holds kCapacity of
// them is full.
//
// Layout is word-major: the low and wide planes of one 64-element group are
// adjacent, so an add touches one group's words together.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/slot_set.hpp"

namespace ttdc::util {

class CounterPlanes {
 public:
  using Word = DynamicBitset::Word;
  /// Planes every dense add ripples through.
  static constexpr std::size_t kLowPlanes = 4;
  /// Bits per drained counter.
  static constexpr std::size_t kWidePlanes = 16;
  /// Dense adds the bank holds before a counter could carry out of the top
  /// wide plane; the next dense add drains first.
  static constexpr std::uint64_t kCapacity = (std::uint64_t{1} << kWidePlanes) - 1;

  /// All-zero counters over [0, universe_size).
  explicit CounterPlanes(std::size_t universe_size)
      : bits_((universe_size + DynamicBitset::kWordBits - 1) / DynamicBitset::kWordBits *
                  kStride,
              0) {}

  /// Dense adds since the last drain; every counter is at most this.
  [[nodiscard]] std::uint64_t pending_adds() const { return pending_; }

  /// Increments the counter of every member of `s`. A sparse set calls
  /// sink(i, 1) for each member i, in increasing i; a dense set is counted
  /// in the planes, and a full bank first drains itself through `sink`
  /// (see drain()).
  template <typename Sink>
  void add(const SlotSet& s, Sink&& sink) {
    TTDC_DCHECK((s.size() + DynamicBitset::kWordBits - 1) / DynamicBitset::kWordBits * kStride ==
                    bits_.size(),
                "CounterPlanes::add: a set over ", s.size(), " elements does not fit the bank");
    if (!s.is_dense()) {
      s.for_each([&](std::size_t i) { sink(i, std::uint64_t{1}); });
      return;
    }
    if (pending_ == kCapacity) drain(sink);
    if (low_adds_ == kLowCapacity) fold_low();
    ++pending_;
    ++low_adds_;
    const std::vector<Word>& words = s.dense_words();
    for (std::size_t w = 0; w < words.size(); ++w) {
      Word* low = &bits_[w * kStride];
      Word carry = words[w];
      // Low counters stay below 2^kLowPlanes, so the top low plane never
      // carries out.
      for (std::size_t k = 0; k + 1 < kLowPlanes; ++k) {
        const Word next = low[k] & carry;
        low[k] ^= carry;
        carry = next;
      }
      low[kLowPlanes - 1] ^= carry;
    }
  }

  /// Calls sink(i, count) once for every non-zero counter, in increasing i,
  /// and zeroes the bank. Draining a bank with no pending adds calls
  /// nothing and costs nothing.
  template <typename Sink>
  void drain(Sink&& sink) {
    if (pending_ == 0) return;
    fold_low();
    pending_ = 0;
    for (std::size_t base = 0; base < bits_.size(); base += kStride) {
      Word* wide = &bits_[base + kLowPlanes];
      Word nonzero = 0;
      std::size_t top = 0;  // planes at and above top are zero in this group
      for (std::size_t k = 0; k < kWidePlanes; ++k) {
        if (wide[k] != 0) {
          nonzero |= wide[k];
          top = k + 1;
        }
      }
      const std::size_t first = base / kStride * DynamicBitset::kWordBits;
      for (; nonzero != 0; nonzero &= nonzero - 1) {
        const auto lane = static_cast<unsigned>(std::countr_zero(nonzero));
        std::uint64_t count = 0;
        for (std::size_t k = 0; k < top; ++k) count |= ((wide[k] >> lane) & 1u) << k;
        sink(first + lane, count);
      }
      std::fill(wide, wide + top, Word{0});
    }
  }

 private:
  static constexpr std::size_t kStride = kLowPlanes + kWidePlanes;  // words per group
  static constexpr std::uint64_t kLowCapacity = (std::uint64_t{1} << kLowPlanes) - 1;

  /// wide += low for every group (a word-parallel full adder), low = 0.
  void fold_low() {
    low_adds_ = 0;
    for (std::size_t base = 0; base < bits_.size(); base += kStride) {
      Word* low = &bits_[base];
      Word* wide = low + kLowPlanes;
      static_assert(kLowPlanes == 4, "the zero test below reads every low plane");
      if ((low[0] | low[1] | low[2] | low[3]) == 0) continue;
      Word carry = 0;
      std::size_t k = 0;
      for (; k < kLowPlanes; ++k) {
        const Word sum = wide[k] ^ low[k];
        const Word next = (wide[k] & low[k]) | (carry & sum);
        wide[k] = sum ^ carry;
        carry = next;
        low[k] = 0;
      }
      for (; carry != 0; ++k) {
        TTDC_DCHECK(k < kWidePlanes, "CounterPlanes carry out of the top plane");
        const Word next = wide[k] & carry;
        wide[k] ^= carry;
        carry = next;
      }
    }
  }

  std::uint64_t pending_ = 0;   // dense adds since the last drain
  std::uint64_t low_adds_ = 0;  // dense adds since the last fold
  // bits_[w * kStride + k]: low plane k (k < kLowPlanes), then wide plane
  // k - kLowPlanes, of element group w.
  std::vector<Word> bits_;
};

}  // namespace ttdc::util
