// The schedule model of the paper (§3).
//
// A schedule of node activities is a pair <T, R> of disjoint per-slot node
// sets over a frame of L slots: T[i] may transmit in slots i + L*l, R[i] may
// receive, and every other node sleeps. A *non-sleeping* schedule has
// T[i] ∪ R[i] = V in every slot and is determined by T alone.
//
// Schedule is immutable after construction. The transposed per-node slot
// sets tran(x) and recv(x) (paper notation), which every checker and
// analysis in core/ is built from, are built on first use, once, by a
// blocked bit-matrix transpose of the per-slot sets: the simulator and the
// MACs read only the per-slot sets and never pay for them. The first use
// may come from several threads at once; copies of a schedule share one
// transpose.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "util/bitset.hpp"
#include "util/check.hpp"

namespace ttdc::core {

using util::DynamicBitset;

/// Immutable <T, R> schedule over `num_nodes` nodes and `frame_length` slots.
class Schedule {
 public:
  /// Builds from per-slot transmitter/receiver sets (bitsets over nodes).
  /// Throws std::invalid_argument unless |transmit| == |receive| > 0, all
  /// bitsets share the node universe, and T[i] ∩ R[i] = ∅ for every slot.
  Schedule(std::size_t num_nodes, std::vector<DynamicBitset> transmit,
           std::vector<DynamicBitset> receive);

  /// Builds the non-sleeping schedule <T>: R[i] = V \ T[i].
  static Schedule non_sleeping(std::size_t num_nodes, std::vector<DynamicBitset> transmit);

  [[nodiscard]] std::size_t num_nodes() const { return num_nodes_; }
  [[nodiscard]] std::size_t frame_length() const { return transmit_.size(); }

  /// Position of an absolute simulator slot within the periodic frame. The
  /// schedule's behavior is a pure function of this phase — which is exactly
  /// what makes whole frames memoizable: two slots with equal frame_phase()
  /// see identical <T, R> sets.
  [[nodiscard]] std::size_t frame_phase(std::uint64_t slot) const {
    return static_cast<std::size_t>(slot % frame_length());
  }

  /// First frame boundary at or after `slot` (the aligned point where the
  /// fast-forward engine may attempt a frame replay).
  [[nodiscard]] std::uint64_t next_frame_boundary(std::uint64_t slot) const {
    const std::uint64_t phase = slot % frame_length();
    return phase == 0 ? slot : slot + (frame_length() - phase);
  }

  /// Per-slot sets (bitsets over nodes).
  [[nodiscard]] const DynamicBitset& transmitters(std::size_t slot) const {
    TTDC_CHECK_BOUNDS(slot, transmit_.size());
    return transmit_[slot];
  }
  [[nodiscard]] const DynamicBitset& receivers(std::size_t slot) const {
    TTDC_CHECK_BOUNDS(slot, receive_.size());
    return receive_[slot];
  }

  /// tran(x): slots in which node x may transmit (bitset over slots).
  [[nodiscard]] const DynamicBitset& tran(std::size_t node) const {
    TTDC_CHECK_BOUNDS(node, num_nodes_);
    return transposes().tran[node];
  }
  /// recv(x): slots in which node x may receive (bitset over slots).
  [[nodiscard]] const DynamicBitset& recv(std::size_t node) const {
    TTDC_CHECK_BOUNDS(node, num_nodes_);
    return transposes().recv[node];
  }

  /// Re-verifies the construction invariants (universe sizes, per-slot
  /// T[i] ∩ R[i] = ∅, transposed sets consistent with the per-slot sets,
  /// building the transposes if nothing has read them yet).
  /// The constructor establishes them and the class is immutable, so this
  /// only fires on memory corruption or a bad const_cast; compiled out
  /// (no-op) unless contract checks are enabled.
  void audit_invariants() const;

  /// True iff T[i] ∪ R[i] = V in every slot.
  [[nodiscard]] bool is_non_sleeping() const;

  /// True iff |T[i]| <= alpha_t and |R[i]| <= alpha_r in every slot
  /// (the paper's (αT, αR)-schedule property).
  [[nodiscard]] bool is_alpha_schedule(std::size_t alpha_t, std::size_t alpha_r) const;

  /// Per-slot cardinalities, precomputed.
  [[nodiscard]] std::span<const std::size_t> transmit_sizes() const { return t_sizes_; }
  [[nodiscard]] std::span<const std::size_t> receive_sizes() const { return r_sizes_; }

  /// min/max of |T[i]| over slots (the paper's M_in / M_ax).
  [[nodiscard]] std::size_t min_transmitters() const;
  [[nodiscard]] std::size_t max_transmitters() const;
  [[nodiscard]] std::size_t max_receivers() const;

  /// freeSlots(x, Y) = tran(x) \ ∪_{y∈Y} tran(y): slots where x transmits
  /// and no node of Y does (bitset over slots). Y given as node indices.
  [[nodiscard]] DynamicBitset free_slots(std::size_t x, std::span<const std::size_t> y) const;

  /// σ(a, b) = tran(a) ∩ recv(b): slots where a may transmit and b receive.
  [[nodiscard]] DynamicBitset sigma(std::size_t a, std::size_t b) const;

  /// T(x, y, S) = recv(y) ∩ freeSlots(x, {y} ∪ S): slots in which x's
  /// transmission to y is guaranteed to succeed when y's other neighbors
  /// are exactly S (Definition preceding Definition 1).
  [[nodiscard]] DynamicBitset guaranteed_slots(std::size_t x, std::size_t y,
                                               std::span<const std::size_t> s) const;

  /// |T(x, y, S)| without materializing the set.
  [[nodiscard]] std::size_t guaranteed_slot_count(std::size_t x, std::size_t y,
                                                  std::span<const std::size_t> s) const;

  /// Fraction of (node, slot) pairs that are active (transmit or receive):
  /// the network-wide duty cycle in [0, 1]; 1.0 for non-sleeping schedules.
  [[nodiscard]] double duty_cycle() const;

  /// Per-node fraction of active slots.
  [[nodiscard]] std::vector<double> per_node_duty_cycle() const;

  /// Human-readable slot listing (for examples and error messages).
  [[nodiscard]] std::string to_string() const;

 private:
  struct Transposes {
    std::once_flag once;
    std::atomic<bool> built{false};
    std::vector<DynamicBitset> tran;  // [node] -> slot set
    std::vector<DynamicBitset> recv;  // [node] -> slot set
  };

  /// The transposes, built on the first call; later calls cost one
  /// acquire load.
  const Transposes& transposes() const {
    if (!transposes_->built.load(std::memory_order_acquire)) build_transposes();
    return *transposes_;
  }
  void build_transposes() const;

  std::size_t num_nodes_;
  std::vector<DynamicBitset> transmit_;  // [slot] -> node set
  std::vector<DynamicBitset> receive_;   // [slot] -> node set
  std::shared_ptr<Transposes> transposes_ = std::make_shared<Transposes>();
  std::vector<std::size_t> t_sizes_;     // [slot] -> |T[slot]|
  std::vector<std::size_t> r_sizes_;     // [slot] -> |R[slot]|
};

}  // namespace ttdc::core
