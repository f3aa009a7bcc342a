#include "core/schedule.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace ttdc::core {

Schedule::Schedule(std::size_t num_nodes, std::vector<DynamicBitset> transmit,
                   std::vector<DynamicBitset> receive)
    : num_nodes_(num_nodes), transmit_(std::move(transmit)), receive_(std::move(receive)) {
  if (transmit_.empty() || transmit_.size() != receive_.size()) {
    throw std::invalid_argument("Schedule: T and R must be non-empty and the same length");
  }
  const std::size_t L = transmit_.size();
  for (std::size_t i = 0; i < L; ++i) {
    if (transmit_[i].size() != num_nodes_ || receive_[i].size() != num_nodes_) {
      throw std::invalid_argument("Schedule: slot sets must range over the node universe");
    }
    if (transmit_[i].intersects(receive_[i])) {
      throw std::invalid_argument("Schedule: T[i] and R[i] must be disjoint");
    }
  }
  t_sizes_.resize(L);
  r_sizes_.resize(L);
  for (std::size_t i = 0; i < L; ++i) {
    t_sizes_[i] = transmit_[i].count();
    r_sizes_[i] = receive_[i].count();
  }
}

void Schedule::build_transposes() const {
  std::call_once(transposes_->once, [this] {
    transposes_->tran = util::transpose(transmit_, num_nodes_);
    transposes_->recv = util::transpose(receive_, num_nodes_);
    transposes_->built.store(true, std::memory_order_release);
  });
}

Schedule Schedule::non_sleeping(std::size_t num_nodes, std::vector<DynamicBitset> transmit) {
  std::vector<DynamicBitset> receive;
  receive.reserve(transmit.size());
  for (const auto& t : transmit) receive.push_back(t.complement());
  return Schedule(num_nodes, std::move(transmit), std::move(receive));
}

void Schedule::audit_invariants() const {
#if TTDC_ENABLE_CHECKS
  const std::size_t L = frame_length();
  TTDC_DCHECK(receive_.size() == L && t_sizes_.size() == L && r_sizes_.size() == L,
              "Schedule: per-slot arrays out of step at L=", L);
  const Transposes& tr = transposes();
  TTDC_DCHECK(tr.tran.size() == num_nodes_ && tr.recv.size() == num_nodes_,
              "Schedule: transposed arrays out of step at n=", num_nodes_);
  for (std::size_t i = 0; i < L; ++i) {
    TTDC_DCHECK(transmit_[i].size() == num_nodes_ && receive_[i].size() == num_nodes_,
                "Schedule: slot ", i, " sets not over the node universe");
    TTDC_DCHECK(!transmit_[i].intersects(receive_[i]),
                "Schedule: T[", i, "] ∩ R[", i, "] != ∅: T=", transmit_[i].to_string(),
                " R=", receive_[i].to_string());
    TTDC_DCHECK(t_sizes_[i] == transmit_[i].count() && r_sizes_[i] == receive_[i].count(),
                "Schedule: cached sizes stale at slot ", i);
  }
  for (std::size_t x = 0; x < num_nodes_; ++x) {
    for (std::size_t i = 0; i < L; ++i) {
      TTDC_DCHECK(tr.tran[x].test(i) == transmit_[i].test(x),
                  "Schedule: tran(", x, ") disagrees with T[", i, "]");
      TTDC_DCHECK(tr.recv[x].test(i) == receive_[i].test(x),
                  "Schedule: recv(", x, ") disagrees with R[", i, "]");
    }
  }
#endif
}

bool Schedule::is_non_sleeping() const {
  for (std::size_t i = 0; i < frame_length(); ++i) {
    if (t_sizes_[i] + r_sizes_[i] != num_nodes_) return false;
  }
  return true;
}

bool Schedule::is_alpha_schedule(std::size_t alpha_t, std::size_t alpha_r) const {
  for (std::size_t i = 0; i < frame_length(); ++i) {
    if (t_sizes_[i] > alpha_t || r_sizes_[i] > alpha_r) return false;
  }
  return true;
}

std::size_t Schedule::min_transmitters() const {
  return *std::min_element(t_sizes_.begin(), t_sizes_.end());
}

std::size_t Schedule::max_transmitters() const {
  return *std::max_element(t_sizes_.begin(), t_sizes_.end());
}

std::size_t Schedule::max_receivers() const {
  return *std::max_element(r_sizes_.begin(), r_sizes_.end());
}

DynamicBitset Schedule::free_slots(std::size_t x, std::span<const std::size_t> y) const {
  DynamicBitset free = tran(x);
  for (std::size_t node : y) free.subtract(tran(node));
  return free;
}

DynamicBitset Schedule::sigma(std::size_t a, std::size_t b) const {
  return tran(a) & recv(b);
}

DynamicBitset Schedule::guaranteed_slots(std::size_t x, std::size_t y,
                                         std::span<const std::size_t> s) const {
  DynamicBitset g = tran(x) & recv(y);
  g.subtract(tran(y));
  for (std::size_t node : s) g.subtract(tran(node));
  return g;
}

std::size_t Schedule::guaranteed_slot_count(std::size_t x, std::size_t y,
                                            std::span<const std::size_t> s) const {
  return guaranteed_slots(x, y, s).count();
}

double Schedule::duty_cycle() const {
  std::size_t active = 0;
  for (std::size_t i = 0; i < frame_length(); ++i) active += t_sizes_[i] + r_sizes_[i];
  return static_cast<double>(active) /
         (static_cast<double>(num_nodes_) * static_cast<double>(frame_length()));
}

std::vector<double> Schedule::per_node_duty_cycle() const {
  const Transposes& tr = transposes();
  std::vector<double> out(num_nodes_);
  for (std::size_t x = 0; x < num_nodes_; ++x) {
    out[x] = static_cast<double>(tr.tran[x].count() + tr.recv[x].count()) /
             static_cast<double>(frame_length());
  }
  return out;
}

std::string Schedule::to_string() const {
  std::ostringstream os;
  os << "Schedule(n=" << num_nodes_ << ", L=" << frame_length() << ")\n";
  for (std::size_t i = 0; i < frame_length(); ++i) {
    os << "  slot " << i << ": T=" << transmit_[i].to_string()
       << " R=" << receive_[i].to_string() << '\n';
  }
  return os.str();
}

}  // namespace ttdc::core
