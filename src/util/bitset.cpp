#include "util/bitset.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

namespace ttdc::util {

void DynamicBitset::set_all() {
  for (auto& w : words_) w = ~Word{0};
  trim_tail();
}

void DynamicBitset::reset_all() {
  for (auto& w : words_) w = 0;
}

void DynamicBitset::copy_from(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] = other.words_[i];
}

void DynamicBitset::flip_all() {
  for (auto& w : words_) w = ~w;
  trim_tail();
}

std::size_t DynamicBitset::count() const {
  std::size_t total = 0;
  for (Word w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool DynamicBitset::none() const {
  for (Word w : words_) {
    if (w != 0) return false;
  }
  return true;
}

bool DynamicBitset::intersects(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & other.words_[i]) != 0) return true;
  }
  return false;
}

bool DynamicBitset::is_subset_of(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return false;
  }
  return true;
}

std::size_t DynamicBitset::intersection_count(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & other.words_[i]));
  }
  return total;
}

std::size_t DynamicBitset::difference_count(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & ~other.words_[i]));
  }
  return total;
}

bool DynamicBitset::has_member_outside(const DynamicBitset& other) const {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & ~other.words_[i]) != 0) return true;
  }
  return false;
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator^=(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] ^= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::subtract(const DynamicBitset& other) {
  TTDC_DCHECK(size_ == other.size_, "bitset universe mismatch: ", size_, " vs ",
              other.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= ~other.words_[i];
  return *this;
}

std::size_t DynamicBitset::add_lowest_outside(const DynamicBitset& exclude, std::size_t k) {
  TTDC_DCHECK(size_ == exclude.size_, "bitset universe mismatch: ", size_, " vs ",
              exclude.size_);
  const std::size_t rem = size_ % kWordBits;
  std::size_t added = 0;
  for (std::size_t i = 0; i < words_.size() && added < k; ++i) {
    Word free = ~(words_[i] | exclude.words_[i]);
    if (i + 1 == words_.size() && rem != 0) free &= (Word{1} << rem) - 1;
    const auto c = static_cast<std::size_t>(std::popcount(free));
    if (added + c > k) {
      // Keep only the lowest k - added of this word's free positions.
      Word keep = 0;
      for (std::size_t t = added; t < k; ++t) {
        keep |= free & -free;
        free &= free - 1;
      }
      free = keep;
    }
    words_[i] |= free;
    added += std::min(c, k - added);
  }
  return added;
}

DynamicBitset DynamicBitset::complement() const {
  DynamicBitset out(size_);
  for (std::size_t i = 0; i < words_.size(); ++i) out.words_[i] = ~words_[i];
  out.trim_tail();
  return out;
}

std::size_t DynamicBitset::find_first() const {
  for (std::size_t w = 0; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::size_t DynamicBitset::find_next(std::size_t pos) const {
  ++pos;
  if (pos >= size_) return size_;
  std::size_t w = pos / kWordBits;
  Word masked = words_[w] & (~Word{0} << (pos % kWordBits));
  if (masked != 0) {
    return w * kWordBits + static_cast<std::size_t>(std::countr_zero(masked));
  }
  for (++w; w < words_.size(); ++w) {
    if (words_[w] != 0) {
      return w * kWordBits + static_cast<std::size_t>(std::countr_zero(words_[w]));
    }
  }
  return size_;
}

std::vector<std::size_t> DynamicBitset::to_vector() const {
  std::vector<std::size_t> out;
  out.reserve(count());
  for_each([&](std::size_t i) { out.push_back(i); });
  return out;
}

std::string DynamicBitset::to_string() const {
  std::ostringstream os;
  os << '{';
  bool first = true;
  for_each([&](std::size_t i) {
    if (!first) os << ", ";
    os << i;
    first = false;
  });
  os << '}';
  return os.str();
}

std::size_t DynamicBitset::count_and_andnot(const DynamicBitset& a,
                                            const DynamicBitset& b) const {
  TTDC_DCHECK(size_ == a.size_ && size_ == b.size_,
              "bitset universe mismatch: ", size_, " vs ", a.size_, " / ", b.size_);
  std::size_t total = 0;
  for (std::size_t i = 0; i < words_.size(); ++i) {
    total += static_cast<std::size_t>(std::popcount(words_[i] & a.words_[i] & ~b.words_[i]));
  }
  return total;
}

bool DynamicBitset::any_and_andnot(const DynamicBitset& a, const DynamicBitset& b) const {
  TTDC_DCHECK(size_ == a.size_ && size_ == b.size_,
              "bitset universe mismatch: ", size_, " vs ", a.size_, " / ", b.size_);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    if ((words_[i] & a.words_[i] & ~b.words_[i]) != 0) return true;
  }
  return false;
}

namespace {

// In-place transpose of a 64×64 bit block, bit j of a[i] <-> bit i of a[j]:
// swap the off-diagonal 32×32 quadrants, then 16×16 within each, down to
// single bits (Hacker's Delight §7-3, least-significant-bit-first).
void transpose64(DynamicBitset::Word* a) {
  DynamicBitset::Word m = 0x00000000FFFFFFFFull;
  for (std::size_t j = 32; j != 0; j >>= 1, m ^= m << j) {
    for (std::size_t k = 0; k < 64; k = ((k | j) + 1) & ~j) {
      const DynamicBitset::Word t = ((a[k] >> j) ^ a[k | j]) & m;
      a[k] ^= t << j;
      a[k | j] ^= t;
    }
  }
}

}  // namespace

std::vector<DynamicBitset> transpose(std::span<const DynamicBitset> rows, std::size_t cols) {
  using Word = DynamicBitset::Word;
  constexpr std::size_t kBits = DynamicBitset::kWordBits;
  // Row blocks per tile: a tile fills one 64-byte line of each output row
  // it touches, so a pass over the column words visits every output page
  // once per tile rather than once per row block.
  constexpr std::size_t kTile = 8;
  const std::size_t m = rows.size();
  for (std::size_t r = 0; r < m; ++r) {
    TTDC_DCHECK(rows[r].size_ == cols, "transpose: row ", r, " has ", rows[r].size_,
                " columns, expected ", cols);
  }
  std::vector<DynamicBitset> out(cols, DynamicBitset(m));
  const std::size_t col_words = (cols + kBits - 1) / kBits;
  const std::size_t row_blocks = (m + kBits - 1) / kBits;
  Word tile[kTile][kBits];
  for (std::size_t rb0 = 0; rb0 < row_blocks; rb0 += kTile) {
    const std::size_t blocks = std::min(kTile, row_blocks - rb0);
    for (std::size_t cw = 0; cw < col_words; ++cw) {
      Word any = 0;
      for (std::size_t b = 0; b < blocks; ++b) {
        // Rows past `m` are zero, so the bits past `m` in each output row's
        // last word stay zero (the tail invariant).
        const std::size_t row0 = (rb0 + b) * kBits;
        const std::size_t nrows = std::min(kBits, m - row0);
        Word block_any = 0;
        for (std::size_t r = 0; r < nrows; ++r) {
          tile[b][r] = rows[row0 + r].words_[cw];
          block_any |= tile[b][r];
        }
        std::fill(tile[b] + nrows, tile[b] + kBits, Word{0});
        if (block_any != 0) transpose64(tile[b]);
        any |= block_any;
      }
      if (any == 0) continue;  // the output words are zero already
      const std::size_t ncols = std::min(kBits, cols - cw * kBits);
      for (std::size_t c = 0; c < ncols; ++c) {
        Word* dst = out[cw * kBits + c].words_.data() + rb0;
        for (std::size_t b = 0; b < blocks; ++b) dst[b] = tile[b][c];
      }
    }
  }
  return out;
}

void DynamicBitset::trim_tail() {
  const std::size_t rem = size_ % kWordBits;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (Word{1} << rem) - 1;
  }
}

std::size_t BitsetHash::operator()(const DynamicBitset& b) const noexcept {
  std::size_t h = 1469598103934665603ull;
  for (DynamicBitset::Word w : b.words()) {
    h ^= static_cast<std::size_t>(w);
    h *= 1099511628211ull;
  }
  h ^= b.size();
  return h;
}

}  // namespace ttdc::util
