#pragma once
// Bitset occupancy grid for the SA stitcher.
//
// The stitcher asks three questions of the device grid: "is this w x h
// rectangle free?", "mark / unmark this rectangle", and "where is the lowest
// free anchor of this column run?". The historical representation (a
// vector<int> of occupant ids) answered them one cell at a time. Since the
// annealer always lifts a block off the grid before probing its own
// destination, occupant *identity* is never actually needed -- a plain
// occupied/free bit per cell suffices.
//
// Layout: column-major words, `words_per_col = ceil(rows / 64)`; bit r of
// column c's word block is row r. A rectangle test ANDs each of its w
// columns with one or two masks per 64 rows, and the run scan
// (first_free_row) tests 64 candidate rows of a column per word.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

namespace mf {

class OccupancyGrid {
 public:
  OccupancyGrid() = default;

  OccupancyGrid(int cols, int rows)
      : cols_(cols),
        rows_(rows),
        words_per_col_((rows + 63) / 64),
        words_(static_cast<std::size_t>(words_per_col_) *
                   static_cast<std::size_t>(cols),
               0),
        scan_(static_cast<std::size_t>(words_per_col_), 0) {
    MF_CHECK(cols >= 0 && rows >= 0);
  }

  /// True when no cell of the w x h rectangle anchored at (col, row) is set.
  [[nodiscard]] bool region_free(int col, int row, int w, int h) const {
    const int k_lo = row >> 6;
    const int k_hi = (row + h - 1) >> 6;
    for (int k = k_lo; k <= k_hi; ++k) {
      const std::uint64_t mask = word_mask(k, row, h);
      const std::uint64_t* p = column(col) + k;
      for (int c = 0; c < w; ++c, p += words_per_col_) {
        if ((*p & mask) != 0) return false;
      }
    }
    return true;
  }

  void fill(int col, int row, int w, int h) { apply<true>(col, row, w, h); }
  void clear(int col, int row, int w, int h) { apply<false>(col, row, w, h); }

  /// Lowest row s of the run {row_lo, row_lo + stride, ...} with s <= row_hi
  /// at which the w x h rectangle (col, s) is free; -1 when there is none.
  /// Word-parallel over rows: the w columns' words are ORed and inverted
  /// into a free-rows mask F, then AND-shifted by doubling (F &= F >> step,
  /// the covered height growing 1, 2, 4, ... up to h) until bit s means
  /// "rows [s, s + h) are free"; the first such bit on the run wins.
  /// Non-const only for the scan buffer: the grid is unchanged.
  [[nodiscard]] int first_free_row(int col, int w, int h, int row_lo,
                                   int row_hi, int stride) {
    MF_CHECK(row_lo >= 0 && row_lo < rows_ && h >= 1 && stride >= 1);
    // The rows a hit in [row_lo, row_hi] can cover, clipped to the device.
    const int top = std::min(row_hi + h - 1, rows_ - 1);
    if (row_hi < row_lo || row_lo + h - 1 > top) return -1;
    const int k_lo = row_lo >> 6;
    const int n = (top >> 6) - k_lo + 1;
    std::uint64_t* f = scan_.data();
    std::fill(f, f + n, 0);
    const std::uint64_t* p = column(col) + k_lo;
    for (int c = 0; c < w; ++c, p += words_per_col_) {
      for (int k = 0; k < n; ++k) f[k] |= p[k];
    }
    for (int k = 0; k < n; ++k) f[k] = ~f[k];
    f[n - 1] &= ~std::uint64_t{0} >> (63 - (top & 63));  // rows past `top`
    for (int covered = 1; covered < h;) {
      const int step = std::min(covered, h - covered);
      // f &= f >> step across the words; zeros shift in past `top`. In
      // place is safe: word k reads only words k + q and k + q + 1. Once f
      // is empty no row can start a free rectangle.
      const int q = step >> 6;
      const int b = step & 63;
      std::uint64_t any = 0;
      for (int k = 0; k < n; ++k) {
        const std::uint64_t lo = k + q < n ? f[k + q] : 0;
        const std::uint64_t hi = k + q + 1 < n ? f[k + q + 1] : 0;
        f[k] &= b == 0 ? lo : (lo >> b) | (hi << (64 - b));
        any |= f[k];
      }
      if (any == 0) return -1;
      covered += step;
    }
    // Bits 0, stride, 2 * stride, ... of a word, by doubling too.
    std::uint64_t pitch = 1;
    for (int span = stride; span < 64; span *= 2) pitch |= pitch << span;
    // No bit past row_hi survives: rows past `top` were cleared.
    for (int k = 0; k < n; ++k) {
      const int base = (k_lo + k) << 6;
      // Offset of the word's first run row from its bit 0.
      const int offset = base <= row_lo
                             ? row_lo - base
                             : (stride - (base - row_lo) % stride) % stride;
      if (offset > 63) continue;  // a stride longer than the word
      const std::uint64_t hits = f[k] & (pitch << offset);
      if (hits != 0) return base + std::countr_zero(hits);
    }
    return -1;
  }

  /// Single-cell probe (tests / invariant checks only).
  [[nodiscard]] bool occupied(int col, int row) const {
    return (column(col)[row >> 6] >> (row & 63)) & 1;
  }

  void reset() { std::fill(words_.begin(), words_.end(), 0); }

  [[nodiscard]] int cols() const noexcept { return cols_; }
  [[nodiscard]] int rows() const noexcept { return rows_; }

 private:
  [[nodiscard]] const std::uint64_t* column(int col) const {
    return words_.data() + static_cast<std::size_t>(col) * words_per_col_;
  }
  [[nodiscard]] std::uint64_t* column(int col) {
    return words_.data() + static_cast<std::size_t>(col) * words_per_col_;
  }

  /// Bits of word `k` covered by rows [row, row + h).
  [[nodiscard]] static std::uint64_t word_mask(int k, int row, int h) {
    const int base = k << 6;
    const int lo = row > base ? row - base : 0;
    const int hi = (row + h - base) < 64 ? (row + h - base) : 64;
    const std::uint64_t span = hi - lo == 64
                                   ? ~std::uint64_t{0}
                                   : ((std::uint64_t{1} << (hi - lo)) - 1);
    return span << lo;
  }

  template <bool Set>
  void apply(int col, int row, int w, int h) {
    const int k_lo = row >> 6;
    const int k_hi = (row + h - 1) >> 6;
    for (int k = k_lo; k <= k_hi; ++k) {
      const std::uint64_t mask = word_mask(k, row, h);
      std::uint64_t* p = column(col) + k;
      for (int c = 0; c < w; ++c, p += words_per_col_) {
        if constexpr (Set) {
          *p |= mask;
        } else {
          *p &= ~mask;
        }
      }
    }
  }

  int cols_ = 0;
  int rows_ = 0;
  int words_per_col_ = 0;
  std::vector<std::uint64_t> words_;
  std::vector<std::uint64_t> scan_;  ///< first_free_row's free-rows mask
};

}  // namespace mf
