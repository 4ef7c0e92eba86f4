// Layer-0 inputs as codes (DESIGN.md §4). The bottom LSTM layer reads the
// one-hot c(t) of §V: one 1 per discretized Table-I feature plus the noisy
// bit, every other column 0. Such a row is fully described by its active
// column indices, so layer 0 takes those instead of a dense row: its input
// product x·Wᵀ becomes a gather-sum of the active rows of Wᵀ, and its weight
// gradient a scatter-add into them (kernels.hpp gather_acc / scatter_acc).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace mlad::nn {

/// One layer-0 input row: its active columns, strictly ascending. Every
/// active value is 1.
using CodeRow = std::vector<std::uint32_t>;

/// Throws std::invalid_argument unless `codes` is strictly ascending and
/// every code is below `cols`.
inline void check_codes(std::span<const std::uint32_t> codes,
                        std::size_t cols) {
  for (std::size_t i = 0; i < codes.size(); ++i) {
    if (codes[i] >= cols || (i > 0 && codes[i] <= codes[i - 1])) {
      throw std::invalid_argument(
          "layer-0 codes must be strictly ascending and below input_dim");
    }
  }
}

/// A batch of code rows over `cols()` columns in CSR form: row r's codes are
/// index()[offset()[r] .. offset()[r+1]). Rows may differ in length. Reused
/// across steps, it keeps its capacity, so the steady state allocates
/// nothing.
class CodeMatrix {
 public:
  /// Drop every row and set the column count (capacity is kept).
  void clear(std::size_t cols) {
    cols_ = cols;
    index_.clear();
    offset_.assign(1, 0);
  }

  /// Append a row.
  void push_row(std::span<const std::uint32_t> codes) {
    index_.insert(index_.end(), codes.begin(), codes.end());
    close_row();
  }

  /// Append a row in place: write its codes to the back of open_row(), then
  /// call close_row(), which checks them.
  std::vector<std::uint32_t>& open_row() { return index_; }
  void close_row() {
    const std::uint32_t begin = offset_.back();
    check_codes(std::span(index_).subspan(begin), cols_);
    offset_.push_back(static_cast<std::uint32_t>(index_.size()));
  }

  std::size_t rows() const { return offset_.size() - 1; }
  std::size_t cols() const { return cols_; }
  const std::uint32_t* index() const { return index_.data(); }
  const std::uint32_t* offset() const { return offset_.data(); }

 private:
  std::size_t cols_ = 0;
  std::vector<std::uint32_t> index_;
  std::vector<std::uint32_t> offset_ = {0};
};

}  // namespace mlad::nn
