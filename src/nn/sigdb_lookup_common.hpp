// Shared scalar core of the sigdb_lookup_rows kernel (DESIGN.md §13): a
// branchless Eytzinger descent over per-query key blocks. Each query q
// searches the 1-indexed block nodes[node_begin[q] .. node_begin[q] +
// node_count[q]] (slot 0 of every block is a sentinel) and reports the
// 1-based Eytzinger position of the key, or 0 when absent.
//
// The scalar/NEON backends use the LEVEL-SYNCHRONOUS walk directly — all
// queries of a chunk advance one tree level per sweep, so up to 64
// independent loads are in flight at once and the cache misses of different
// descents overlap; the win is memory-level parallelism, not ALU width. The
// AVX2/AVX-512 TUs run their own gathered walks on the same
// level-synchronous schedule and do not include this header; the
// single-query form serves one-off lookups (sigdb/sigdb_view.cpp). The
// result is a pure function of (block contents, key), so every backend is
// bit-identical by construction.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>

namespace mlad::nn::detail {

/// Lower-bound style Eytzinger descent for one key. `base` points at the
/// block's slot 0; valid node indices are 1..n. Depth is bounded by
/// log2(n)+1 ≤ 33 (block sizes are < 2^32), so `i` never approaches the
/// shift-width limit of the trailing-ones trick below.
inline std::uint32_t sigdb_lookup_one(const std::uint64_t* base,
                                      std::uint64_t n, std::uint64_t key) {
  std::uint64_t i = 1;
  while (i <= n) i = 2 * i + (base[i] < key);
  // Undo the trailing right-turns: the candidate (first element >= key) sits
  // at i with the trailing 1-bits and one 0 stripped; j == 0 means every
  // element is < key.
  const std::uint64_t j =
      i >> (static_cast<unsigned>(std::countr_one(i)) + 1);
  return (j != 0 && base[j] == key) ? static_cast<std::uint32_t>(j) : 0u;
}

/// Level-synchronous batch walk — the portable sigdb_lookup_rows body.
/// Every sweep of the inner loop advances ALL still-active descents by one
/// tree level; the per-lane loads within a sweep are independent, so an
/// out-of-order core keeps up to kLanes cache misses in flight. Shards are
/// near-uniform in size, so lanes finish within a level or two of each
/// other and the tail sweeps are cheap.
inline void sigdb_lookup_levelsync(const std::uint64_t* nodes,
                                   const std::uint64_t* node_begin,
                                   const std::uint64_t* node_count,
                                   const std::uint64_t* keys,
                                   std::uint32_t* out_pos, std::size_t qb,
                                   std::size_t qe) {
  constexpr std::size_t kLanes = 64;
  std::uint64_t idx[kLanes];
  for (std::size_t c = qb; c < qe; c += kLanes) {
    const std::size_t m = qe - c < kLanes ? qe - c : kLanes;
    for (std::size_t j = 0; j < m; ++j) idx[j] = 1;
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t i = idx[j];
        if (i <= node_count[c + j]) {
          idx[j] = 2 * i + (nodes[node_begin[c + j] + i] < keys[c + j]);
          any = true;
        }
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t i = idx[j];
      const std::uint64_t p =
          i >> (static_cast<unsigned>(std::countr_one(i)) + 1);
      out_pos[c + j] = (p != 0 && nodes[node_begin[c + j] + p] == keys[c + j])
                           ? static_cast<std::uint32_t>(p)
                           : 0u;
    }
  }
}

}  // namespace mlad::nn::detail
