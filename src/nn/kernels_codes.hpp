// The layer-0 code kernels of every backend (DESIGN.md §4, §7), written
// once in portable C++. Layer 0 reads code rows (nn/codes.hpp): the active
// columns of a one-hot row, every active value 1. Its forward product x·b is
// then a gather-sum of the active rows of b, and its weight gradient aᵀ·x a
// scatter-add of a's rows into the active columns.
//
// Bits are the contract: each entry must reproduce its backend's own dense
// product (matmul_nn_rows / matmul_tn_rows on the one-hot row) exactly.
// Dense backends accumulate in one of two ways, and both are expressible
// over the active terms alone:
//
//   chained  a fused ascending-k chain (AVX2, AVX-512, NEON vector lanes).
//            fma(1, w, a) rounds like a + w, and fma(0, w, a) = a for
//            a ≠ −0 and finite w; accumulators that start at +0 never reach
//            −0. So adding the active terms one at a time, in ascending
//            order, gives the same bits.
//   paired   the scalar backend's 4-wide k-blocks (kernels_scalar.cpp),
//            (x0·b0 + x1·b1) + (x2·b2 + x3·b3), which NEON also uses for its
//            N % 4 column tail. A block with no active term is skipped;
//            a block with any is summed with that exact formula, x ∈ {0,1}.
//            Products by 0 or 1 are exact, so FMA contraction of the formula
//            (a -march=native build) cannot change its result either.
//
// Each backend passes where its paired range lies. Everything here has
// internal linkage, for the reason kernels_scalar_tail.hpp gives: the
// including TUs are compiled with different ISA flags.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

namespace mlad::nn {
namespace {

/// The including TU's native float vector in the GNU vector extension (gcc,
/// clang): 16 lanes under AVX-512, 8 under AVX, else 4 (SSE, NEON). Lanes
/// add independently with IEEE rounding, so the width never changes a bit.
/// The helpers take it by reference: by value its calling convention would
/// depend on the TU's ISA flags (gcc's -Wpsabi).
#if defined(__AVX512F__)
constexpr std::size_t kVec = 16;
#elif defined(__AVX__)
constexpr std::size_t kVec = 8;
#else
constexpr std::size_t kVec = 4;
#endif
typedef float vfloat __attribute__((vector_size(kVec * sizeof(float))));

inline void vload(vfloat& v, const float* p) { std::memcpy(&v, p, sizeof(v)); }

inline void vadd(vfloat& v, const float* p) {
  vfloat w;
  vload(w, p);
  v += w;
}

inline void vstore(float* p, const vfloat& v) {
  std::memcpy(p, &v, sizeof(v));
}

/// out[0, V·kVec) += the rows of b (stride N) named by codes[0, n), one
/// code at a time in ascending order. The accumulator tile stays in V
/// registers across the whole code list.
template <std::size_t V>
void chain_tile(const std::uint32_t* codes, std::size_t n, const float* b,
                std::size_t N, float* out) {
  vfloat acc[V];
  for (std::size_t v = 0; v < V; ++v) vload(acc[v], out + v * kVec);
  for (std::size_t q = 0; q < n; ++q) {
    const float* b_row = b + codes[q] * N;
    for (std::size_t v = 0; v < V; ++v) vadd(acc[v], b_row + v * kVec);
  }
  for (std::size_t v = 0; v < V; ++v) vstore(out + v * kVec, acc[v]);
}

/// out_row[0, N) += the rows of b named by codes [c, end), chained.
void chain_row(const std::uint32_t* c, const std::uint32_t* end,
               const float* b, std::size_t N, float* out_row) {
  const std::size_t n = static_cast<std::size_t>(end - c);
  if (n == 0) return;
  std::size_t j = 0;
  for (; j + 4 * kVec <= N; j += 4 * kVec) {
    chain_tile<4>(c, n, b + j, N, out_row + j);
  }
  for (; j + kVec <= N; j += kVec) {
    chain_tile<1>(c, n, b + j, N, out_row + j);
  }
  for (; j < N; ++j) {
    float acc = out_row[j];
    for (std::size_t q = 0; q < n; ++q) acc += b[c[q] * N + j];
    out_row[j] = acc;
  }
}

/// out[0, M) += a[0, M).
inline void add_row(float* out, const float* a, std::size_t M) {
  std::size_t i = 0;
  for (; i + kVec <= M; i += kVec) {
    vfloat v;
    vload(v, out + i);
    vadd(v, a + i);
    vstore(out + i, v);
  }
  for (; i < M; ++i) out[i] += a[i];
}

/// out rows [rb,re) += x·b (b: K×N) for code rows x. Codes below
/// `pair_below` (a multiple of 4) are summed paired, per 4-aligned k-block;
/// the rest chained, in ascending order after them.
void codes_gather_rows(const std::uint32_t* index, const std::uint32_t* offset,
                       const float* b, float* out, std::size_t N,
                       std::size_t pair_below, std::size_t rb,
                       std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const std::uint32_t* c = index + offset[r];
    const std::uint32_t* const end = index + offset[r + 1];
    float* out_row = out + r * N;
    while (c != end && *c < pair_below) {
      const std::size_t k = *c & ~std::size_t{3};
      float x[4] = {0.0f, 0.0f, 0.0f, 0.0f};
      for (; c != end && *c < k + 4; ++c) x[*c - k] = 1.0f;
      const float* b0 = b + k * N;
      const float* b1 = b0 + N;
      const float* b2 = b1 + N;
      const float* b3 = b2 + N;
      for (std::size_t j = 0; j < N; ++j) {
        out_row[j] += (x[0] * b0[j] + x[1] * b1[j]) +
                      (x[2] * b2[j] + x[3] * b3[j]);
      }
    }
    chain_row(c, end, b, N, out_row);
  }
}

/// The codes of one row that fall in [lo, hi).
inline void codes_in(const std::uint32_t* index, const std::uint32_t* offset,
                     std::size_t r, std::size_t lo, std::size_t hi,
                     const std::uint32_t*& first, const std::uint32_t*& last) {
  const std::uint32_t* const begin = index + offset[r];
  const std::uint32_t* const end = index + offset[r + 1];
  first = std::lower_bound(begin, end, lo);
  last = std::lower_bound(first, end, hi);
}

/// out rows [rb,re) += xᵀ·a for B code rows x (a: B×M, out: K×M): the
/// transposed layer-0 weight gradient, one contiguous out row per active
/// column. Columns at or above `pair_from` are summed paired over 4-aligned
/// blocks of batch rows, then the B % 4 tail rows one at a time; columns
/// below it chained over every batch row in ascending order.
void codes_scatter_rows(const float* a, const std::uint32_t* index,
                        const std::uint32_t* offset, std::size_t B,
                        std::size_t M, float* out, std::size_t pair_from,
                        std::size_t rb, std::size_t re) {
  const std::uint32_t* first;
  const std::uint32_t* last;
  const std::size_t chain_end = std::min(re, pair_from);
  if (rb < chain_end) {
    for (std::size_t r = 0; r < B; ++r) {
      const float* a_row = a + r * M;
      codes_in(index, offset, r, rb, chain_end, first, last);
      for (; first != last; ++first) add_row(out + *first * M, a_row, M);
    }
  }
  const std::size_t pair_begin = std::max(rb, pair_from);
  if (pair_begin >= re) return;
  const std::size_t B4 = B - B % 4;
  for (std::size_t k = 0; k < B4; k += 4) {
    // Walk the union of the block's four code lists in ascending column
    // order; x marks which of the four rows hold the column.
    const std::uint32_t* p[4];
    const std::uint32_t* e[4];
    for (std::size_t q = 0; q < 4; ++q) {
      codes_in(index, offset, k + q, pair_begin, re, p[q], e[q]);
    }
    while (true) {
      std::size_t c = re;
      for (std::size_t q = 0; q < 4; ++q) {
        if (p[q] != e[q]) c = std::min<std::size_t>(c, *p[q]);
      }
      if (c == re) break;
      float x[4];
      for (std::size_t q = 0; q < 4; ++q) {
        const bool hit = p[q] != e[q] && *p[q] == c;
        x[q] = hit ? 1.0f : 0.0f;
        if (hit) ++p[q];
      }
      const float* a0 = a + k * M;
      const float* a1 = a0 + M;
      const float* a2 = a1 + M;
      const float* a3 = a2 + M;
      float* out_row = out + c * M;
      for (std::size_t i = 0; i < M; ++i) {
        out_row[i] += (a0[i] * x[0] + a1[i] * x[1]) +
                      (a2[i] * x[2] + a3[i] * x[3]);
      }
    }
  }
  for (std::size_t r = B4; r < B; ++r) {
    const float* a_row = a + r * M;
    codes_in(index, offset, r, pair_begin, re, first, last);
    for (; first != last; ++first) add_row(out + *first * M, a_row, M);
  }
}

}  // namespace
}  // namespace mlad::nn
