// Shared body of the x86 SIMD kernel backends (DESIGN.md §7): the
// polynomial exp/sigmoid/tanh, the register-blocked matmul micro-kernel,
// the layer-0 code kernels, the fused LSTM gate kernels and the row
// softmax, written once as templates over a vector-ops struct `V`.
// kernels_avx2.cpp (8 lanes) and kernels_avx512.cpp (16 lanes) each define
// their ops struct, include this header and list the instantiations in
// their KernelBackend table.
//
// `V` provides:
//   reg, W                       register type and lane count
//   load, store                  unaligned W-float memory ops
//   set1, zero                   broadcasts
//   add, sub, mul, div           lane-wise arithmetic
//   fma(a,b,c) = a·b+c, fnmadd(a,b,c) = c−a·b  (single rounding)
//   min, max, floor, abs
//   copysign(m, x)               m (≥ +0) with x's sign bit ORed in
//   select_nonneg(x, t, f)       per lane x ≥ 0 ? t : f
//   pow2n(n)                     2^n for integral-valued n in normal range
//
// Rounding: the j (column) dimension is vectorized, so per output element
// the k-summation ORDER is identical to the scalar backend — only FMA
// contraction and the polynomial exp change the last bits. Row partitioning
// across pool workers therefore stays bit-identical within a backend. Each
// instantiation performs the same operations in the same order, so where
// the vector/tail split of a shape agrees (matmul always, gates when
// H % 16 == 0) the 8- and 16-lane backends agree bitwise too.
//
// Everything here has internal linkage (anonymous namespace), for the
// reason kernels_scalar_tail.hpp gives: the two including TUs are compiled
// with different ISA flags, and an external-linkage inline function would
// be kept ONCE for the whole binary — possibly the -mavx512f copy, run on
// an AVX2-only host.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <type_traits>

#include "nn/kernels_codes.hpp"
#include "nn/kernels_scalar_tail.hpp"

namespace mlad::nn {
namespace {

// ---- vector transcendentals ------------------------------------------------

/// Cephes-style polynomial exp, elementwise over W lanes (~1 ulp) — the
/// same constants as detail::scalar_exp_poly and the NEON backend. Input is
/// clamped to the finite-float exponent range.
template <class V>
typename V::reg simd_exp(typename V::reg x) {
  x = V::max(V::min(x, V::set1(88.3762626647949f)),
             V::set1(-88.3762626647949f));

  // n = floor(x/ln2 + 0.5); reduce x to r = x - n*ln2 (split constant).
  const typename V::reg n =
      V::floor(V::fma(x, V::set1(1.44269504088896341f), V::set1(0.5f)));
  x = V::fnmadd(n, V::set1(0.693359375f), x);
  x = V::fnmadd(n, V::set1(-2.12194440e-4f), x);

  // exp(r) ≈ 1 + r + r²·P(r).
  typename V::reg y = V::set1(1.9875691500e-4f);
  y = V::fma(y, x, V::set1(1.3981999507e-3f));
  y = V::fma(y, x, V::set1(8.3334519073e-3f));
  y = V::fma(y, x, V::set1(4.1665795894e-2f));
  y = V::fma(y, x, V::set1(1.6666665459e-1f));
  y = V::fma(y, x, V::set1(5.0000001201e-1f));
  y = V::fma(y, V::mul(x, x), V::add(x, V::set1(1.0f)));

  // Scale by 2^n through the exponent bits.
  return V::mul(y, V::pow2n(n));
}

/// σ(x) = (x ≥ 0 ? 1 : e) / (1 + e) with e = exp(-|x|) — the same
/// overflow-free form as the scalar k_sigmoid.
template <class V>
typename V::reg simd_sigmoid(typename V::reg x) {
  const typename V::reg one = V::set1(1.0f);
  const typename V::reg e = simd_exp<V>(V::sub(V::zero(), V::abs(x)));
  return V::div(V::select_nonneg(x, one, e), V::add(one, e));
}

/// tanh(x) = sign(x)·(1 − e₂)/(1 + e₂) with e₂ = exp(−2|x|); never
/// overflows and is exact at ±∞-saturation.
template <class V>
typename V::reg simd_tanh(typename V::reg x) {
  const typename V::reg one = V::set1(1.0f);
  const typename V::reg e2 = simd_exp<V>(V::mul(V::abs(x), V::set1(-2.0f)));
  return V::copysign(V::div(V::sub(one, e2), V::add(one, e2)), x);
}

// ---- matmul micro-kernels --------------------------------------------------

// Per-element accumulation discipline: ascending k, a FUSED multiply-add at
// EVERY k (V::fma in the vector lanes, std::fmaf in scalar tails) — no
// zero-skipping, unlike the scalar backend. Skips would have to fire
// identically for every row count of the micro-kernel to keep bit-identical
// thread invariance (fma(0, b, acc) is NOT a bitwise no-op when acc is -0.0
// or b is non-finite), and per-row predication costs more on dense operands
// than the skip saves. With every k executed, an output element's bit
// pattern is independent of which row group a partition routed it through,
// so the §5 contract holds within each backend. One-hot layer-0 inputs do
// not come here at all: they take the code kernels (kernels_codes.hpp).

/// Register-blocked micro-kernel: R ∈ 1..4 output rows × a 2W-column tile,
/// 2R accumulator registers held across the whole K loop, so every loaded b
/// row chunk is reused R× (at R = 4, a quarter of the b traffic of a
/// row-at-a-time kernel — the bandwidth this product is otherwise bound
/// on). `a_at(k, r)` must return a(row r, k). The row count never changes
/// any element's k-summation order, so a partition's B % 4 leftover rows
/// compute the same bits as a full group, at register-blocked speed.
template <class V, std::size_t R, typename AccessA>
void micro_rows(const AccessA& a_at, const float* b, float* out,
                std::size_t K, std::size_t N) {
  constexpr std::size_t W = V::W;
  std::size_t j = 0;
  for (; j + 2 * W <= N; j += 2 * W) {
    typename V::reg acc0[R];
    typename V::reg acc1[R];
    for (std::size_t r = 0; r < R; ++r) {
      acc0[r] = V::load(out + r * N + j);
      acc1[r] = V::load(out + r * N + j + W);
    }
    for (std::size_t k = 0; k < K; ++k) {
      const typename V::reg vb0 = V::load(b + k * N + j);
      const typename V::reg vb1 = V::load(b + k * N + j + W);
      for (std::size_t r = 0; r < R; ++r) {
        acc0[r] = V::fma(V::set1(a_at(k, r)), vb0, acc0[r]);
        acc1[r] = V::fma(V::set1(a_at(k, r)), vb1, acc1[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) {
      V::store(out + r * N + j, acc0[r]);
      V::store(out + r * N + j + W, acc1[r]);
    }
  }
  for (; j + W <= N; j += W) {
    typename V::reg acc[R];
    for (std::size_t r = 0; r < R; ++r) acc[r] = V::load(out + r * N + j);
    for (std::size_t k = 0; k < K; ++k) {
      const typename V::reg vb = V::load(b + k * N + j);
      for (std::size_t r = 0; r < R; ++r) {
        acc[r] = V::fma(V::set1(a_at(k, r)), vb, acc[r]);
      }
    }
    for (std::size_t r = 0; r < R; ++r) V::store(out + r * N + j, acc[r]);
  }
  if (j < N) {
    for (std::size_t k = 0; k < K; ++k) {
      for (std::size_t r = 0; r < R; ++r) {
        const float av = a_at(k, r);
        float* row = out + r * N;
        for (std::size_t jj = j; jj < N; ++jj) {
          row[jj] = std::fmaf(av, b[k * N + jj], row[jj]);
        }
      }
    }
  }
}

/// Rows [rb, re) through micro_rows: groups of 4, then one group of the
/// 1–3 leftover rows. `group(i, tag)` runs rows i.. with R = tag's value.
template <std::size_t R>
using Rows = std::integral_constant<std::size_t, R>;

template <typename Group>
void for_row_groups(std::size_t rb, std::size_t re, const Group& group) {
  std::size_t i = rb;
  for (; i + 4 <= re; i += 4) group(i, Rows<4>{});
  switch (re - i) {
    case 3: group(i, Rows<3>{}); break;
    case 2: group(i, Rows<2>{}); break;
    case 1: group(i, Rows<1>{}); break;
    default: break;
  }
}

template <class V>
void simd_nn_rows(const float* a, const float* b, float* out, std::size_t K,
                  std::size_t N, std::size_t rb, std::size_t re) {
  for_row_groups(rb, re, [&](std::size_t i, auto rows) {
    const float* a0 = a + i * K;
    micro_rows<V, decltype(rows)::value>(
        [&](std::size_t k, std::size_t r) { return a0[r * K + k]; }, b,
        out + i * N, K, N);
  });
}

template <class V>
void simd_tn_rows(const float* a, const float* b, float* out, std::size_t K,
                  std::size_t M, std::size_t N, std::size_t rb,
                  std::size_t re) {
  for_row_groups(rb, re, [&](std::size_t i, auto rows) {
    // Out rows are columns of a: the group's a-values of one k sit
    // contiguously at a[k*M + i ..].
    const float* a_col = a + i;
    micro_rows<V, decltype(rows)::value>(
        [&](std::size_t k, std::size_t r) { return a_col[k * M + r]; }, b,
        out + i * N, K, N);
  });
}

// ---- layer-0 code kernels ---------------------------------------------------

// The dense products above are a fused ascending-k chain in every lane and
// tail, so the code kernels (kernels_codes.hpp) run chained throughout.

void simd_gather_rows(const std::uint32_t* index, const std::uint32_t* offset,
                      const float* b, float* out, std::size_t, std::size_t N,
                      std::size_t rb, std::size_t re) {
  codes_gather_rows(index, offset, b, out, N, /*pair_below=*/0, rb, re);
}

void simd_scatter_rows(const float* a, const std::uint32_t* index,
                       const std::uint32_t* offset, std::size_t B,
                       std::size_t K, std::size_t M, float* out,
                       std::size_t rb, std::size_t re) {
  codes_scatter_rows(a, index, offset, B, M, out, /*pair_from=*/K, rb, re);
}

// ---- fused gate kernels ----------------------------------------------------

// Ragged tails (H % W columns) run the shared scalar bodies
// (kernels_scalar_tail.hpp). Their rounding differs from the vector lanes,
// but each element is computed the same way on every run and every thread
// count, which is all §5 requires.

template <class V>
void simd_gates_forward_rows(const float* a, const float* c_prev, float* i,
                             float* f, float* o, float* g, float* c,
                             float* tanh_c, float* h, std::size_t H,
                             std::size_t rb, std::size_t re) {
  for (std::size_t r = rb; r < re; ++r) {
    const float* ar = a + r * 4 * H;
    const float* cp = c_prev + r * H;
    float* ir = i + r * H;
    float* fr = f + r * H;
    float* orow = o + r * H;
    float* gr = g + r * H;
    float* cr = c + r * H;
    float* tr = tanh_c + r * H;
    float* hr = h + r * H;
    std::size_t j = 0;
    for (; j + V::W <= H; j += V::W) {
      const typename V::reg vi = simd_sigmoid<V>(V::load(ar + j));
      const typename V::reg vf = simd_sigmoid<V>(V::load(ar + H + j));
      const typename V::reg vo = simd_sigmoid<V>(V::load(ar + 2 * H + j));
      const typename V::reg vg = simd_tanh<V>(V::load(ar + 3 * H + j));
      const typename V::reg vc = V::fma(vf, V::load(cp + j), V::mul(vi, vg));
      const typename V::reg vt = simd_tanh<V>(vc);
      V::store(ir + j, vi);
      V::store(fr + j, vf);
      V::store(orow + j, vo);
      V::store(gr + j, vg);
      V::store(cr + j, vc);
      V::store(tr + j, vt);
      V::store(hr + j, V::mul(vo, vt));
    }
    detail::scalar_gates_forward_cols(ar, cp, ir, fr, orow, gr, cr, tr, hr,
                                      H, /*j0=*/j);
  }
}

template <class V>
void simd_gates_backward_rows(const float* i, const float* f, const float* o,
                              const float* g, const float* c_prev,
                              const float* tanh_c, const float* dh,
                              const float* dc_in, float* da, float* dc_prev,
                              std::size_t H, std::size_t carry_rows,
                              std::size_t rb, std::size_t re) {
  const typename V::reg one = V::set1(1.0f);
  for (std::size_t r = rb; r < re; ++r) {
    const float* ir = i + r * H;
    const float* fr = f + r * H;
    const float* orow = o + r * H;
    const float* gr = g + r * H;
    const float* cp = c_prev + r * H;
    const float* tr = tanh_c + r * H;
    const float* dhr = dh + r * H;
    const float* dci = r < carry_rows ? dc_in + r * H : nullptr;
    float* dar = da + r * 4 * H;
    float* dcp = dc_prev + r * H;
    std::size_t j = 0;
    for (; j + V::W <= H; j += V::W) {
      const typename V::reg vdh = V::load(dhr + j);
      const typename V::reg vt = V::load(tr + j);
      const typename V::reg vo = V::load(orow + j);
      const typename V::reg vi = V::load(ir + j);
      const typename V::reg vf = V::load(fr + j);
      const typename V::reg vg = V::load(gr + j);
      const typename V::reg do_out = V::mul(vdh, vt);
      typename V::reg vdc = V::mul(V::mul(vdh, vo), V::fnmadd(vt, vt, one));
      if (dci != nullptr) vdc = V::add(vdc, V::load(dci + j));
      V::store(dcp + j, V::mul(vdc, vf));
      const typename V::reg di_out = V::mul(vdc, vg);
      const typename V::reg df_out = V::mul(vdc, V::load(cp + j));
      const typename V::reg dg_out = V::mul(vdc, vi);
      V::store(dar + j, V::mul(di_out, V::mul(vi, V::sub(one, vi))));
      V::store(dar + H + j, V::mul(df_out, V::mul(vf, V::sub(one, vf))));
      V::store(dar + 2 * H + j, V::mul(do_out, V::mul(vo, V::sub(one, vo))));
      V::store(dar + 3 * H + j, V::mul(dg_out, V::fnmadd(vg, vg, one)));
    }
    detail::scalar_gates_backward_cols(ir, fr, orow, gr, cp, tr, dhr, dci,
                                       dar, dcp, H, /*j0=*/j);
  }
}

// ---- row softmax -----------------------------------------------------------

/// Fixed recursive-halving sum of N lanes: ((l0+l1)+(l2+l3))+((l4+l5)+
/// (l6+l7)) at 8 lanes; at 16, that tree on each half, then one add.
template <std::size_t N>
float pairwise_sum(const float* l) {
  if constexpr (N == 1) {
    return l[0];
  } else {
    return pairwise_sum<N / 2>(l) + pairwise_sum<N / 2>(l + N / 2);
  }
}

// Row-wise softmax on the polynomial simd_exp. Per row: vector max (exact,
// so the subtracted pivot matches the scalar backend bit-for-bit), exp over
// W-lane groups with a scalar polynomial tail, lane-grouped sum finished by
// pairwise_sum. The sum order differs from the scalar backend and between
// widths (allowed between backends) but is a fixed function of C alone, so
// a row's bits never depend on B or on the partition.
template <class V>
void simd_softmax_rows(float* m, std::size_t C, std::size_t rb,
                       std::size_t re) {
  constexpr std::size_t W = V::W;
  alignas(sizeof(typename V::reg)) float lanes[W];
  for (std::size_t r = rb; r < re; ++r) {
    float* row = m + r * C;
    float mx = row[0];
    std::size_t j = 1;
    if (C >= W + 1) {
      typename V::reg vmx = V::load(row);
      for (j = W; j + W <= C; j += W) vmx = V::max(vmx, V::load(row + j));
      V::store(lanes, vmx);
      mx = lanes[0];
      for (std::size_t l = 1; l < W; ++l) mx = std::max(mx, lanes[l]);
    }
    for (; j < C; ++j) mx = std::max(mx, row[j]);

    const typename V::reg vpivot = V::set1(mx);
    typename V::reg vsum = V::zero();
    for (j = 0; j + W <= C; j += W) {
      const typename V::reg e = simd_exp<V>(V::sub(V::load(row + j), vpivot));
      V::store(row + j, e);
      vsum = V::add(vsum, e);
    }
    V::store(lanes, vsum);
    float sum = pairwise_sum<W>(lanes);
    for (; j < C; ++j) {
      row[j] = detail::scalar_exp_poly(row[j] - mx);
      sum += row[j];
    }

    const float inv = 1.0f / sum;
    const typename V::reg vinv = V::set1(inv);
    for (j = 0; j + W <= C; j += W) {
      V::store(row + j, V::mul(V::load(row + j), vinv));
    }
    for (; j < C; ++j) row[j] *= inv;
  }
}

}  // namespace
}  // namespace mlad::nn
