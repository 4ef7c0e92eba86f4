// AVX2+FMA kernel backend (DESIGN.md §7): the 8-lane ops struct that
// instantiates the shared SIMD kernel body (kernels_simd.hpp), plus this
// width's own gathered sigdb walk. This TU is the only one compiled with
// -mavx2 -mfma (per-file CMake flags), so the enclosing binary stays
// baseline-safe: nothing here runs unless the cpuid dispatcher picked it.
#include "nn/kernel_backend.hpp"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "nn/kernels_simd.hpp"

namespace mlad::nn {
namespace {

/// 8-lane AVX2+FMA vector ops for the shared kernel body (kernels_simd.hpp).
struct Avx2 {
  using reg = __m256;
  static constexpr std::size_t W = 8;
  static reg load(const float* p) { return _mm256_loadu_ps(p); }
  static void store(float* p, reg v) { _mm256_storeu_ps(p, v); }
  static reg set1(float x) { return _mm256_set1_ps(x); }
  static reg zero() { return _mm256_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm256_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm256_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm256_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm256_div_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm256_fmadd_ps(a, b, c); }
  static reg fnmadd(reg a, reg b, reg c) { return _mm256_fnmadd_ps(a, b, c); }
  static reg min(reg a, reg b) { return _mm256_min_ps(a, b); }
  static reg max(reg a, reg b) { return _mm256_max_ps(a, b); }
  static reg floor(reg x) { return _mm256_floor_ps(x); }
  static reg abs(reg x) { return _mm256_andnot_ps(_mm256_set1_ps(-0.0f), x); }
  static reg copysign(reg m, reg x) {
    return _mm256_or_ps(m, _mm256_and_ps(_mm256_set1_ps(-0.0f), x));
  }
  static reg select_nonneg(reg x, reg t, reg f) {
    const __m256 nonneg = _mm256_cmp_ps(x, zero(), _CMP_GE_OQ);
    return _mm256_blendv_ps(f, t, nonneg);
  }
  static reg pow2n(reg n) {
    const __m256i biased =
        _mm256_add_epi32(_mm256_cvttps_epi32(n), _mm256_set1_epi32(0x7f));
    return _mm256_castsi256_ps(_mm256_slli_epi32(biased, 23));
  }
};

/// Batched Eytzinger search, 4 queries per vector: all four descents step in
/// lockstep via a masked 64-bit gather, so the four node loads of one
/// iteration issue together. Lanes whose walk has ended (i > n) keep their
/// state through the gather mask and the blend. AVX2 has no unsigned 64-bit
/// compare, so both operands are sign-flipped and compared signed — an
/// order-preserving bijection. The final trailing-ones fixup is cheap and
/// scalar. Exact integer search: bit-identical to the scalar backend.
void sigdb_lookup_rows_(const std::uint64_t* nodes,
                        const std::uint64_t* node_begin,
                        const std::uint64_t* node_count,
                        const std::uint64_t* keys, std::uint32_t* out_pos,
                        std::size_t qb, std::size_t qe) {
  // Level-synchronous schedule (same as the scalar reference): every sweep
  // advances ALL still-active 4-lane groups of the chunk by one tree level,
  // so up to kLanes gathered loads are outstanding at once — the walk is
  // memory-latency bound and lockstep-per-group alone would cap the
  // parallelism at 4. Lane state lives in small stack arrays (L1-resident);
  // padding lanes get count 0 so they go inactive before the first gather.
  constexpr std::size_t kLanes = 64;
  const __m256i vsign = _mm256_set1_epi64x(
      static_cast<long long>(0x8000000000000000ull));
  const __m256i vone = _mm256_set1_epi64x(1);
  const __m256i vall = _mm256_set1_epi64x(-1);
  alignas(32) std::uint64_t idx[kLanes];
  alignas(32) std::uint64_t beg[kLanes], cnt[kLanes], kk[kLanes];
  for (std::size_t c = qb; c < qe; c += kLanes) {
    const std::size_t m = qe - c < kLanes ? qe - c : kLanes;
    const std::size_t mp = (m + 3) & ~std::size_t{3};
    for (std::size_t j = 0; j < m; ++j) {
      beg[j] = node_begin[c + j];
      cnt[j] = node_count[c + j];
      kk[j] = keys[c + j];
      idx[j] = 1;
    }
    for (std::size_t j = m; j < mp; ++j) {
      beg[j] = 0;
      cnt[j] = 0;  // 1 > 0 ⇒ the pad lane never gathers
      kk[j] = 0;
      idx[j] = 1;
    }
    bool any = true;
    while (any) {
      any = false;
      for (std::size_t g = 0; g < mp; g += 4) {
        const __m256i vi =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(idx + g));
        const __m256i vn =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(cnt + g));
        // active lane ⇔ i <= n ⇔ !(i > n), computed in sign-flipped space.
        const __m256i vi_s = _mm256_xor_si256(vi, vsign);
        const __m256i vn_s = _mm256_xor_si256(vn, vsign);
        const __m256i vactive =
            _mm256_andnot_si256(_mm256_cmpgt_epi64(vi_s, vn_s), vall);
        if (_mm256_movemask_epi8(vactive) == 0) continue;
        any = true;
        const __m256i vbegin =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(beg + g));
        const __m256i vkey =
            _mm256_load_si256(reinterpret_cast<const __m256i*>(kk + g));
        const __m256i vidx = _mm256_add_epi64(vbegin, vi);
        const __m256i vnode = _mm256_mask_i64gather_epi64(
            vi, reinterpret_cast<const long long*>(nodes), vidx, vactive, 8);
        // step = (node < key): compare sign-flipped, take the low bit.
        const __m256i vlt = _mm256_cmpgt_epi64(
            _mm256_xor_si256(vkey, vsign), _mm256_xor_si256(vnode, vsign));
        const __m256i vnext = _mm256_add_epi64(_mm256_slli_epi64(vi, 1),
                                               _mm256_and_si256(vlt, vone));
        _mm256_store_si256(reinterpret_cast<__m256i*>(idx + g),
                           _mm256_blendv_epi8(vi, vnext, vactive));
      }
    }
    for (std::size_t j = 0; j < m; ++j) {
      const std::uint64_t p =
          idx[j] >> (static_cast<unsigned>(std::countr_one(idx[j])) + 1);
      const std::uint64_t* base = nodes + beg[j];
      out_pos[c + j] =
          (p != 0 && base[p] == kk[j]) ? static_cast<std::uint32_t>(p) : 0u;
    }
  }
}

constexpr KernelBackend kAvx2Backend = {
    "avx2", simd_nn_rows<Avx2>, simd_tn_rows<Avx2>,
    simd_gather_rows, simd_scatter_rows,
    simd_gates_forward_rows<Avx2>, simd_gates_backward_rows<Avx2>,
    simd_softmax_rows<Avx2>, sigdb_lookup_rows_,
};

}  // namespace

const KernelBackend* avx2_kernel_backend() { return &kAvx2Backend; }

}  // namespace mlad::nn

#else  // !(__AVX2__ && __FMA__)

namespace mlad::nn {
const KernelBackend* avx2_kernel_backend() { return nullptr; }
}  // namespace mlad::nn

#endif
