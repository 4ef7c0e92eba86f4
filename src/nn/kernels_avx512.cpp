// AVX-512 kernel backend (DESIGN.md §7, §11): the 16-lane ops struct that
// instantiates the shared SIMD kernel body (kernels_simd.hpp), plus this
// width's own gathered sigdb walk. This TU is the only one compiled with
// -mavx512f -mavx512bw -mavx512vl (per-file CMake flags), so the enclosing
// binary stays baseline-safe: nothing here runs unless the cpuid dispatcher
// (which also checks the OS saves ZMM/opmask state) picked it.
#include "nn/kernel_backend.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

// GCC's _mm512_undefined_ps trips -Wmaybe-uninitialized inside the
// intrinsics header itself (gcc PR105593); nothing here reads
// uninitialized state.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

#include <immintrin.h>

#include <bit>
#include <cstddef>
#include <cstdint>

#include "nn/kernels_simd.hpp"

namespace mlad::nn {
namespace {

/// 16-lane AVX-512 vector ops for the shared kernel body (kernels_simd.hpp).
/// Sign-bit tricks use integer ops through casts (_mm512_and_ps and friends
/// are AVX-512DQ, which this TU deliberately does not require).
struct Avx512 {
  using reg = __m512;
  static constexpr std::size_t W = 16;
  static reg load(const float* p) { return _mm512_loadu_ps(p); }
  static void store(float* p, reg v) { _mm512_storeu_ps(p, v); }
  static reg set1(float x) { return _mm512_set1_ps(x); }
  static reg zero() { return _mm512_setzero_ps(); }
  static reg add(reg a, reg b) { return _mm512_add_ps(a, b); }
  static reg sub(reg a, reg b) { return _mm512_sub_ps(a, b); }
  static reg mul(reg a, reg b) { return _mm512_mul_ps(a, b); }
  static reg div(reg a, reg b) { return _mm512_div_ps(a, b); }
  static reg fma(reg a, reg b, reg c) { return _mm512_fmadd_ps(a, b, c); }
  static reg fnmadd(reg a, reg b, reg c) { return _mm512_fnmadd_ps(a, b, c); }
  static reg min(reg a, reg b) { return _mm512_min_ps(a, b); }
  static reg max(reg a, reg b) { return _mm512_max_ps(a, b); }
  static reg floor(reg x) {
    return _mm512_roundscale_ps(x, _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  }
  static reg abs(reg x) {
    const __m512i bits = _mm512_castps_si512(x);
    return _mm512_castsi512_ps(_mm512_andnot_si512(sign_mask(), bits));
  }
  static reg copysign(reg m, reg x) {
    const __m512i sign = _mm512_and_si512(sign_mask(), _mm512_castps_si512(x));
    return _mm512_castsi512_ps(_mm512_or_si512(_mm512_castps_si512(m), sign));
  }
  static reg select_nonneg(reg x, reg t, reg f) {
    const __mmask16 nonneg = _mm512_cmp_ps_mask(x, zero(), _CMP_GE_OQ);
    return _mm512_mask_blend_ps(nonneg, f, t);
  }
  static reg pow2n(reg n) {
    const __m512i biased =
        _mm512_add_epi32(_mm512_cvttps_epi32(n), _mm512_set1_epi32(0x7f));
    return _mm512_castsi512_ps(_mm512_slli_epi32(biased, 23));
  }
  static __m512i sign_mask() { return _mm512_set1_epi32(0x80000000); }
};

/// Batched Eytzinger search, 8 queries per vector: lockstep descents via a
/// masked 64-bit gather with native unsigned compares
/// (_mm512_cmp*_epu64_mask) and opmask-predicated updates — no sign-flip
/// tricks needed at this width. The trailing-ones fixup stays scalar. Exact
/// integer search: bit-identical to the scalar backend.
void sigdb_lookup_rows_(const std::uint64_t* nodes,
                        const std::uint64_t* node_begin,
                        const std::uint64_t* node_count,
                        const std::uint64_t* keys, std::uint32_t* out_pos,
                        std::size_t qb, std::size_t qe) {
  // Level-synchronous schedule (same as the scalar reference): every sweep
  // advances ALL still-active 8-lane groups of the chunk by one tree level,
  // so up to kLanes gathered loads are outstanding at once — lockstep per
  // group alone would cap the memory-level parallelism at 8. Lane state
  // lives in small stack arrays (L1-resident); padding lanes get count 0 so
  // they go inactive before the first gather.
  constexpr std::size_t kLanes = 64;
  const __m512i vone = _mm512_set1_epi64(1);
  alignas(64) std::uint64_t idx[kLanes];
  alignas(64) std::uint64_t beg[kLanes], cnt[kLanes], kk[kLanes];
  for (std::size_t c = qb; c < qe; c += kLanes) {
    const std::size_t m = qe - c < kLanes ? qe - c : kLanes;
    const std::size_t mp = (m + 7) & ~std::size_t{7};
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
      for (std::size_t g = 0; g < mp; g += 8) {
        const __m512i vi = _mm512_load_si512(idx + g);
        const __m512i vn = _mm512_load_si512(cnt + g);
        const __mmask8 active = _mm512_cmple_epu64_mask(vi, vn);
        if (active == 0) continue;
        any = true;
        const __m512i vbegin = _mm512_load_si512(beg + g);
        const __m512i vkey = _mm512_load_si512(kk + g);
        const __m512i vidx = _mm512_add_epi64(vbegin, vi);
        const __m512i vnode = _mm512_mask_i64gather_epi64(
            vi, active, vidx, nodes, 8);
        const __mmask8 lt =
            _mm512_cmplt_epu64_mask(vnode, vkey) & active;
        // i := 2i (+1 where node < key), only on active lanes.
        __m512i vnext = _mm512_mask_mov_epi64(vi, active,
                                              _mm512_slli_epi64(vi, 1));
        vnext = _mm512_mask_add_epi64(vnext, lt, vnext, vone);
        _mm512_store_si512(idx + g, vnext);
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

constexpr KernelBackend kAvx512Backend = {
    "avx512", simd_nn_rows<Avx512>, simd_tn_rows<Avx512>,
    simd_gates_forward_rows<Avx512>, simd_gates_backward_rows<Avx512>,
    simd_softmax_rows<Avx512>, sigdb_lookup_rows_,
};

}  // namespace

const KernelBackend* avx512_kernel_backend() { return &kAvx512Backend; }

}  // namespace mlad::nn

#else  // !(__AVX512F__ && __AVX512BW__ && __AVX512VL__)

namespace mlad::nn {
const KernelBackend* avx512_kernel_backend() { return nullptr; }
}  // namespace mlad::nn

#endif
