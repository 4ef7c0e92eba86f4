// Kernel backend parity + dispatch (DESIGN.md §7): every SIMD backend that
// is compiled in and usable on this host must (a) agree with the scalar
// reference within the documented tolerance on randomized shapes, including
// ragged tails where M, N, K are not multiples of the vector width, (b) be
// bit-identical across thread counts within itself, and (c) be selectable
// through the MLAD_KERNEL_BACKEND environment override.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/cpu_features.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {
namespace {

/// Restore the env-driven default after a test that fiddles the selection,
/// so tests stay order-independent within this binary.
struct BackendGuard {
  BackendGuard() = default;
  ~BackendGuard() { select_kernel_backend_from_env(); }
};

std::vector<std::string> simd_backends() {
  std::vector<std::string> names;
  for (const std::string& n : available_kernel_backends()) {
    if (n != "scalar") names.push_back(n);
  }
  return names;
}

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng,
                     double zero_fraction = 0.0) {
  Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = rng.bernoulli(zero_fraction)
                      ? 0.0f
                      : static_cast<float>(rng.uniform(-2.0, 2.0));
  }
  return m;
}

void expect_close(const Matrix& got, const Matrix& want, double tol,
                  const std::string& what) {
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = got.data()[i];
    const double w = want.data()[i];
    ASSERT_NEAR(g, w, tol * (1.0 + std::abs(w)))
        << what << " at flat index " << i;
  }
}

void expect_bitwise(const Matrix& a, const Matrix& b, const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  ASSERT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

/// Shapes chosen to exercise every tail path: vector-width multiples,
/// ragged K (k-block tail), ragged N (8/4-lane tail), single elements.
struct Shape {
  std::size_t m, k, n;
};
const Shape kShapes[] = {
    {1, 1, 1},   {3, 7, 5},    {8, 16, 8},  {17, 33, 9},
    {5, 64, 12}, {33, 48, 31}, {2, 100, 3}, {16, 20, 64},
};

TEST(KernelBackends, ScalarAlwaysAvailable) {
  const auto names = available_kernel_backends();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names.front(), "scalar");
  EXPECT_TRUE(select_kernel_backend("scalar"));
  EXPECT_STREQ(kernel_backend().name, "scalar");
  BackendGuard restore;
}

TEST(KernelBackends, MatmulParityVsScalar) {
  BackendGuard restore;
  Rng rng(42);
  for (const std::string& name : simd_backends()) {
    for (const Shape& s : kShapes) {
      // One-hot-ish sparsity on `a` exercises the zero-block skip.
      const Matrix a = random_matrix(s.m, s.k, rng, 0.5);
      const Matrix b = random_matrix(s.k, s.n, rng);
      Matrix ref;
      Matrix out;
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_nn(a, b, ref);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_nn(a, b, out);
      expect_close(out, ref, 1e-4,
                   name + " matmul_nn " + std::to_string(s.m) + "x" +
                       std::to_string(s.k) + "x" + std::to_string(s.n));

      // Accumulating variants, seeded with a nonzero output.
      const Matrix seed = random_matrix(s.m, s.n, rng);
      Matrix ref_acc = seed;
      Matrix out_acc = seed;
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_nn_acc(a, b, ref_acc);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_nn_acc(a, b, out_acc);
      expect_close(out_acc, ref_acc, 1e-4, name + " matmul_nn_acc");

      // grad += aᵀ·b: a is K×M here (inner dim = rows).
      const Matrix at = random_matrix(s.k, s.m, rng);
      const Matrix bt = random_matrix(s.k, s.n, rng);
      Matrix ref_tn(s.m, s.n, 0.25f);
      Matrix out_tn(s.m, s.n, 0.25f);
      ASSERT_TRUE(select_kernel_backend("scalar"));
      matmul_tn_acc(at, bt, ref_tn);
      ASSERT_TRUE(select_kernel_backend(name));
      matmul_tn_acc(at, bt, out_tn);
      expect_close(out_tn, ref_tn, 1e-4, name + " matmul_tn_acc");
    }
  }
}

TEST(KernelBackends, LstmGateParityVsScalar) {
  BackendGuard restore;
  Rng rng(7);
  const std::size_t batches[] = {1, 3, 8};
  const std::size_t hiddens[] = {1, 8, 12, 31, 64};
  for (const std::string& name : simd_backends()) {
    for (std::size_t B : batches) {
      for (std::size_t H : hiddens) {
        const Matrix a = random_matrix(B, 4 * H, rng);
        const Matrix c_prev = random_matrix(B, H, rng);
        Matrix ri, rf, ro, rg, rc, rt, rh;
        Matrix oi, of, oo, og, oc, ot, oh;
        ASSERT_TRUE(select_kernel_backend("scalar"));
        lstm_gates_forward(a, c_prev, ri, rf, ro, rg, rc, rt, rh);
        ASSERT_TRUE(select_kernel_backend(name));
        lstm_gates_forward(a, c_prev, oi, of, oo, og, oc, ot, oh);
        const std::string what =
            name + " gates B=" + std::to_string(B) + " H=" + std::to_string(H);
        expect_close(oi, ri, 1e-5, what + " i");
        expect_close(of, rf, 1e-5, what + " f");
        expect_close(oo, ro, 1e-5, what + " o");
        expect_close(og, rg, 1e-5, what + " g");
        expect_close(oc, rc, 1e-5, what + " c");
        expect_close(ot, rt, 1e-5, what + " tanh_c");
        expect_close(oh, rh, 1e-5, what + " h");

        // Backward over the scalar forward's caches (shared inputs so only
        // the backward kernel is under test); carry covers a strict subset
        // of rows to exercise the ended-sequence path.
        const Matrix dh = random_matrix(B, H, rng);
        const Matrix dc_in = random_matrix(B > 1 ? B - 1 : 0, H, rng);
        Matrix rda, rdc, oda, odc;
        ASSERT_TRUE(select_kernel_backend("scalar"));
        lstm_gates_backward(ri, rf, ro, rg, c_prev, rt, dh, dc_in, rda, rdc);
        ASSERT_TRUE(select_kernel_backend(name));
        lstm_gates_backward(ri, rf, ro, rg, c_prev, rt, dh, dc_in, oda, odc);
        expect_close(oda, rda, 1e-5, what + " da");
        expect_close(odc, rdc, 1e-5, what + " dc_prev");
      }
    }
  }
}

/// The pre-backend softmax_rows loop (libm exp, index order) — the scalar
/// backend must reproduce it bit-for-bit.
Matrix reference_softmax(const Matrix& logits) {
  Matrix m = logits;
  for (std::size_t r = 0; r < m.rows(); ++r) {
    float* row = m.data() + r * m.cols();
    float mx = row[0];
    for (std::size_t j = 1; j < m.cols(); ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::size_t j = 0; j < m.cols(); ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::size_t j = 0; j < m.cols(); ++j) row[j] *= inv;
  }
  return m;
}

TEST(KernelBackends, SoftmaxScalarIsBitIdenticalToReference) {
  BackendGuard restore;
  Rng rng(11);
  ASSERT_TRUE(select_kernel_backend("scalar"));
  for (const std::size_t C : {1u, 5u, 8u, 9u, 16u, 33u, 100u}) {
    const Matrix logits = random_matrix(7, C, rng);
    const Matrix want = reference_softmax(logits);
    Matrix got = logits;
    softmax_rows(got);
    expect_bitwise(got, want, "scalar softmax C=" + std::to_string(C));
  }
}

TEST(KernelBackends, SoftmaxParityVsScalar) {
  BackendGuard restore;
  Rng rng(12);
  for (const std::string& name : simd_backends()) {
    // Ragged widths exercise the vector/tail split; ±20 logits exercise the
    // polynomial exp's range reduction.
    for (const std::size_t C : {1u, 5u, 8u, 9u, 16u, 33u, 100u}) {
      Matrix logits = random_matrix(9, C, rng);
      for (std::size_t i = 0; i < logits.size(); ++i) {
        logits.data()[i] *= 10.0f;
      }
      const Matrix want = reference_softmax(logits);
      Matrix got = logits;
      ASSERT_TRUE(select_kernel_backend(name));
      softmax_rows(got);
      expect_close(got, want, 1e-5,
                   name + " softmax C=" + std::to_string(C));
      for (std::size_t r = 0; r < got.rows(); ++r) {
        double sum = 0.0;
        for (std::size_t j = 0; j < C; ++j) sum += got(r, j);
        EXPECT_NEAR(sum, 1.0, 1e-4) << name << " row " << r;
      }
    }
  }
}

TEST(KernelBackends, SoftmaxRowBitsIndependentOfBatch) {
  // The serve engine's bitwise multi-link guarantee rests on this: a row's
  // softmax (and matmul) bits depend on that row and the shared operands
  // alone, never on how many other rows share the batch.
  BackendGuard restore;
  Rng rng(13);
  for (const std::string& name : available_kernel_backends()) {
    ASSERT_TRUE(select_kernel_backend(name));
    const Matrix big = random_matrix(8, 37, rng);
    Matrix big_sm = big;
    softmax_rows(big_sm);
    for (std::size_t r = 0; r < big.rows(); ++r) {
      Matrix one(1, big.cols());
      std::copy(big.data() + r * big.cols(),
                big.data() + (r + 1) * big.cols(), one.data());
      softmax_rows(one);
      for (std::size_t j = 0; j < big.cols(); ++j) {
        ASSERT_EQ(one(0, j), big_sm(r, j))
            << name << " row " << r << " col " << j;
      }
    }

    const Matrix b = random_matrix(37, 19, rng);
    Matrix big_mm, one_mm;
    matmul_nn(big, b, big_mm);
    for (std::size_t r = 0; r < big.rows(); ++r) {
      Matrix one(1, big.cols());
      std::copy(big.data() + r * big.cols(),
                big.data() + (r + 1) * big.cols(), one.data());
      matmul_nn(one, b, one_mm);
      for (std::size_t j = 0; j < b.cols(); ++j) {
        ASSERT_EQ(one_mm(0, j), big_mm(r, j))
            << name << " matmul row " << r << " col " << j;
      }
    }
  }
}

TEST(KernelBackends, BitIdenticalAcrossThreadCountsPerBackend) {
  BackendGuard restore;
  Rng rng(123);
  ThreadPool pool(4);
  for (const std::string& name : available_kernel_backends()) {
    ASSERT_TRUE(select_kernel_backend(name));
    const Matrix a = random_matrix(33, 50, rng, 0.3);
    const Matrix b = random_matrix(50, 23, rng);
    Matrix serial, threaded;
    matmul_nn(a, b, serial, nullptr);
    matmul_nn(a, b, threaded, &pool);
    expect_bitwise(serial, threaded, name + " matmul_nn thread invariance");

    const Matrix ga = random_matrix(17, 4 * 31, rng);
    const Matrix gc = random_matrix(17, 31, rng);
    Matrix i1, f1, o1, g1, c1, t1, h1;
    Matrix i2, f2, o2, g2, c2, t2, h2;
    lstm_gates_forward(ga, gc, i1, f1, o1, g1, c1, t1, h1, nullptr);
    lstm_gates_forward(ga, gc, i2, f2, o2, g2, c2, t2, h2, &pool);
    expect_bitwise(h1, h2, name + " gates thread invariance");
    expect_bitwise(c1, c2, name + " cell thread invariance");

    const Matrix logits = random_matrix(29, 41, rng);
    Matrix sm_serial = logits;
    Matrix sm_threaded = logits;
    softmax_rows(sm_serial, nullptr);
    softmax_rows(sm_threaded, &pool);
    expect_bitwise(sm_serial, sm_threaded,
                   name + " softmax thread invariance");
  }
}

TEST(KernelBackends, Avx2AndAvx512AgreeBitwiseWhereTheBodyIsShared) {
  // Both backends instantiate one kernel body (kernels_simd.hpp) at 8 and
  // 16 lanes. A matmul element is the same ascending-k chain of single-
  // rounding fmas whether a vector lane or the fmaf tail computes it, and
  // the gate kernels run every column in vector lanes when H % 16 == 0, so
  // there the two widths must agree bit for bit. Left out: gates at other
  // H (the scalar tails cover different columns) and softmax (the lane-sum
  // trees differ by width).
  const auto names = available_kernel_backends();
  const auto usable = [&](const char* n) {
    return std::find(names.begin(), names.end(), n) != names.end();
  };
  if (!usable("avx2") || !usable("avx512")) {
    GTEST_SKIP() << "needs both the avx2 and avx512 backends usable";
  }
  const KernelBackend& v8 = *avx2_kernel_backend();
  const KernelBackend& v16 = *avx512_kernel_backend();
  Rng rng(99);

  const std::size_t ms[] = {1, 3, 4, 5, 9, 17};
  const std::size_t ks[] = {1, 7, 16, 33};
  const std::size_t ns[] = {1, 5, 8, 9, 16, 17, 31, 32, 33, 65};
  for (const std::size_t M : ms) {
    for (const std::size_t K : ks) {
      for (const std::size_t N : ns) {
        std::string what = " M=" + std::to_string(M);
        what += " K=" + std::to_string(K) + " N=" + std::to_string(N);
        const Matrix a = random_matrix(M, K, rng, 0.3);
        const Matrix at = random_matrix(K, M, rng, 0.3);
        const Matrix b = random_matrix(K, N, rng);
        const Matrix seed = random_matrix(M, N, rng);
        Matrix o8 = seed;
        Matrix o16 = seed;
        v8.matmul_nn_rows(a.data(), b.data(), o8.data(), K, N, 0, M);
        v16.matmul_nn_rows(a.data(), b.data(), o16.data(), K, N, 0, M);
        expect_bitwise(o8, o16, "matmul_nn_rows" + what);
        o8 = seed;
        o16 = seed;
        v8.matmul_tn_rows(at.data(), b.data(), o8.data(), K, M, N, 0, M);
        v16.matmul_tn_rows(at.data(), b.data(), o16.data(), K, M, N, 0, M);
        expect_bitwise(o8, o16, "matmul_tn_rows" + what);
      }
    }
  }

  for (const std::size_t H : {16u, 32u, 48u, 64u}) {
    for (const std::size_t B : {1u, 3u, 8u}) {
      const std::string what =
          " H=" + std::to_string(H) + " B=" + std::to_string(B);
      // ±10 pre-activations reach the saturated ends of σ and tanh.
      Matrix a = random_matrix(B, 4 * H, rng);
      for (std::size_t i = 0; i < a.size(); ++i) a.data()[i] *= 5.0f;
      const Matrix c_prev = random_matrix(B, H, rng);
      Matrix fwd8[7], fwd16[7];
      for (Matrix* fwd : {fwd8, fwd16}) {
        for (std::size_t k = 0; k < 7; ++k) fwd[k] = Matrix(B, H);
      }
      const auto forward = [&](const KernelBackend& be, Matrix* o) {
        be.gates_forward_rows(a.data(), c_prev.data(), o[0].data(),
                              o[1].data(), o[2].data(), o[3].data(),
                              o[4].data(), o[5].data(), o[6].data(), H, 0, B);
      };
      forward(v8, fwd8);
      forward(v16, fwd16);
      for (std::size_t k = 0; k < 7; ++k) {
        expect_bitwise(fwd8[k], fwd16[k],
                       "gates_forward_rows #" + std::to_string(k) + what);
      }

      // Backward over one shared forward; the carry covers a strict subset
      // of rows so both dc_in paths run.
      const Matrix dh = random_matrix(B, H, rng);
      const Matrix dc_in = random_matrix(B, H, rng);
      Matrix da8(B, 4 * H), dc8(B, H), da16(B, 4 * H), dc16(B, H);
      const auto backward = [&](const KernelBackend& be, Matrix& da,
                                Matrix& dc) {
        const Matrix* f = fwd8;
        be.gates_backward_rows(f[0].data(), f[1].data(), f[2].data(),
                               f[3].data(), c_prev.data(), f[5].data(),
                               dh.data(), dc_in.data(), da.data(), dc.data(), H,
                               B - 1, 0, B);
      };
      backward(v8, da8, dc8);
      backward(v16, da16, dc16);
      expect_bitwise(da8, da16, "gates_backward_rows da" + what);
      expect_bitwise(dc8, dc16, "gates_backward_rows dc_prev" + what);
    }
  }
}

TEST(KernelBackends, EnvVarOverridesDispatch) {
  BackendGuard restore;
  ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", "scalar", 1));
  select_kernel_backend_from_env();
  EXPECT_STREQ(kernel_backend().name, "scalar");

  for (const std::string& name : simd_backends()) {
    ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", name.c_str(), 1));
    select_kernel_backend_from_env();
    EXPECT_EQ(name, kernel_backend().name);
  }

  // Unknown values fall back to the best usable backend (never crash).
  ASSERT_EQ(0, setenv("MLAD_KERNEL_BACKEND", "definitely-not-a-backend", 1));
  select_kernel_backend_from_env();
  const auto names = available_kernel_backends();
  EXPECT_EQ(names.back(), kernel_backend().name);

  ASSERT_EQ(0, unsetenv("MLAD_KERNEL_BACKEND"));
  select_kernel_backend_from_env();
  EXPECT_EQ(names.back(), kernel_backend().name);
}

TEST(KernelBackends, Avx512DispatchMatchesCpuid) {
  // The avx512 backend must be listed (and selectable) exactly when the
  // host has F+BW+VL with the OS saving ZMM/opmask state — the parity and
  // invariance tests above then cover it via available_kernel_backends().
  BackendGuard restore;
  const CpuFeatures& f = cpu_features();
  const bool usable = f.avx512f && f.avx512bw && f.avx512vl;
  const auto names = available_kernel_backends();
  const bool listed =
      std::find(names.begin(), names.end(), "avx512") != names.end();
  EXPECT_EQ(usable, listed);
  if (!usable) {
    EXPECT_FALSE(select_kernel_backend("avx512"));
    GTEST_SKIP() << "AVX-512 F/BW/VL not usable on this host";
  }
  EXPECT_TRUE(select_kernel_backend("avx512"));
  EXPECT_STREQ(kernel_backend().name, "avx512");
}

TEST(KernelBackends, SelectUnknownBackendFails) {
  BackendGuard restore;
  ASSERT_TRUE(select_kernel_backend("scalar"));
  EXPECT_FALSE(select_kernel_backend("bogus"));
  EXPECT_STREQ(kernel_backend().name, "scalar");  // unchanged on failure
}

TEST(KernelBackends, FeatureSummaryIsNonEmpty) {
  EXPECT_FALSE(cpu_feature_summary().empty());
}

}  // namespace
}  // namespace mlad::nn
