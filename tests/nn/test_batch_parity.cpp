// Parity between the batched engine (kernels.hpp + *_batch entry points)
// and the sample-at-a-time reference path: forward outputs and accumulated
// gradients must agree within 1e-5 on randomized shapes, and a window batch
// must be bit-identical across pools (DESIGN.md §5). Training-level thread
// invariance is pinned on the detector (tests/detect/test_sharded_training).
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/kernels.hpp"
#include "nn/lstm_cell.hpp"
#include "nn/sequence_model.hpp"
#include "nn/trainer.hpp"

namespace mlad::nn {
namespace {

/// A random non-empty code row (nn/codes.hpp) over n columns.
CodeRow random_codes(Rng& rng, std::size_t n) {
  CodeRow codes;
  while (codes.empty()) {
    for (std::uint32_t c = 0; c < n; ++c) {
      if (rng.bernoulli(0.4)) codes.push_back(c);
    }
  }
  return codes;
}

Matrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return m;
}

void expect_matrix_near(const Matrix& a, const Matrix& b, double tol,
                        const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_NEAR(a.data()[i], b.data()[i], tol) << what << " flat index " << i;
  }
}

// ---- kernel-level checks --------------------------------------------------

TEST(BatchKernels, MatmulNnMatchesReference) {
  Rng rng(11);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {1, 7, 5}, {4, 16, 9}, {13, 3, 21}};
  for (const auto& [m, k, n] : shapes) {
    const Matrix a = random_matrix(rng, m, k);
    const Matrix b = random_matrix(rng, k, n);
    Matrix want;
    matmul(a, b, want);  // reference from matrix.hpp
    Matrix got;
    matmul_nn(a, b, got);
    expect_matrix_near(want, got, 1e-6, "matmul_nn");

    ThreadPool pool(4);
    Matrix parallel_got;
    matmul_nn(a, b, parallel_got, &pool);
    // Parallel partitioning must be BIT-identical, not just close.
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], parallel_got.data()[i]);
    }
  }
}

TEST(BatchKernels, MatmulTnAccMatchesReference) {
  Rng rng(12);
  const Matrix a = random_matrix(rng, 9, 6);   // K×M
  const Matrix b = random_matrix(rng, 9, 11);  // K×N
  Matrix want;
  matmul_transposed_a(a, b, want);
  Matrix got(6, 11, 0.0f);
  matmul_tn_acc(a, b, got);
  expect_matrix_near(want, got, 1e-6, "matmul_tn_acc");

  ThreadPool pool(3);
  Matrix parallel_got(6, 11, 0.0f);
  matmul_tn_acc(a, b, parallel_got, &pool);
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got.data()[i], parallel_got.data()[i]);
  }
}

TEST(BatchKernels, RowHelpers) {
  Rng rng(13);
  const Matrix src = random_matrix(rng, 5, 4);
  Matrix top;
  copy_top_rows(src, 3, top);
  ASSERT_EQ(top.rows(), 3u);
  EXPECT_EQ(top(2, 3), src(2, 3));

  Matrix dst = random_matrix(rng, 5, 4);
  const Matrix before = dst;
  add_top_rows(dst, top);
  EXPECT_FLOAT_EQ(dst(0, 0), before(0, 0) + top(0, 0));
  EXPECT_FLOAT_EQ(dst(4, 0), before(4, 0));  // untouched below src.rows()

  Matrix bias(1, 4);
  for (std::size_t j = 0; j < 4; ++j) bias(0, j) = float(j);
  Matrix bc;
  broadcast_rows(bias, 3, bc);
  EXPECT_FLOAT_EQ(bc(2, 3), 3.0f);

  Matrix sums(1, 4, 0.0f);
  col_sum_acc(src, sums);
  float want = 0.0f;
  for (std::size_t r = 0; r < 5; ++r) want += src(r, 1);
  EXPECT_NEAR(sums(0, 1), want, 1e-6);
}

// ---- cell-level parity ------------------------------------------------------

TEST(BatchParity, CellForwardMatchesPerSample) {
  Rng rng(21);
  const std::vector<std::array<std::size_t, 3>> shapes = {
      {5, 8, 1}, {9, 4, 6}, {17, 12, 13}};
  for (const auto& [input_dim, hidden, batch] : shapes) {
    LstmCell cell(input_dim, hidden);
    cell.init_params(rng);

    const Matrix x = random_matrix(rng, batch, input_dim);
    LstmBatchCache cache;
    cache.h_prev = random_matrix(rng, batch, hidden);
    cache.c_prev = random_matrix(rng, batch, hidden);

    Matrix wT, uT, a;
    transpose(cell.w(), wT);
    transpose(cell.u(), uT);
    cell.forward_batch(x, wT, uT, cache, a);

    LstmStepCache ref;
    for (std::size_t r = 0; r < batch; ++r) {
      cell.forward(x.row(r), cache.h_prev.row(r), cache.c_prev.row(r), ref);
      for (std::size_t j = 0; j < hidden; ++j) {
        ASSERT_NEAR(cache.h(r, j), ref.h[j], 1e-5);
        ASSERT_NEAR(cache.c(r, j), ref.c[j], 1e-5);
      }
    }
  }
}

// ---- model-level parity -----------------------------------------------------

SequenceModelConfig small_config(std::size_t input_dim, std::size_t classes) {
  SequenceModelConfig cfg;
  cfg.input_dim = input_dim;
  cfg.num_classes = classes;
  cfg.hidden_dims = {10, 6};
  return cfg;
}

/// Windows of different lengths over random code-row inputs.
std::vector<Fragment> random_fragments(Rng& rng, std::size_t count,
                                       std::size_t input_dim,
                                       std::size_t classes) {
  std::vector<Fragment> frags(count);
  for (std::size_t f = 0; f < count; ++f) {
    const std::size_t steps = 1 + rng.index(9);
    for (std::size_t t = 0; t < steps; ++t) {
      frags[f].inputs.push_back(random_codes(rng, input_dim));
      frags[f].targets.push_back(rng.index(classes));
    }
  }
  return frags;
}

TEST(BatchParity, WindowBatchLossAndGradsMatchPerSample) {
  Rng rng(31);
  const std::size_t input_dim = 7;
  const std::size_t classes = 5;
  SequenceModel model(small_config(input_dim, classes));
  model.init_params(rng);

  const auto frags = random_fragments(rng, 6, input_dim, classes);

  // Reference: per-sample gradients summed over the same windows.
  model.zero_grads();
  double ref_loss = 0.0;
  for (const Fragment& f : frags) {
    ref_loss += model.train_fragment(f.inputs, f.targets);
  }
  std::vector<Matrix> ref_grads;
  for (const ParamSlot& s : model.param_slots()) ref_grads.push_back(*s.grad);

  // Batched: one micro-batch over all windows at once.
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back({f.inputs, f.targets});
  ModelGrads grads = model.make_grads();
  BatchWorkspace ws;
  const double batch_loss = model.train_window_batch(windows, grads, ws);

  EXPECT_NEAR(batch_loss, ref_loss, 1e-5 * std::max(1.0, std::abs(ref_loss)));
  const auto slots = model.param_slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    expect_matrix_near(ref_grads[k], grads.g[k], 1e-4, "accumulated grads");
  }
}

TEST(BatchParity, WindowBatchIsBitIdenticalAcrossPools) {
  Rng rng(32);
  const std::size_t input_dim = 6;
  const std::size_t classes = 4;
  SequenceModel model(small_config(input_dim, classes));
  model.init_params(rng);
  const auto frags = random_fragments(rng, 5, input_dim, classes);
  std::vector<WindowRef> windows;
  for (const Fragment& f : frags) windows.push_back({f.inputs, f.targets});

  ModelGrads g1 = model.make_grads();
  BatchWorkspace ws1;
  const double l1 = model.train_window_batch(windows, g1, ws1, nullptr);

  ThreadPool pool(4);
  ModelGrads g2 = model.make_grads();
  BatchWorkspace ws2;
  const double l2 = model.train_window_batch(windows, g2, ws2, &pool);

  EXPECT_EQ(l1, l2);  // bitwise
  for (std::size_t k = 0; k < g1.g.size(); ++k) {
    for (std::size_t i = 0; i < g1.g[k].size(); ++i) {
      ASSERT_EQ(g1.g[k].data()[i], g2.g[k].data()[i]);
    }
  }
}

}  // namespace
}  // namespace mlad::nn
