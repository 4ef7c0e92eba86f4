#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hpp"
#include "nn/lstm_cell.hpp"
#include "nn/lstm_layer.hpp"
#include "nn/stacked_lstm.hpp"

namespace mlad::nn {
namespace {

std::vector<std::vector<float>> random_sequence(Rng& rng, std::size_t steps,
                                                std::size_t dim) {
  std::vector<std::vector<float>> xs(steps, std::vector<float>(dim));
  for (auto& x : xs) {
    for (auto& v : x) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  }
  return xs;
}

/// Random non-empty code rows (nn/codes.hpp): each column active with
/// probability 1/2.
std::vector<CodeRow> random_codes(Rng& rng, std::size_t steps,
                                  std::size_t dim) {
  std::vector<CodeRow> xs(steps);
  for (CodeRow& x : xs) {
    while (x.empty()) {
      for (std::uint32_t c = 0; c < dim; ++c) {
        if (rng.bernoulli(0.5)) x.push_back(c);
      }
    }
  }
  return xs;
}

std::vector<float> one_hot(const CodeRow& codes, std::size_t dim) {
  std::vector<float> x(dim, 0.0f);
  for (const std::uint32_t c : codes) x[c] = 1.0f;
  return x;
}

void expect_bitwise(std::span<const float> a, std::span<const float> b,
                    const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(float)))
      << what;
}

TEST(LstmCell, RejectsZeroDims) {
  EXPECT_THROW(LstmCell(0, 4), std::invalid_argument);
  EXPECT_THROW(LstmCell(4, 0), std::invalid_argument);
}

TEST(LstmCell, ForgetBiasInitializedToOne) {
  Rng rng(3);
  LstmCell cell(2, 3);
  cell.init_params(rng);
  for (std::size_t j = 0; j < 3; ++j) {
    EXPECT_FLOAT_EQ(cell.b()(0, 3 + j), 1.0f);  // [i,f,o,g] blocks of 3
  }
}

TEST(LstmCell, OutputsBounded) {
  Rng rng(5);
  LstmCell cell(3, 4);
  cell.init_params(rng);
  LstmStepCache cache;
  std::vector<float> h(4, 0.0f);
  std::vector<float> c(4, 0.0f);
  for (int t = 0; t < 50; ++t) {
    std::vector<float> x = {static_cast<float>(rng.uniform(-3, 3)),
                            static_cast<float>(rng.uniform(-3, 3)),
                            static_cast<float>(rng.uniform(-3, 3))};
    cell.forward(x, h, c, cache);
    h = cache.h;
    c = cache.c;
    for (float v : h) {
      EXPECT_LE(std::abs(v), 1.0f);  // |h| = |o ⊙ tanh(c)| ≤ 1
    }
    for (std::size_t j = 0; j < 4; ++j) {
      // Gates in (0,1).
      EXPECT_GT(cache.i[j], 0.0f);
      EXPECT_LT(cache.i[j], 1.0f);
      EXPECT_GT(cache.f[j], 0.0f);
      EXPECT_LT(cache.f[j], 1.0f);
    }
  }
}

TEST(LstmCell, DimMismatchThrows) {
  LstmCell cell(3, 4);
  LstmStepCache cache;
  std::vector<float> x(2), h(4), c(4);
  EXPECT_THROW(cell.forward(x, h, c, cache), std::invalid_argument);
}

TEST(LstmCell, CellStateUpdateEquation) {
  // With all-zero parameters: i=f=o=0.5, g=0 → c = 0.5*c_prev, h = 0.5*tanh(c).
  LstmCell cell(1, 1);
  LstmStepCache cache;
  std::vector<float> x = {1.0f};
  std::vector<float> h0 = {0.0f};
  std::vector<float> c0 = {0.8f};
  cell.forward(x, h0, c0, cache);
  EXPECT_NEAR(cache.c[0], 0.4f, 1e-6f);
  EXPECT_NEAR(cache.h[0], 0.5f * std::tanh(0.4f), 1e-6f);
}

TEST(LstmLayer, StreamingMatchesSequenceForward) {
  Rng rng(7);
  LstmLayer layer(3, 5);
  layer.init_params(rng);
  const auto xs = random_sequence(rng, 12, 3);

  std::vector<LstmStepCache> caches;
  std::vector<std::vector<float>> seq_out;
  layer.forward_sequence(xs, caches, seq_out);

  layer.reset_state();
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const auto h = layer.step(xs[t]);
    for (std::size_t j = 0; j < h.size(); ++j) {
      EXPECT_NEAR(h[j], seq_out[t][j], 1e-6f);
    }
  }
}

TEST(LstmLayer, ResetStateRestartsSequence) {
  Rng rng(9);
  LstmLayer layer(2, 4);
  layer.init_params(rng);
  const std::vector<float> x = {0.4f, -0.6f};
  layer.step(x);
  const auto s1 = layer.step(x);
  const std::vector<float> h1(s1.begin(), s1.end());
  layer.reset_state();
  layer.step(x);
  const auto s2 = layer.step(x);
  const std::vector<float> h2(s2.begin(), s2.end());
  EXPECT_EQ(h1, h2);  // same two-step history ⇒ same state
}

TEST(LstmLayer, SetStateRoundTrip) {
  Rng rng(13);
  LstmLayer layer(2, 3);
  layer.init_params(rng);
  layer.step(std::vector<float>{1.0f, 2.0f});
  const std::vector<float> h(layer.hidden().begin(), layer.hidden().end());
  const std::vector<float> c(layer.cell_state().begin(), layer.cell_state().end());
  layer.reset_state();
  layer.set_state(h, c);
  EXPECT_EQ(std::vector<float>(layer.hidden().begin(), layer.hidden().end()), h);
}

TEST(StackedLstm, RequiresLayers) {
  const std::vector<std::size_t> none;
  EXPECT_THROW(StackedLstm(3, none), std::invalid_argument);
}

TEST(StackedLstm, ShapesChainAcrossLayers) {
  const std::vector<std::size_t> dims = {7, 5, 3};
  StackedLstm stack(4, dims);
  EXPECT_EQ(stack.num_layers(), 3u);
  EXPECT_EQ(stack.layer(0).input_dim(), 4u);
  EXPECT_EQ(stack.layer(1).input_dim(), 7u);
  EXPECT_EQ(stack.layer(2).input_dim(), 5u);
  EXPECT_EQ(stack.output_dim(), 3u);
}

TEST(LstmCell, CodeStepIsTheDenseOneHotStepBitwise) {
  Rng rng(25);
  const std::size_t I = 11;
  const std::size_t H = 5;
  LstmCell dense(I, H);
  dense.init_params(rng);
  LstmCell coded = dense;
  const std::vector<float> h0 = random_sequence(rng, 1, H)[0];
  const std::vector<float> c0 = random_sequence(rng, 1, H)[0];
  const std::vector<float> dh = random_sequence(rng, 1, H)[0];
  const std::vector<float> dc = random_sequence(rng, 1, H)[0];
  for (const CodeRow& codes : random_codes(rng, 8, I)) {
    LstmStepCache dc_cache;
    LstmStepCache cc_cache;
    dense.forward(one_hot(codes, I), h0, c0, dc_cache);
    coded.forward(codes, h0, c0, cc_cache);
    expect_bitwise(dc_cache.h, cc_cache.h, "h");
    expect_bitwise(dc_cache.c, cc_cache.c, "c");

    std::vector<float> dx(I), dh_prev_d(H), dc_prev_d(H), dh_prev_c(H),
        dc_prev_c(H);
    dense.backward(dc_cache, dh, dc, dx, dh_prev_d, dc_prev_d);
    coded.backward(cc_cache, dh, dc, dh_prev_c, dc_prev_c);
    expect_bitwise(dh_prev_d, dh_prev_c, "dh_prev");
    expect_bitwise(dc_prev_d, dc_prev_c, "dc_prev");
    // Gradients accumulate across the loop: every step's sum must agree.
    expect_bitwise({dense.grad_w().data(), dense.grad_w().size()},
                   {coded.grad_w().data(), coded.grad_w().size()}, "grad_w");
    expect_bitwise({dense.grad_u().data(), dense.grad_u().size()},
                   {coded.grad_u().data(), coded.grad_u().size()}, "grad_u");
  }
}

TEST(StackedLstm, StreamingMatchesSequence) {
  Rng rng(15);
  const std::vector<std::size_t> dims = {6, 4};
  StackedLstm stack(3, dims);
  stack.init_params(rng);
  const auto xs = random_codes(rng, 10, 3);

  StackedLstmCache cache;
  const auto seq_out = stack.forward_sequence(xs, cache);

  StackedLstmState state = stack.make_state();
  LstmStepCache scratch;
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const auto h = stack.step(xs[t], state, scratch);
    for (std::size_t j = 0; j < h.size(); ++j) {
      EXPECT_NEAR(h[j], seq_out[t][j], 1e-6f);
    }
  }
}

TEST(StackedLstm, ParamCountFormula) {
  const std::vector<std::size_t> dims = {8};
  StackedLstm stack(5, dims);
  // 4H(I + H + 1) = 32 * (5 + 8 + 1)
  EXPECT_EQ(stack.param_count(), 32u * 14u);
}

TEST(StackedLstm, ZeroGradsClearsAccumulation) {
  Rng rng(21);
  const std::vector<std::size_t> dims = {4};
  StackedLstm stack(3, dims);
  stack.init_params(rng);
  const auto xs = random_codes(rng, 6, 3);
  StackedLstmCache cache;
  const auto out = stack.forward_sequence(xs, cache);
  std::vector<std::vector<float>> dh(out.size(), std::vector<float>(4, 1.0f));
  stack.backward_sequence(cache, dh);
  EXPECT_GT(stack.layer(0).cell().grad_w().sum_squares(), 0.0);
  stack.zero_grads();
  EXPECT_DOUBLE_EQ(stack.layer(0).cell().grad_w().sum_squares(), 0.0);
}

}  // namespace
}  // namespace mlad::nn
