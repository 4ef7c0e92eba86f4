#include "nn/softmax.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.hpp"

namespace mlad::nn {
namespace {

TEST(SoftmaxLayer, ForwardProducesDistribution) {
  Rng rng(3);
  SoftmaxLayer layer(4, 6);
  layer.init_params(rng);
  const std::vector<float> h = {0.2f, -0.4f, 0.8f, 0.0f};
  std::vector<float> probs;
  layer.forward(h, probs);
  ASSERT_EQ(probs.size(), 6u);
  float sum = 0.0f;
  for (float p : probs) {
    EXPECT_GT(p, 0.0f);
    sum += p;
  }
  EXPECT_NEAR(sum, 1.0f, 1e-5f);
}

TEST(SoftmaxLayer, BackwardReturnsCrossEntropy) {
  Rng rng(5);
  SoftmaxLayer layer(3, 4);
  layer.init_params(rng);
  const std::vector<float> h = {0.1f, 0.2f, 0.3f};
  std::vector<float> probs;
  layer.forward(h, probs);
  std::vector<float> dh(3);
  const double loss = layer.backward(h, probs, 2, dh);
  EXPECT_NEAR(loss, -std::log(probs[2]), 1e-6);
}

TEST(SoftmaxLayer, DimValidation) {
  SoftmaxLayer layer(3, 4);
  std::vector<float> probs;
  EXPECT_THROW(layer.forward(std::vector<float>{1.0f}, probs),
               std::invalid_argument);
  EXPECT_THROW(SoftmaxLayer(0, 4), std::invalid_argument);
}

TEST(TopK, IndicesDescending) {
  const std::vector<float> probs = {0.1f, 0.5f, 0.2f, 0.15f, 0.05f};
  const auto top = top_k_indices(probs, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0], 1u);
  EXPECT_EQ(top[1], 2u);
  EXPECT_EQ(top[2], 3u);
}

TEST(TopK, KLargerThanSizeClamped) {
  const std::vector<float> probs = {0.6f, 0.4f};
  EXPECT_EQ(top_k_indices(probs, 10).size(), 2u);
}

TEST(TopK, DeterministicTieBreakByIndex) {
  const std::vector<float> probs = {0.25f, 0.25f, 0.25f, 0.25f};
  const auto top = top_k_indices(probs, 2);
  EXPECT_EQ(top[0], 0u);
  EXPECT_EQ(top[1], 1u);
}

TEST(TopK, InTopKBasic) {
  const std::vector<float> probs = {0.1f, 0.5f, 0.2f, 0.15f, 0.05f};
  EXPECT_TRUE(in_top_k(probs, 1, 1));
  EXPECT_FALSE(in_top_k(probs, 0, 1));
  EXPECT_TRUE(in_top_k(probs, 0, 4));
  EXPECT_FALSE(in_top_k(probs, 4, 4));
}

TEST(TopK, InTopKConsistentWithIndices) {
  Rng rng(7);
  std::vector<float> probs(20);
  for (auto& p : probs) p = static_cast<float>(rng.uniform());
  for (std::size_t k = 1; k <= probs.size(); ++k) {
    const auto top = top_k_indices(probs, k);
    for (std::size_t t = 0; t < probs.size(); ++t) {
      const bool expect =
          std::find(top.begin(), top.end(), t) != top.end();
      EXPECT_EQ(in_top_k(probs, t, k), expect) << "k=" << k << " t=" << t;
    }
  }
}

TEST(TopK, EdgeCases) {
  const std::vector<float> probs = {0.7f, 0.3f};
  EXPECT_FALSE(in_top_k(probs, 0, 0));   // k == 0
  EXPECT_FALSE(in_top_k(probs, 5, 1));   // target out of range
  EXPECT_TRUE(in_top_k(probs, 1, 2));    // k == size
}

TEST(TopK, RankBelowKIffInTopK) {
  // Property: for random rows with values forced to tie the target's from
  // lower AND higher indices, rank < k ⇔ in_top_k at every k in 0..C+1,
  // and for targets at or past C (never in S(k)).
  Rng rng(404);
  for (int trial = 0; trial < 400; ++trial) {
    const std::size_t C = 1 + rng.index(12);
    std::vector<float> probs(C);
    // A few distinct levels so ties are common even without forcing.
    for (float& p : probs) p = static_cast<float>(rng.index(4)) * 0.25f;
    const std::size_t target = rng.index(C + 2);  // C, C+1: absent
    if (target < C) {
      for (std::size_t i = 0; i < C; ++i) {
        if (i != target && rng.bernoulli(0.3)) probs[i] = probs[target];
      }
      if (target > 0) probs[rng.index(target)] = probs[target];
      if (target + 1 < C) {
        probs[target + 1 + rng.index(C - target - 1)] = probs[target];
      }
    }
    const std::size_t rank = top_k_rank(probs, target);
    if (target >= C) {
      EXPECT_EQ(rank, kNoRank);
    }
    for (std::size_t k = 0; k <= C + 1; ++k) {
      EXPECT_EQ(rank < k, in_top_k(probs, target, k))
          << "C=" << C << " target=" << target << " k=" << k
          << " rank=" << rank;
    }
  }
}

TEST(TopK, ErrorCurveCountsAbsentTargetsAsMisses) {
  TopKErrorCurve curve(3);
  const std::vector<float> probs = {0.5f, 0.3f, 0.2f};
  curve.add(probs, 0);             // rank 0
  curve.add(probs, 2);             // rank 2
  curve.add(probs, std::nullopt);  // not in the database
  curve.add(probs, 7);             // past C
  const std::vector<double> err = curve.errors();
  ASSERT_EQ(err.size(), 3u);
  EXPECT_DOUBLE_EQ(err[0], 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(err[1], 3.0 / 4.0);
  EXPECT_DOUBLE_EQ(err[2], 2.0 / 4.0);
  EXPECT_DOUBLE_EQ(curve.error(0), 1.0);
  EXPECT_EQ(smallest_k_below(err, 0.6), 3u);
  EXPECT_EQ(smallest_k_below(err, 0.5), 3u);  // none below: the bound
  EXPECT_EQ(smallest_k_below(err, 0.8), 1u);
  EXPECT_DOUBLE_EQ(TopKErrorCurve(2).error(2), 0.0);  // no steps
}

}  // namespace
}  // namespace mlad::nn
