// Parameterized gradient checks across model shapes: the BPTT math must be
// correct for every (input, classes, depth, width) combination, not only
// the one exercised by the focused unit test.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "nn/sequence_model.hpp"

namespace mlad::nn {
namespace {

struct ShapeParam {
  std::size_t input_dim;
  std::size_t num_classes;
  std::vector<std::size_t> hidden;
  std::size_t steps;
};

class GradSweep : public ::testing::TestWithParam<ShapeParam> {};

TEST_P(GradSweep, AnalyticMatchesNumeric) {
  const ShapeParam& p = GetParam();
  SequenceModelConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.num_classes = p.num_classes;
  cfg.hidden_dims = p.hidden;
  SequenceModel model(cfg);
  Rng rng(p.input_dim * 131 + p.num_classes);
  model.init_params(rng);

  std::vector<CodeRow> xs;
  std::vector<std::size_t> targets;
  for (std::size_t t = 0; t < p.steps; ++t) {
    CodeRow x;
    for (std::uint32_t c = 0; c < p.input_dim; ++c) {
      if (rng.bernoulli(0.5)) x.push_back(c);
    }
    xs.push_back(std::move(x));
    targets.push_back(rng.index(p.num_classes));
  }

  model.zero_grads();
  model.train_fragment(xs, targets);

  const float eps = 2e-2f;
  Rng pick(7);
  for (ParamSlot slot : model.param_slots()) {
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t i = pick.index(slot.param->size());
      const float orig = slot.param->data()[i];
      slot.param->data()[i] = orig + eps;
      const double lp = model.evaluate_fragment(xs, targets);
      slot.param->data()[i] = orig - eps;
      const double lm = model.evaluate_fragment(xs, targets);
      slot.param->data()[i] = orig;
      const double numeric = (lp - lm) / (2 * eps);
      const double analytic = slot.grad->data()[i];
      if (std::abs(analytic - numeric) < 1e-4) continue;  // fp32 noise floor
      const double denom =
          std::max({std::abs(analytic), std::abs(numeric), 1e-4});
      EXPECT_LT(std::abs(analytic - numeric) / denom, 3e-2)
          << "analytic=" << analytic << " numeric=" << numeric;
    }
  }
}

TEST_P(GradSweep, LossIsFiniteAndPositive) {
  const ShapeParam& p = GetParam();
  SequenceModelConfig cfg;
  cfg.input_dim = p.input_dim;
  cfg.num_classes = p.num_classes;
  cfg.hidden_dims = p.hidden;
  SequenceModel model(cfg);
  Rng rng(99);
  model.init_params(rng);
  CodeRow all(p.input_dim);
  for (std::uint32_t c = 0; c < p.input_dim; ++c) all[c] = c;
  std::vector<CodeRow> xs(p.steps, all);
  std::vector<std::size_t> targets(p.steps, 0);
  const double loss = model.evaluate_fragment(xs, targets);
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_GT(loss, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GradSweep,
    ::testing::Values(ShapeParam{3, 2, {4}, 3},
                      ShapeParam{5, 7, {6}, 5},
                      ShapeParam{4, 3, {5, 4}, 4},
                      ShapeParam{8, 5, {6, 6, 4}, 6},
                      ShapeParam{2, 9, {3}, 8}),
    [](const auto& param_info) {
      std::string name = "in" + std::to_string(param_info.param.input_dim) +
                         "_c" + std::to_string(param_info.param.num_classes) +
                         "_l";
      for (std::size_t h : param_info.param.hidden)
        name += std::to_string(h) + "_";
      name += "t" + std::to_string(param_info.param.steps);
      return name;
    });

}  // namespace
}  // namespace mlad::nn
