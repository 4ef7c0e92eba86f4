#include "nn/sequence_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hpp"
#include "nn/softmax.hpp"

namespace mlad::nn {
namespace {

/// Build a deterministic cyclic task: one-hot class t (as the code row
/// {t % C}) predicts class (t+1)%C.
void cyclic_fragment(std::size_t classes, std::size_t steps,
                     std::vector<CodeRow>& xs,
                     std::vector<std::size_t>& targets) {
  xs.clear();
  targets.clear();
  for (std::size_t t = 0; t < steps; ++t) {
    xs.push_back({static_cast<std::uint32_t>(t % classes)});
    targets.push_back((t + 1) % classes);
  }
}

TEST(SequenceModel, RejectsZeroDimensions) {
  SequenceModelConfig cfg;
  cfg.input_dim = 0;
  cfg.num_classes = 3;
  EXPECT_THROW(SequenceModel{cfg}, std::invalid_argument);
}

TEST(SequenceModel, ParamSlotsCoverEveryTensor) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 3;
  cfg.hidden_dims = {5, 6};
  SequenceModel model(cfg);
  // 2 LSTM layers × 3 tensors + softmax W,b
  EXPECT_EQ(model.param_slots().size(), 2u * 3u + 2u);
  std::size_t total = 0;
  for (const auto& slot : model.param_slots()) total += slot.param->size();
  EXPECT_EQ(total, model.param_count());
}

TEST(SequenceModel, LearnsCyclicSequence) {
  SequenceModelConfig cfg;
  cfg.input_dim = 5;
  cfg.num_classes = 5;
  cfg.hidden_dims = {16};
  SequenceModel model(cfg);
  Rng rng(42);
  model.init_params(rng);

  std::vector<CodeRow> xs;
  std::vector<std::size_t> targets;
  cyclic_fragment(5, 40, xs, targets);

  Adam opt(1e-2);
  const auto slots = model.param_slots();
  double first_loss = 0.0;
  double last_loss = 0.0;
  for (int epoch = 0; epoch < 60; ++epoch) {
    model.zero_grads();
    const double loss = model.train_fragment(xs, targets) / xs.size();
    if (epoch == 0) first_loss = loss;
    last_loss = loss;
    clip_global_norm(slots, 5.0);
    opt.step(slots);
  }
  EXPECT_LT(last_loss, first_loss * 0.2);
  // The deterministic cycle should be perfectly predicted at top-1.
  EXPECT_EQ(model.top_k_misses(xs, targets, 1), 0u);
}

TEST(SequenceModel, EvaluateMatchesTrainForwardLoss) {
  SequenceModelConfig cfg;
  cfg.input_dim = 3;
  cfg.num_classes = 4;
  cfg.hidden_dims = {4};
  SequenceModel model(cfg);
  Rng rng(9);
  model.init_params(rng);

  std::vector<CodeRow> xs = {{0}, {1}, {2}};
  std::vector<std::size_t> targets = {1, 2, 3};
  const double eval_loss = model.evaluate_fragment(xs, targets);
  model.zero_grads();
  const double train_loss = model.train_fragment(xs, targets);
  EXPECT_NEAR(eval_loss, train_loss, 1e-4);
}

TEST(SequenceModel, TopKMissesMonotoneInK) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 6;
  cfg.hidden_dims = {5};
  SequenceModel model(cfg);
  Rng rng(13);
  model.init_params(rng);

  std::vector<CodeRow> xs;
  std::vector<std::size_t> targets;
  for (int t = 0; t < 30; ++t) {
    xs.push_back({static_cast<std::uint32_t>(t % 4)});
    targets.push_back(static_cast<std::size_t>(t * 7 % 6));
  }
  std::size_t prev = xs.size() + 1;
  for (std::size_t k = 1; k <= 6; ++k) {
    const std::size_t misses = model.top_k_misses(xs, targets, k);
    EXPECT_LE(misses, prev);
    prev = misses;
  }
  EXPECT_EQ(model.top_k_misses(xs, targets, 6), 0u);  // k == |S|
}

TEST(SequenceModel, StreamingPredictMatchesSequenceProbabilities) {
  SequenceModelConfig cfg;
  cfg.input_dim = 3;
  cfg.num_classes = 4;
  cfg.hidden_dims = {4, 3};
  SequenceModel model(cfg);
  Rng rng(21);
  model.init_params(rng);

  std::vector<CodeRow> xs = {{0}, {1, 2}, {2}};
  // Streaming twice must produce identical outputs (pure function of state).
  auto s1 = model.make_state();
  auto s2 = model.make_state();
  std::vector<float> p1, p2;
  for (const auto& x : xs) {
    model.predict(s1, x, p1);
    model.predict(s2, x, p2);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) EXPECT_FLOAT_EQ(p1[i], p2[i]);
  }
}

TEST(SequenceModel, MemoryBytesTracksParamCount) {
  SequenceModelConfig cfg;
  cfg.input_dim = 4;
  cfg.num_classes = 3;
  cfg.hidden_dims = {8};
  SequenceModel model(cfg);
  EXPECT_EQ(model.memory_bytes(), model.param_count() * sizeof(float) + 64);
}

TEST(SequenceModel, TrainFragmentValidatesLengths) {
  SequenceModelConfig cfg;
  cfg.input_dim = 2;
  cfg.num_classes = 2;
  cfg.hidden_dims = {3};
  SequenceModel model(cfg);
  std::vector<CodeRow> xs = {{0}};
  std::vector<std::size_t> targets = {0, 1};
  EXPECT_THROW(model.train_fragment(xs, targets), std::invalid_argument);
}

TEST(SequenceModel, RefusesCodesOutOfRangeOrOutOfOrder) {
  SequenceModelConfig cfg;
  cfg.input_dim = 3;
  cfg.num_classes = 2;
  cfg.hidden_dims = {3};
  SequenceModel model(cfg);
  auto state = model.make_state();
  std::vector<float> probs;
  const std::vector<CodeRow> bad = {{3}, {2, 1}, {1, 1}};
  for (const CodeRow& codes : bad) {
    EXPECT_THROW(model.predict(state, codes, probs), std::invalid_argument);
  }
  CodeMatrix x;
  x.clear(3);
  EXPECT_THROW(x.push_row(bad[0]), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::nn
