// Optimizer-state persistence (ISSUE 5 satellite): Adam snapshot/restore
// resumes training bit-identically, the sidecar round-trips through the
// versioned serializer, mismatched states are refused, and the model
// clone / parameter-adoption primitives the hot swap is built on behave.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <vector>

#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequence_model.hpp"
#include "nn/serialize.hpp"

namespace mlad::nn {
namespace {

SequenceModel small_model(std::uint64_t seed = 11) {
  SequenceModelConfig cfg;
  cfg.input_dim = 6;
  cfg.num_classes = 4;
  cfg.hidden_dims = {8};
  SequenceModel model(cfg);
  Rng rng(seed);
  model.init_params(rng);
  return model;
}

/// One deterministic synthetic training step.
double train_step(SequenceModel& model, Adam& opt, std::size_t salt) {
  std::vector<nn::CodeRow> xs(3);
  std::vector<std::size_t> targets(3);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    xs[t] = {static_cast<std::uint32_t>((salt + t) % 6)};
    targets[t] = (salt + t) % 4;
  }
  model.zero_grads();
  const double loss = model.train_fragment(xs, targets);
  opt.step(model.param_slots());
  return loss;
}

std::vector<float> params_of(SequenceModel& model) {
  std::vector<float> out;
  for (const ParamSlot& slot : model.param_slots()) {
    out.insert(out.end(), slot.param->data(),
               slot.param->data() + slot.param->size());
  }
  return out;
}

TEST(AdamState, SnapshotRestoreResumesBitIdentically) {
  SequenceModel a = small_model();
  Adam opt_a(3e-3);
  for (std::size_t i = 0; i < 4; ++i) train_step(a, opt_a, i);

  // Fork: b continues from a snapshot of (params, moments) taken now.
  SequenceModel b = a.clone();
  Adam opt_b(3e-3);
  opt_b.restore(opt_a.state());

  for (std::size_t i = 4; i < 8; ++i) {
    train_step(a, opt_a, i);
    train_step(b, opt_b, i);
  }
  EXPECT_EQ(params_of(a), params_of(b))
      << "restored Adam diverged from the uninterrupted run";

  // A fresh (zero-moment) optimizer from the same fork point must diverge —
  // the warm start is real state, not a no-op.
  SequenceModel c = small_model();
  Adam opt_c(3e-3);
  for (std::size_t i = 0; i < 4; ++i) train_step(c, opt_c, i);
  Adam cold(3e-3);
  for (std::size_t i = 4; i < 8; ++i) train_step(c, cold, i);
  EXPECT_NE(params_of(a), params_of(c));
}

TEST(AdamState, SidecarRoundTripsExactly) {
  SequenceModel model = small_model();
  Adam opt(1e-3);
  for (std::size_t i = 0; i < 3; ++i) train_step(model, opt, i);
  const AdamState state = opt.state();

  std::stringstream stream;
  save_adam_state(stream, state);
  const AdamState loaded = load_adam_state(stream);
  EXPECT_EQ(loaded.t, state.t);
  EXPECT_EQ(loaded.m, state.m);
  EXPECT_EQ(loaded.v, state.v);
  EXPECT_TRUE(adam_state_matches(loaded, model.param_slots()));
}

TEST(AdamState, BadMagicAndTruncationAreRejected) {
  std::stringstream bad("definitely not a sidecar");
  EXPECT_THROW(load_adam_state(bad), std::runtime_error);

  SequenceModel model = small_model();
  Adam opt(1e-3);
  train_step(model, opt, 0);
  std::stringstream stream;
  save_adam_state(stream, opt.state());
  const std::string bytes = stream.str();
  std::stringstream truncated(bytes.substr(0, bytes.size() / 2));
  EXPECT_THROW(load_adam_state(truncated), std::runtime_error);
}

TEST(AdamState, MismatchedStateIsRefused) {
  SequenceModel model = small_model();
  Adam opt(1e-3);
  train_step(model, opt, 0);
  AdamState state = opt.state();

  // Wrong slot count.
  AdamState fewer = state;
  fewer.m.pop_back();
  fewer.v.pop_back();
  EXPECT_FALSE(adam_state_matches(fewer, model.param_slots()));

  // Right slot count, wrong tensor size: matches() refuses, and a step
  // with the bogus state restored throws instead of indexing out of range.
  AdamState resized = state;
  resized.m.front().resize(3);
  resized.v.front().resize(3);
  EXPECT_FALSE(adam_state_matches(resized, model.param_slots()));
  Adam bogus(1e-3);
  bogus.restore(resized);
  EXPECT_THROW(train_step(model, bogus, 1), std::invalid_argument);
}

TEST(AdamState, CloneIsIndependentAndCopyParamsAdopts) {
  SequenceModel a = small_model();
  SequenceModel b = a.clone();
  EXPECT_EQ(params_of(a), params_of(b));

  // Training the clone must never touch the original (the serving model).
  const std::vector<float> before = params_of(a);
  Adam opt(1e-2);
  train_step(b, opt, 0);
  EXPECT_EQ(params_of(a), before);
  EXPECT_NE(params_of(b), before);

  // copy_params_from adopts exactly the trained weights…
  a.copy_params_from(b);
  EXPECT_EQ(params_of(a), params_of(b));

  // …and refuses a differently-shaped donor.
  SequenceModelConfig other_cfg;
  other_cfg.input_dim = 6;
  other_cfg.num_classes = 4;
  other_cfg.hidden_dims = {8, 8};
  SequenceModel other(other_cfg);
  Rng rng(3);
  other.init_params(rng);
  EXPECT_THROW(a.copy_params_from(other), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::nn
