#include "nn/serialize.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hpp"

namespace mlad::nn {
namespace {

SequenceModel make_model(std::uint64_t seed) {
  SequenceModelConfig cfg;
  cfg.input_dim = 6;
  cfg.num_classes = 5;
  cfg.hidden_dims = {7, 4};
  SequenceModel model(cfg);
  Rng rng(seed);
  model.init_params(rng);
  return model;
}

TEST(Serialize, RoundTripPreservesPredictions) {
  const SequenceModel original = make_model(33);
  std::stringstream buf;
  save_model(buf, original);
  const SequenceModel loaded = load_model(buf);

  EXPECT_EQ(loaded.config().input_dim, original.config().input_dim);
  EXPECT_EQ(loaded.config().num_classes, original.config().num_classes);
  EXPECT_EQ(loaded.config().hidden_dims, original.config().hidden_dims);
  EXPECT_EQ(loaded.param_count(), original.param_count());

  Rng rng(7);
  auto s1 = original.make_state();
  auto s2 = loaded.make_state();
  std::vector<float> p1, p2;
  for (int t = 0; t < 10; ++t) {
    CodeRow x;
    for (std::uint32_t c = 0; c < 6; ++c) {
      if (rng.bernoulli(0.5)) x.push_back(c);
    }
    original.predict(s1, x, p1);
    loaded.predict(s2, x, p2);
    ASSERT_EQ(p1.size(), p2.size());
    for (std::size_t i = 0; i < p1.size(); ++i) {
      EXPECT_FLOAT_EQ(p1[i], p2[i]);
    }
  }
}

TEST(Serialize, BadMagicThrows) {
  std::stringstream buf;
  buf << "NOTAMODELxxxxxxxxxxxxxxxxxxxxxxxxxxxxx";
  EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, TruncatedStreamThrows) {
  const SequenceModel model = make_model(44);
  std::stringstream buf;
  save_model(buf, model);
  const std::string full = buf.str();
  std::stringstream cut(full.substr(0, full.size() / 2));
  EXPECT_THROW(load_model(cut), std::runtime_error);
}

TEST(Serialize, EmptyStreamThrows) {
  std::stringstream buf;
  EXPECT_THROW(load_model(buf), std::runtime_error);
}

TEST(Serialize, FileRoundTrip) {
  const SequenceModel model = make_model(55);
  const std::string path = testing::TempDir() + "/mlad_model.bin";
  save_model_file(path, model);
  const SequenceModel loaded = load_model_file(path);
  EXPECT_EQ(loaded.param_count(), model.param_count());
}

TEST(Serialize, MissingFileThrows) {
  EXPECT_THROW(load_model_file("/no/such/model.bin"), std::runtime_error);
}

}  // namespace
}  // namespace mlad::nn
