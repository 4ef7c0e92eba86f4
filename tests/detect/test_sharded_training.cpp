// Multi-capture sharded training (DESIGN.md §11): one model trained over
// several captures with per-capture gradient lanes must be bit-identical
// for any thread count AND any capture listing order, because lane
// partitioning, the tree reduction, and the per-capture Rng streams are all
// functions of the data and keys alone.
#include <gtest/gtest.h>

#include "detect/timeseries_detector.hpp"

namespace mlad::detect {
namespace {

struct ShardFixture : ::testing::Test {
  void SetUp() override {
    cards = {4};
    db = std::make_unique<sig::SignatureDatabase>(
        sig::SignatureGenerator(cards));
    // Three "captures" of the same 4-phase cyclic protocol, distinguished
    // by phase offset and fragment count so their shard shapes differ.
    const std::size_t counts[] = {12, 18, 9};
    for (std::size_t c = 0; c < 3; ++c) {
      std::vector<DiscreteFragment>& frags = capture_frags[c];
      for (std::size_t rep = 0; rep < counts[c]; ++rep) {
        DiscreteFragment frag;
        for (std::size_t t = 0; t < 20; ++t) {
          frag.push_back({static_cast<std::uint16_t>((t + c) % 4)});
        }
        for (const auto& row : frag) db->add(row);
        frags.push_back(std::move(frag));
      }
    }
    config.hidden_dims = {12};
    config.epochs = 6;
    config.batch_size = 2;
    config.micro_batch = 2;
    config.noise.enabled = false;
    config.max_k = 4;
  }

  std::vector<CaptureShard> shards(std::span<const std::size_t> order) const {
    const char* keys[] = {"a.cap", "b.cap", "c.cap"};
    std::vector<CaptureShard> out;
    for (std::size_t i : order) {
      out.push_back({keys[i], capture_frags[i]});
    }
    return out;
  }

  static std::vector<float> flatten_params(TimeSeriesDetector& det) {
    std::vector<float> out;
    for (const auto& s : det.model().param_slots()) {
      out.insert(out.end(), s.param->data(),
                 s.param->data() + s.param->rows() * s.param->cols());
    }
    return out;
  }

  std::vector<std::size_t> cards;
  std::unique_ptr<sig::SignatureDatabase> db;
  std::vector<DiscreteFragment> capture_frags[3];
  TimeSeriesConfig config;
};

TEST_F(ShardFixture, ShardedTrainingLearns) {
  // Grouped batching takes one optimizer step per round (vs per window in
  // the sequential trainer), so give it more epochs to converge.
  config.epochs = 30;
  Rng rng(1);
  TimeSeriesDetector det(*db, cards, config, rng);
  const auto caps = shards(std::vector<std::size_t>{0, 1, 2});
  const auto losses = det.train_sharded(caps, /*base_seed=*/99);
  ASSERT_EQ(losses.size(), config.epochs);
  EXPECT_LT(losses.back(), losses.front() * 0.7);
  // All captures share the protocol, so the pooled model predicts it.
  EXPECT_LT(det.top_k_error(capture_frags[0], 2), 0.2);
  EXPECT_TRUE(det.adam_state().has_value());
}

TEST_F(ShardFixture, BitIdenticalAcrossThreadCounts) {
  // Sharded over three captures, and the single-capture train() at
  // batch 4 / micro-batch 2, which runs the same driver on the caller's Rng.
  std::vector<std::vector<double>> losses;
  std::vector<std::vector<float>> params;
  std::vector<std::vector<double>> single_losses;
  std::vector<std::vector<float>> single_params;
  for (const std::size_t threads : {1u, 2u, 4u}) {
    config.threads = threads;
    Rng rng(2);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto caps = shards(std::vector<std::size_t>{0, 1, 2});
    losses.push_back(det.train_sharded(caps, 7));
    params.push_back(flatten_params(det));
    TimeSeriesConfig single_config = config;
    single_config.batch_size = 4;
    Rng single_rng(3);
    TimeSeriesDetector single(*db, cards, single_config, single_rng);
    single_losses.push_back(single.train(capture_frags[1], single_rng));
    single_params.push_back(flatten_params(single));
  }
  for (std::size_t i = 1; i < single_losses.size(); ++i) {
    ASSERT_EQ(single_losses[0], single_losses[i]);
    ASSERT_EQ(single_params[0], single_params[i]) << "thread variant " << i;
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    ASSERT_EQ(losses[0], losses[i]);
    ASSERT_EQ(params[0].size(), params[i].size());
    for (std::size_t j = 0; j < params[0].size(); ++j) {
      ASSERT_EQ(params[0][j], params[i][j]) << "thread variant " << i;
    }
  }
}

TEST_F(ShardFixture, BitIdenticalAcrossCaptureOrder) {
  const std::vector<std::size_t> orders[] = {
      {0, 1, 2}, {2, 0, 1}, {1, 2, 0}};
  std::vector<std::vector<double>> losses;
  std::vector<std::vector<float>> params;
  for (const auto& order : orders) {
    Rng rng(3);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto caps = shards(order);
    losses.push_back(det.train_sharded(caps, 11));
    params.push_back(flatten_params(det));
  }
  for (std::size_t i = 1; i < losses.size(); ++i) {
    ASSERT_EQ(losses[0], losses[i]);
    for (std::size_t j = 0; j < params[0].size(); ++j) {
      ASSERT_EQ(params[0][j], params[i][j]) << "order variant " << i;
    }
  }
}

TEST_F(ShardFixture, DuplicateKeysThrow) {
  Rng rng(4);
  TimeSeriesDetector det(*db, cards, config, rng);
  const std::vector<CaptureShard> caps = {{"same", capture_frags[0]},
                                          {"same", capture_frags[1]}};
  EXPECT_THROW(det.train_sharded(caps, 5), std::invalid_argument);
}

TEST_F(ShardFixture, SingleShardIsOrdinaryTraining) {
  // One capture sharded = groups of one — a plain batched run; it must
  // still learn and produce epochs-many losses.
  Rng rng(5);
  TimeSeriesDetector det(*db, cards, config, rng);
  const std::vector<CaptureShard> caps = {{"only", capture_frags[1]}};
  const auto losses = det.train_sharded(caps, 6);
  ASSERT_EQ(losses.size(), config.epochs);
  EXPECT_LT(losses.back(), losses.front());
}

TEST_F(ShardFixture, EmptyCaptureContributesNothing) {
  Rng rng(6);
  TimeSeriesDetector det(*db, cards, config, rng);
  const std::vector<DiscreteFragment> none;
  const std::vector<CaptureShard> caps = {{"a.cap", capture_frags[0]},
                                          {"empty", none}};
  const auto losses = det.train_sharded(caps, 8);
  ASSERT_EQ(losses.size(), config.epochs);
  EXPECT_GT(losses.front(), 0.0);
}

}  // namespace
}  // namespace mlad::detect
