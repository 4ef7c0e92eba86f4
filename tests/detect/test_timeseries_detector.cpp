#include "detect/timeseries_detector.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "nn/softmax.hpp"

namespace mlad::detect {
namespace {

/// A deterministic 4-phase cyclic protocol over one feature with 4 values —
/// a miniature of the gas pipeline's command/response cycle.
struct TsFixture : ::testing::Test {
  void SetUp() override {
    cards = {4};
    db = std::make_unique<sig::SignatureDatabase>(sig::SignatureGenerator(cards));
    for (int rep = 0; rep < 50; ++rep) {
      DiscreteFragment frag;
      for (int t = 0; t < 20; ++t) {
        frag.push_back({static_cast<std::uint16_t>(t % 4)});
      }
      fragments.push_back(frag);
      for (const auto& row : frag) db->add(row);
    }
    config.hidden_dims = {12};
    config.epochs = 15;
    config.noise.enabled = false;
    config.max_k = 4;
  }

  std::unique_ptr<TimeSeriesDetector> make_trained(std::uint64_t seed) {
    Rng rng(seed);
    auto det = std::make_unique<TimeSeriesDetector>(*db, cards, config, rng);
    det->train(fragments, rng);
    return det;
  }

  std::vector<std::size_t> cards;
  std::unique_ptr<sig::SignatureDatabase> db;
  std::vector<DiscreteFragment> fragments;
  TimeSeriesConfig config;
};

TEST_F(TsFixture, TrainingLossDecreases) {
  // The per-window reference (batch 1) and the engine (batch 4, a quarter
  // of the optimizer steps) both learn; one loss per epoch.
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(1);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto losses = det.train(fragments, rng);
    ASSERT_EQ(losses.size(), config.epochs);
    EXPECT_LT(losses.back(), losses.front() * (batch == 1 ? 0.5 : 1.0))
        << "batch " << batch;
  }
}

TEST_F(TsFixture, TruncationCoversEveryStep) {
  // 51 packages = 50 steps, cut into 7-step windows: 7·7 + 1 = 8 windows.
  // At learning rate 0 the weights never move, so the epoch loss must be
  // the CE of every window, each evaluated on its own, over all 50 steps.
  DiscreteFragment frag;
  for (int t = 0; t < 51; ++t) {
    frag.push_back({static_cast<std::uint16_t>(t % 4)});
  }
  const std::vector<DiscreteFragment> one = {frag};
  config.epochs = 1;
  config.truncate_steps = 7;
  config.learning_rate = 0.0;
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(15);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto losses = det.train(one, rng);
    // One optimizer step per window, or per 4-window minibatch.
    EXPECT_EQ(det.adam_state()->t, batch == 1 ? 8u : 2u);
    std::vector<nn::CodeRow> xs(50);
    std::vector<std::size_t> ts;
    for (std::size_t t = 0; t < 50; ++t) {
      sig::append_one_hot_codes(frag[t], cards, false, xs[t]);
      ts.push_back(*db->id_of(frag[t + 1]));
    }
    double sum = 0.0;
    for (std::size_t start = 0; start < 50; start += 7) {
      const std::size_t n = std::min<std::size_t>(7, 50 - start);
      sum += det.model().evaluate_fragment(std::span(xs).subspan(start, n),
                                           std::span(ts).subspan(start, n));
    }
    ASSERT_EQ(losses.size(), 1u);
    EXPECT_NEAR(losses[0], sum / 50.0, 1e-5) << "batch " << batch;
  }
}

TEST_F(TsFixture, TopKErrorLowOnDeterministicCycle) {
  const auto det = make_trained(2);
  EXPECT_LT(det->top_k_error(fragments, 1), 0.15);
  EXPECT_DOUBLE_EQ(det->top_k_error(fragments, 4), 0.0);  // k = |S|
}

TEST_F(TsFixture, TopKErrorMonotoneInK) {
  const auto det = make_trained(3);
  double prev = 1.0;
  for (std::size_t k = 1; k <= 4; ++k) {
    const double err = det->top_k_error(fragments, k);
    EXPECT_LE(err, prev + 1e-12);
    prev = err;
  }
}

TEST_F(TsFixture, ChooseKPicksSmallK) {
  auto det = make_trained(4);
  const std::size_t k = det->choose_k(fragments);
  EXPECT_LE(k, 2u);
  EXPECT_EQ(det->k(), k);
  // θ = 0 can never be satisfied (err_k ≥ 0 and the test is strict), so
  // choose_k falls back to max_k.
  config.theta = 0.0;
  det->set_train_config(config);
  EXPECT_EQ(det->choose_k(fragments), config.max_k);
}

TEST_F(TsFixture, StreamingDetectsPhaseViolation) {
  auto det = make_trained(5);
  det->set_k(1);
  auto stream = det->make_stream();
  // Warm up with a correct prefix 0,1,2,3,0,1,…
  for (int t = 0; t < 8; ++t) {
    const sig::DiscreteRow row = {static_cast<std::uint16_t>(t % 4)};
    det->consume(stream, row, false);
  }
  // Next should be 0 (after …,2,3): signature 0 passes, 2 is flagged.
  const auto id_ok = db->id_of({0});
  const auto id_bad = db->id_of({2});
  EXPECT_FALSE(det->is_anomalous(stream, id_ok));
  EXPECT_TRUE(det->is_anomalous(stream, id_bad));
}

TEST_F(TsFixture, FirstPackagePassesWithoutHistory) {
  const auto det = make_trained(6);
  const auto stream = det->make_stream();
  EXPECT_FALSE(det->is_anomalous(stream, db->id_of({0})));
}

TEST_F(TsFixture, MissingSignatureIdIsAnomalous) {
  auto det = make_trained(7);
  auto stream = det->make_stream();
  det->consume(stream, {0}, false);
  EXPECT_TRUE(det->is_anomalous(stream, std::nullopt));
}

TEST_F(TsFixture, NoiseTrainingStillLearns) {
  config.noise.enabled = true;
  config.noise.lambda = 5.0;
  config.noise.max_corrupted_features = 1;
  Rng rng(8);
  TimeSeriesDetector det(*db, cards, config, rng);
  const auto losses = det.train(fragments, rng);
  EXPECT_LT(losses.back(), losses.front());
  // The deterministic cycle should still be predictable at modest k.
  EXPECT_LT(det.top_k_error(fragments, 2), 0.15);
}

TEST_F(TsFixture, InputDimIncludesNoisyBit) {
  Rng rng(9);
  const TimeSeriesDetector det(*db, cards, config, rng);
  EXPECT_EQ(det.model().input_dim(), 4u + 1u);  // one-hot + noisy bit
  EXPECT_EQ(det.model().num_classes(), db->size());
}

TEST_F(TsFixture, ShortFragmentsIgnored) {
  // An empty fragment and a single package: no step to train on, at the
  // per-window reference and through the engine alike.
  const std::vector<DiscreteFragment> tiny = {{}, {{0}}};
  for (const std::size_t batch : {1u, 4u}) {
    config.batch_size = batch;
    Rng rng(10);
    TimeSeriesDetector det(*db, cards, config, rng);
    const auto losses = det.train(tiny, rng);
    ASSERT_EQ(losses.size(), config.epochs);
    EXPECT_DOUBLE_EQ(losses.back(), 0.0);  // nothing to train on
    EXPECT_EQ(det.adam_state()->t, 0u);    // and no optimizer step
    EXPECT_DOUBLE_EQ(det.top_k_error(tiny, 1), 0.0);
  }
}

TEST_F(TsFixture, TrainRejectsUnknownSignatures) {
  Rng rng(11);
  TimeSeriesDetector det(*db, cards, config, rng);
  // {3} exists but a fragment containing an id outside the db must throw:
  // build a db *without* value 3.
  sig::SignatureDatabase small_db{sig::SignatureGenerator(cards)};
  small_db.add({0});
  TimeSeriesDetector det2(small_db, cards, config, rng);
  const std::vector<DiscreteFragment> bad = {{{0}, {3}}};
  EXPECT_THROW(det2.train(bad, rng), std::invalid_argument);
}

/// The per-k replay the detector ran before its one-pass curve: one full
/// streamed pass over the fragments for every k, counting a target outside
/// the database, or outside the predicted top k, as a miss.
double replay_top_k_error(const TimeSeriesDetector& det,
                          const sig::SignatureDatabase& db,
                          std::span<const DiscreteFragment> fragments,
                          std::size_t k) {
  std::size_t misses = 0;
  std::size_t total = 0;
  nn::CodeRow codes;
  std::vector<float> probs;
  for (const DiscreteFragment& df : fragments) {
    if (df.size() < 2) continue;
    nn::SequenceModel::State state = det.model().make_state();
    for (std::size_t t = 0; t + 1 < df.size(); ++t) {
      codes.clear();
      sig::append_one_hot_codes(df[t], det.cardinalities(), false, codes);
      det.model().predict(state, codes, probs);
      const auto id = db.id_of(df[t + 1]);
      if (!id || !nn::in_top_k(probs, *id, k)) ++misses;
      ++total;
    }
  }
  return total ? static_cast<double>(misses) / static_cast<double>(total)
               : 0.0;
}

TEST(TimeSeriesTopK, OnePassCurveEqualsPerKReplay) {
  // Feature cardinality 5, but the database only knows values 0..3 (the
  // training cycle): validation packages with value 4 are unknown
  // signatures, misses at every k.
  const std::vector<std::size_t> cards = {5};
  sig::SignatureDatabase db{sig::SignatureGenerator(cards)};
  std::vector<DiscreteFragment> train;
  for (int rep = 0; rep < 20; ++rep) {
    DiscreteFragment frag;
    for (int t = 0; t < 16; ++t) {
      frag.push_back({static_cast<std::uint16_t>(t % 4)});
      db.add(frag.back());
    }
    train.push_back(frag);
  }
  Rng data(5);
  std::vector<DiscreteFragment> validation;
  for (int f = 0; f < 12; ++f) {
    DiscreteFragment frag;
    for (int t = 0; t < 14; ++t) {
      // Mostly the cycle, sometimes a jump, sometimes the unknown value 4.
      const std::uint16_t v = data.bernoulli(0.15)
                                  ? 4
                                  : static_cast<std::uint16_t>(
                                        data.bernoulli(0.2) ? data.index(4)
                                                            : t % 4);
      frag.push_back({v});
    }
    validation.push_back(frag);
  }
  TimeSeriesConfig config;
  config.hidden_dims = {8};
  config.epochs = 3;
  config.max_k = 4;
  config.theta = 0.3;
  Rng rng(21);
  TimeSeriesDetector det(db, cards, config, rng);
  det.train(train, rng);

  const std::vector<double> curve = det.top_k_error_curve(validation, 4);
  ASSERT_EQ(curve.size(), 4u);
  std::size_t oracle_k = config.max_k;
  for (std::size_t k = 1; k <= 4; ++k) {
    const double want = replay_top_k_error(det, db, validation, k);
    EXPECT_EQ(curve[k - 1], want) << "k=" << k;  // bit for bit
    EXPECT_EQ(det.top_k_error(validation, k), want) << "k=" << k;
    if (oracle_k == config.max_k && want < config.theta) oracle_k = k;
  }
  // The unknown signatures keep err_k above 0 even at k = |S|.
  EXPECT_GT(curve.back(), 0.0);
  EXPECT_EQ(det.choose_k(validation), oracle_k);
  EXPECT_EQ(det.k(), oracle_k);
}

TEST_F(TsFixture, ZeroMaxKIsRefused) {
  // k = 0 would put every package with history outside S(0).
  config.max_k = 0;
  Rng rng(13);
  EXPECT_THROW(TimeSeriesDetector(*db, cards, config, rng),
               std::invalid_argument);
  config.max_k = 4;
  TimeSeriesDetector det(*db, cards, config, rng);
  config.max_k = 0;
  EXPECT_THROW(det.set_train_config(config), std::invalid_argument);
}

TEST_F(TsFixture, ZeroKIsRefusedOnRestore) {
  Rng rng(14);
  TimeSeriesDetector trained(*db, cards, config, rng);
  EXPECT_THROW(TimeSeriesDetector(*db, cards, config,
                                  trained.model().clone(), /*k=*/0),
               std::invalid_argument);
  EXPECT_THROW(trained.set_k(0), std::invalid_argument);
  EXPECT_EQ(trained.k(), 1u);
  const TimeSeriesDetector restored(*db, cards, config,
                                    trained.model().clone(), /*k=*/2);
  EXPECT_EQ(restored.k(), 2u);
}

TEST_F(TsFixture, MemoryBytesPositive) {
  Rng rng(12);
  const TimeSeriesDetector det(*db, cards, config, rng);
  EXPECT_GT(det.memory_bytes(), 1000u);
}

}  // namespace
}  // namespace mlad::detect
