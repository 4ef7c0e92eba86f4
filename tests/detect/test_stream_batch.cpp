// Batched multi-stream inference (detect/stream_batch.hpp and the
// EvalOptions::streams path): per-stream semantics track the single-stream
// reference to float rounding, streams <= 1 is that reference exactly,
// metrics are bit-identical across thread counts (the pool only partitions
// kernel rows), and the StreamBatch API enforces its prefix-shrink
// contract.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "detect/pipeline.hpp"
#include "detect/stream_batch.hpp"
#include "ics/features.hpp"
#include "ics/simulator.hpp"

namespace mlad::detect {
namespace {

struct Fixture {
  ics::SimulationResult capture;
  TrainedFramework framework;

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1500;
    sim_cfg.seed = 321;
    ics::GasPipelineSimulator sim(sim_cfg);
    capture = sim.run();

    PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = train_framework(capture.packages, cfg);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

bool same_counts(const EvaluationResult& a, const EvaluationResult& b) {
  return a.confusion.tp == b.confusion.tp && a.confusion.tn == b.confusion.tn &&
         a.confusion.fp == b.confusion.fp && a.confusion.fn == b.confusion.fn &&
         a.package_level_alarms == b.package_level_alarms &&
         a.timeseries_level_alarms == b.timeseries_level_alarms;
}

TEST(StreamBatchEval, BitIdenticalAcrossThreadCounts) {
  const auto& f = fixture();
  EvalOptions one;
  one.streams = 8;
  one.threads = 1;
  EvalOptions four;
  four.streams = 8;
  four.threads = 4;
  const EvaluationResult r1 =
      evaluate_framework(*f.framework.detector, f.framework.split.test, one);
  const EvaluationResult r4 =
      evaluate_framework(*f.framework.detector, f.framework.split.test, four);
  EXPECT_TRUE(same_counts(r1, r4));
  for (std::size_t i = 0; i < ics::kAttackTypeCount; ++i) {
    EXPECT_EQ(r1.per_attack.detected[i], r4.per_attack.detected[i]);
    EXPECT_EQ(r1.per_attack.total[i], r4.per_attack.total[i]);
  }
}

TEST(StreamBatchEval, TracksSingleStreamReference) {
  const auto& f = fixture();
  const EvaluationResult seq =
      evaluate_framework(*f.framework.detector, f.framework.split.test);
  // streams <= 1 is the single-stream evaluator itself, for any threads.
  for (const std::size_t streams : {0u, 1u}) {
    const EvaluationResult one = evaluate_framework(
        *f.framework.detector, f.framework.split.test,
        EvalOptions{.threads = 4, .streams = streams});
    EXPECT_TRUE(same_counts(seq, one)) << "streams = " << streams;
  }
  EvalOptions opts;
  opts.streams = 8;
  const EvaluationResult batched =
      evaluate_framework(*f.framework.detector, f.framework.split.test, opts);

  // Every package is scored exactly once…
  EXPECT_EQ(seq.confusion.total(), batched.confusion.total());
  // …and verdicts may differ only near segment starts (history warm-up)
  // plus rounding-level flips from the batched-vs-reference kernels.
  const std::size_t slack = 6 * opts.streams;
  EXPECT_NEAR(static_cast<double>(seq.confusion.tp),
              static_cast<double>(batched.confusion.tp),
              static_cast<double>(slack));
  EXPECT_NEAR(static_cast<double>(seq.confusion.fp),
              static_cast<double>(batched.confusion.fp),
              static_cast<double>(slack));
}

TEST(StreamBatchEval, MoreStreamsThanPackagesClamps) {
  const auto& f = fixture();
  const auto test = std::span(f.framework.split.test).first(5);
  EvalOptions opts;
  opts.streams = 64;
  const EvaluationResult r =
      evaluate_framework(*f.framework.detector, test, opts);
  EXPECT_EQ(r.confusion.total(), test.size());

  const EvaluationResult empty =
      evaluate_framework(*f.framework.detector, std::span<const ics::Package>{},
                         EvalOptions{.streams = 8});
  EXPECT_EQ(empty.confusion.total(), 0u);
  EXPECT_EQ(empty.avg_classify_us, 0.0);
}

TEST(StreamBatch, PerStreamVerdictsMatchIndependentStreams) {
  const auto& f = fixture();
  const CombinedDetector& det = *f.framework.detector;
  const auto test = std::span(f.framework.split.test).first(300);
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  constexpr std::size_t S = 3;
  const std::size_t len = test.size() / S;  // 100 each

  // Reference: S independent single-stream detectors.
  std::vector<std::vector<bool>> ref(S);
  for (std::size_t s = 0; s < S; ++s) {
    auto stream = det.make_stream();
    for (std::size_t t = 0; t < len; ++t) {
      ref[s].push_back(
          det.classify_and_consume(stream, rows[s * len + t]).anomaly);
    }
  }

  // Batched: the same S segments advanced in lockstep. Verdicts are not
  // bitwise-guaranteed (batched kernels round differently), so count the
  // disagreements instead of requiring zero.
  StreamBatch batch(det, S);
  std::vector<std::span<const double>> tick(S);
  std::vector<CombinedVerdict> verdicts;
  std::size_t mismatches = 0;
  for (std::size_t t = 0; t < len; ++t) {
    for (std::size_t s = 0; s < S; ++s) tick[s] = rows[s * len + t];
    batch.step(tick, verdicts);
    for (std::size_t s = 0; s < S; ++s) {
      if (verdicts[s].anomaly != ref[s][t]) ++mismatches;
    }
  }
  EXPECT_LE(mismatches, 3u) << "batched verdicts diverged from the "
                               "single-stream reference beyond rounding";
}

TEST(StreamBatch, GrownStreamIsBitIdenticalToALoneStream) {
  // The serve-layer contract: per-row kernels make every stream's bits a
  // function of its own inputs alone, so (a) a stream joining mid-run via
  // grow() behaves exactly like a brand-new 1-stream batch, and (b) the
  // incumbent streams don't notice the join.
  const auto& f = fixture();
  const CombinedDetector& det = *f.framework.detector;
  const std::vector<sig::RawRow> rows =
      ics::to_raw_rows(f.framework.split.test);
  ASSERT_GE(rows.size(), 360u);

  // Reference A: two streams for 120 ticks, no join.
  StreamBatch two(det, 2);
  std::vector<std::span<const double>> tick;
  std::vector<CombinedVerdict> verdicts;
  std::vector<bool> ref0, ref1;
  for (std::size_t t = 0; t < 120; ++t) {
    tick = {rows[t], rows[120 + t]};
    two.step(tick, verdicts);
    ref0.push_back(verdicts[0].anomaly);
    ref1.push_back(verdicts[1].anomaly);
  }
  // Reference B: a lone stream over the joiner's packages.
  StreamBatch lone(det, 1);
  std::vector<bool> ref2;
  for (std::size_t t = 60; t < 120; ++t) {
    tick = {rows[240 + t]};
    lone.step(tick, verdicts);
    ref2.push_back(verdicts[0].anomaly);
  }

  // Joined run: stream 2 joins at tick 60.
  StreamBatch batch(det, 2);
  std::vector<bool> got0, got1, got2;
  for (std::size_t t = 0; t < 120; ++t) {
    if (t == 60) batch.grow(3);
    if (t < 60) {
      tick = {rows[t], rows[120 + t]};
    } else {
      tick = {rows[t], rows[120 + t], rows[240 + t]};
    }
    batch.step(tick, verdicts);
    got0.push_back(verdicts[0].anomaly);
    got1.push_back(verdicts[1].anomaly);
    if (t >= 60) got2.push_back(verdicts[2].anomaly);
  }
  EXPECT_EQ(got0, ref0) << "join disturbed an incumbent stream";
  EXPECT_EQ(got1, ref1) << "join disturbed an incumbent stream";
  EXPECT_EQ(got2, ref2) << "joined stream differs from a lone stream";
}

TEST(StreamBatch, SwapThenShrinkRetiresAMiddleStream) {
  const auto& f = fixture();
  const CombinedDetector& det = *f.framework.detector;
  const std::vector<sig::RawRow> rows =
      ics::to_raw_rows(f.framework.split.test);
  ASSERT_GE(rows.size(), 300u);

  // Reference: streams 0 and 2 run all 100 ticks; stream 1 only the first
  // 50 (three independent lanes).
  std::vector<std::vector<bool>> ref(3);
  for (std::size_t s = 0; s < 3; ++s) {
    StreamBatch one(det, 1);
    std::vector<std::span<const double>> tick(1);
    std::vector<CombinedVerdict> verdicts;
    const std::size_t len = s == 1 ? 50 : 100;
    for (std::size_t t = 0; t < len; ++t) {
      tick[0] = rows[s * 100 + t];
      one.step(tick, verdicts);
      ref[s].push_back(verdicts[0].anomaly);
    }
  }

  // Batched: retire stream 1 at tick 50 via swap-to-back + shrink; stream 2
  // carries on from slot 1.
  StreamBatch batch(det, 3);
  std::vector<std::span<const double>> tick;
  std::vector<CombinedVerdict> verdicts;
  std::vector<std::vector<bool>> got(3);
  for (std::size_t t = 0; t < 100; ++t) {
    if (t == 50) {
      batch.swap_streams(1, 2);
      batch.shrink(2);
      EXPECT_EQ(batch.active(), 2u);
    }
    if (t < 50) {
      tick = {rows[t], rows[100 + t], rows[200 + t]};
      batch.step(tick, verdicts);
      got[0].push_back(verdicts[0].anomaly);
      got[1].push_back(verdicts[1].anomaly);
      got[2].push_back(verdicts[2].anomaly);
    } else {
      tick = {rows[t], rows[200 + t]};
      batch.step(tick, verdicts);
      got[0].push_back(verdicts[0].anomaly);
      got[2].push_back(verdicts[1].anomaly);
    }
  }
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(got[s], ref[s]) << "stream " << s;
  }
}

TEST(StreamBatch, GrowRecyclesRetiredSlotsAsFreshStreams) {
  const auto& f = fixture();
  const CombinedDetector& det = *f.framework.detector;
  const std::vector<sig::RawRow> rows =
      ics::to_raw_rows(f.framework.split.test);
  ASSERT_GE(rows.size(), 120u);

  StreamBatch batch(det, 2);
  std::vector<std::span<const double>> tick;
  std::vector<CombinedVerdict> verdicts;
  for (std::size_t t = 0; t < 30; ++t) {
    tick = {rows[t], rows[60 + t]};
    batch.step(tick, verdicts);
  }
  batch.shrink(1);
  batch.grow(2);  // recycled slot 1 must be a FRESH stream…

  StreamBatch lone(det, 1);
  std::vector<bool> want, got;
  for (std::size_t t = 30; t < 60; ++t) {
    tick = {rows[60 + t]};
    lone.step(tick, verdicts);
    want.push_back(verdicts[0].anomaly);
    tick = {rows[t], rows[60 + t]};
    batch.step(tick, verdicts);
    got.push_back(verdicts[1].anomaly);
  }
  EXPECT_EQ(got, want) << "…but it inherited the retired stream's state";
}

TEST(StreamBatch, GrowAndSwapValidateArguments) {
  const auto& f = fixture();
  StreamBatch batch(*f.framework.detector, 3);
  EXPECT_THROW(batch.grow(2), std::invalid_argument);
  EXPECT_THROW(batch.swap_streams(0, 3), std::invalid_argument);
  EXPECT_THROW(batch.swap_streams(3, 0), std::invalid_argument);
  batch.grow(3);             // no-op
  batch.swap_streams(1, 1);  // no-op
  EXPECT_EQ(batch.active(), 3u);
}

TEST(StreamBatch, ShrinkKeepsPrefixStreamsStepping) {
  const auto& f = fixture();
  const CombinedDetector& det = *f.framework.detector;
  const auto test = f.framework.split.test;
  ASSERT_GE(test.size(), 8u);
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);

  StreamBatch batch(det, 4);
  EXPECT_EQ(batch.active(), 4u);
  std::vector<std::span<const double>> tick;
  std::vector<CombinedVerdict> verdicts;
  for (std::size_t s = 0; s < 4; ++s) tick.emplace_back(rows[s]);
  batch.step(tick, verdicts);
  EXPECT_EQ(verdicts.size(), 4u);

  batch.shrink(2);
  EXPECT_EQ(batch.active(), 2u);
  tick.resize(2);
  for (std::size_t s = 0; s < 2; ++s) tick[s] = rows[4 + s];
  batch.step(tick, verdicts);
  EXPECT_EQ(verdicts.size(), 2u);

  // Contract violations throw instead of corrupting state.
  tick.resize(3);
  tick[2] = rows[6];
  EXPECT_THROW(batch.step(tick, verdicts), std::invalid_argument);
  EXPECT_THROW(batch.shrink(3), std::invalid_argument);
}

}  // namespace
}  // namespace mlad::detect
