#include "detect/pipeline.hpp"

#include <algorithm>

#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "detect/stream_batch.hpp"
#include "ics/features.hpp"

namespace mlad::detect {
namespace {

/// Count one scored package into `out`.
void record(EvaluationResult& out, const ics::Package& package,
            const CombinedVerdict& verdict) {
  out.confusion.record(package.is_attack(), verdict.anomaly);
  out.per_attack.record(package.label, verdict.anomaly);
  if (verdict.package_level) ++out.package_level_alarms;
  if (verdict.timeseries_level) ++out.timeseries_level_alarms;
}

/// Batched multi-stream evaluation: cut the test stream into S contiguous
/// near-equal segments (longer segments first, so the active set stays a
/// prefix) and advance them in lockstep through StreamBatch.
EvaluationResult evaluate_multistream(const CombinedDetector& detector,
                                      std::span<const ics::Package> test,
                                      const EvalOptions& options) {
  const std::size_t S = std::min(options.streams, test.size());
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  const std::size_t base = test.size() / S;
  const std::size_t rem = test.size() % S;
  std::vector<std::size_t> offset(S);
  std::vector<std::size_t> length(S);
  for (std::size_t s = 0, at = 0; s < S; ++s) {
    length[s] = base + (s < rem ? 1 : 0);  // non-increasing in s
    offset[s] = at;
    at += length[s];
  }

  Stopwatch sw;
  PoolHandle pool(options.threads);
  StreamBatch batch(detector, S, pool.get());
  EvaluationResult result;
  std::vector<std::span<const double>> tick(S);
  std::vector<CombinedVerdict> verdicts;
  std::size_t active = S;
  for (std::size_t t = 0; t < length[0]; ++t) {
    while (active > 0 && length[active - 1] <= t) --active;
    if (active < batch.active()) batch.shrink(active);
    for (std::size_t s = 0; s < active; ++s) tick[s] = rows[offset[s] + t];
    batch.step(std::span(tick).first(active), verdicts);
    for (std::size_t s = 0; s < active; ++s) {
      record(result, test[offset[s] + t], verdicts[s]);
    }
  }
  result.avg_classify_us = sw.elapsed_us() / static_cast<double>(test.size());
  return result;
}

}  // namespace

std::vector<std::vector<sig::RawRow>> fragment_raw_rows(
    std::span<const ics::PackageFragment> fragments) {
  std::vector<std::vector<sig::RawRow>> out;
  out.reserve(fragments.size());
  for (const auto& f : fragments) out.push_back(ics::fragment_rows(f));
  return out;
}

TrainedFramework train_framework(std::span<const ics::Package> capture,
                                 const PipelineConfig& config) {
  TrainedFramework tf;
  tf.split = ics::split_dataset(capture, config.split);

  const auto train_rows = fragment_raw_rows(tf.split.train_fragments);
  const auto val_rows = fragment_raw_rows(tf.split.validation_fragments);
  const std::vector<sig::FeatureSpec> specs =
      config.specs.empty() ? ics::default_feature_specs() : config.specs;

  const auto train_short = fragment_raw_rows(tf.split.train_short_fragments);
  const auto val_short = fragment_raw_rows(tf.split.validation_short_fragments);

  Rng rng(config.seed);
  Stopwatch sw;
  tf.detector = std::make_unique<CombinedDetector>(
      train_rows, val_rows, specs, config.combined, rng, train_short,
      val_short);
  tf.train_seconds = sw.elapsed_seconds();
  return tf;
}

MultiTrainedFramework train_framework(std::span<const CaptureInput> captures,
                                      const PipelineConfig& config) {
  MultiTrainedFramework tf;
  tf.splits.reserve(captures.size());
  const std::vector<sig::FeatureSpec> specs =
      config.specs.empty() ? ics::default_feature_specs() : config.specs;

  // Per-capture fragment storage must outlive the detector constructor,
  // which only holds spans over it.
  struct CaptureRows {
    std::vector<std::vector<sig::RawRow>> train, val, train_short, val_short;
  };
  std::vector<CaptureRows> rows(captures.size());
  std::vector<CaptureFragments> frags;
  frags.reserve(captures.size());
  for (std::size_t ci = 0; ci < captures.size(); ++ci) {
    tf.splits.push_back(ics::split_dataset(captures[ci].packages,
                                           config.split));
    const ics::DatasetSplit& split = tf.splits.back();
    CaptureRows& r = rows[ci];
    r.train = fragment_raw_rows(split.train_fragments);
    r.val = fragment_raw_rows(split.validation_fragments);
    r.train_short = fragment_raw_rows(split.train_short_fragments);
    r.val_short = fragment_raw_rows(split.validation_short_fragments);
    frags.push_back(
        {captures[ci].key, r.train, r.val, r.train_short, r.val_short});
  }

  Rng rng(config.seed);
  Stopwatch sw;
  tf.detector = std::make_unique<CombinedDetector>(
      frags, specs, config.combined, rng, /*shard_seed=*/config.seed);
  tf.train_seconds = sw.elapsed_seconds();
  return tf;
}

EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test) {
  EvaluationResult result;
  const std::vector<sig::RawRow> rows = ics::to_raw_rows(test);
  Stopwatch sw;
  CombinedDetector::Stream stream = detector.make_stream();
  for (std::size_t i = 0; i < test.size(); ++i) {
    record(result, test[i], detector.classify_and_consume(stream, rows[i]));
  }
  if (!test.empty()) {
    result.avg_classify_us = sw.elapsed_us() / static_cast<double>(test.size());
  }
  return result;
}

EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test,
                                    const EvalOptions& options) {
  if (options.streams > 1 && test.size() > 1) {
    return evaluate_multistream(detector, test, options);
  }
  return evaluate_framework(detector, test);
}

}  // namespace mlad::detect
