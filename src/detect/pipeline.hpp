// End-to-end experiment pipeline: simulate (or load) a capture, apply the
// paper's 6:2:2 split, train the combined framework, and evaluate on the
// test stream. The bench binaries and examples are thin wrappers over this.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "detect/combined.hpp"
#include "detect/metrics.hpp"
#include "ics/dataset.hpp"

namespace mlad::detect {

struct PipelineConfig {
  ics::SplitConfig split;
  CombinedConfig combined;
  /// Discretization strategy (Table III defaults when empty).
  std::vector<sig::FeatureSpec> specs;
  std::uint64_t seed = 7;
};

/// Everything produced by training the framework on a capture.
struct TrainedFramework {
  std::unique_ptr<CombinedDetector> detector;
  ics::DatasetSplit split;
  double train_seconds = 0.0;
};

/// Evaluation over a labeled test stream.
struct EvaluationResult {
  Confusion confusion;
  PerAttackRecall per_attack;
  /// How many anomalies each level raised.
  std::size_t package_level_alarms = 0;
  std::size_t timeseries_level_alarms = 0;
  double avg_classify_us = 0.0;  ///< paper §VIII-A2 reports ~30 µs
};

/// Split the capture and train the combined framework.
TrainedFramework train_framework(std::span<const ics::Package> capture,
                                 const PipelineConfig& config);

/// One named capture for multi-capture training. `key` must be unique (e.g.
/// the capture's file path); it fixes the canonical shard order and seeds
/// the capture's private Rng stream, so training is independent of listing
/// order (DESIGN.md §11).
struct CaptureInput {
  std::string key;
  std::span<const ics::Package> packages;
};

/// Everything produced by multi-capture training: one shared detector plus
/// every capture's own 6:2:2 split (same order as the inputs).
struct MultiTrainedFramework {
  std::unique_ptr<CombinedDetector> detector;
  std::vector<ics::DatasetSplit> splits;
  double train_seconds = 0.0;
};

/// Split every capture with the same SplitConfig and train ONE framework
/// over all of them: pooled signature database / Bloom / discretizer, LSTM
/// epochs sharded across the captures with per-capture gradient lanes
/// (CombinedDetector's multi-capture constructor). Bit-identical for any
/// thread count and capture order; throws on duplicate keys.
MultiTrainedFramework train_framework(std::span<const CaptureInput> captures,
                                      const PipelineConfig& config);

/// Stream the test split through the detector and score it (one sequential
/// stream end-to-end — the reference semantics).
EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test);

/// Batched multi-stream evaluation (DESIGN.md §4, detect/stream_batch.hpp).
/// With `streams` > 1 the test stream is cut into `streams` contiguous
/// near-equal segments advanced in lockstep, one (S×dim) LSTM step per
/// layer per tick; each segment starts with fresh history, so metrics can
/// differ slightly from the single-stream evaluator near segment starts.
/// Segment boundaries depend on `streams` and the stream length alone, and
/// `threads` only partitions kernel rows, so metrics are bit-identical for
/// any thread count. `streams` <= 1 is the exact single-stream evaluator.
struct EvalOptions {
  std::size_t threads = 1;  ///< 0 = hardware concurrency, 1 = sequential
  std::size_t streams = 1;
};

EvaluationResult evaluate_framework(const CombinedDetector& detector,
                                    std::span<const ics::Package> test,
                                    const EvalOptions& options);

/// Convenience: raw-feature fragments of a split (package → numeric rows).
std::vector<std::vector<sig::RawRow>> fragment_raw_rows(
    std::span<const ics::PackageFragment> fragments);

}  // namespace mlad::detect
