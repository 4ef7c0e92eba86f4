// The combined two-level framework (§VI, Fig. 3).
//
// A package is first checked by the Bloom-filter package-level detector; a
// miss is immediately an anomaly (its signature is not even in the
// database, so the time-series level would reject it anyway). Packages that
// pass go to the LSTM top-k test. Every package — whatever the verdict — is
// fed into the time-series history with its noisy bit set to the verdict,
// so later classifications condition on it (§V-A-3 detection-phase rule).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "detect/package_detector.hpp"
#include "detect/timeseries_detector.hpp"

namespace mlad::detect {

struct CombinedConfig {
  PackageDetectorConfig package;
  TimeSeriesConfig timeseries;
};

/// One capture's raw-feature fragment sets for multi-capture training.
/// `key` is the capture's stable identity (e.g. its file path); all pooling
/// and sharding happens in ascending key order, so the trained framework is
/// independent of the order the captures are listed in.
struct CaptureFragments {
  std::string key;
  std::span<const std::vector<sig::RawRow>> train_fragments;
  std::span<const std::vector<sig::RawRow>> validation_fragments;
  std::span<const std::vector<sig::RawRow>> signature_only_train = {};
  std::span<const std::vector<sig::RawRow>> signature_only_validation = {};
};

/// Per-package classification outcome with level attribution.
struct CombinedVerdict {
  bool anomaly = false;
  bool package_level = false;     ///< raised by the Bloom stage
  bool timeseries_level = false;  ///< raised by the LSTM stage
};

class CombinedDetector {
 public:
  /// Train both levels. `train_fragments` / `validation_fragments` are
  /// anomaly-free raw-feature fragments (see ics::fragment_rows); the
  /// validation set drives the choice of k. `signature_only_train` /
  /// `signature_only_validation` are normal runs too short for BPTT (the
  /// paper's <10-package leftovers); they feed the signature database and
  /// the package-level validation error, but not the LSTM.
  CombinedDetector(
      std::span<const std::vector<sig::RawRow>> train_fragments,
      std::span<const std::vector<sig::RawRow>> validation_fragments,
      std::span<const sig::FeatureSpec> specs, const CombinedConfig& config,
      Rng& rng,
      std::span<const std::vector<sig::RawRow>> signature_only_train = {},
      std::span<const std::vector<sig::RawRow>> signature_only_validation = {});

  /// Multi-capture training (DESIGN.md §11): one signature database /
  /// discretizer / Bloom filter over ALL captures' pooled training rows,
  /// then LSTM training sharded across the captures — each optimizer step
  /// consumes one round of per-capture gradient lanes
  /// (TimeSeriesDetector::train_sharded, seeded from `shard_seed`). k is
  /// chosen on the pooled validation fragments. Results are bit-identical
  /// for any thread count and any capture listing order; duplicate keys
  /// throw std::invalid_argument.
  CombinedDetector(std::span<const CaptureFragments> captures,
                   std::span<const sig::FeatureSpec> specs,
                   const CombinedConfig& config, Rng& rng,
                   std::uint64_t shard_seed);

  /// Reassemble from persisted components (see detect/serialize.hpp). The
  /// time-series detector must reference `package->database()`.
  CombinedDetector(std::unique_ptr<PackageLevelDetector> package,
                   std::unique_ptr<TimeSeriesDetector> timeseries);

  /// Rolling state over one monitored stream.
  struct Stream {
    TimeSeriesDetector::Stream ts;
  };

  Stream make_stream() const;

  /// Classify one package and absorb it into the history (Fig. 3 flow).
  CombinedVerdict classify_and_consume(Stream& stream,
                                       std::span<const double> raw) const;

  /// Same flow but with an explicit per-call k for the time-series stage
  /// (used by the dynamic-k extension, detect/dynamic_k.hpp).
  CombinedVerdict classify_and_consume(Stream& stream,
                                       std::span<const double> raw,
                                       std::size_t k) const;

  const PackageLevelDetector& package_level() const { return *package_; }
  /// Mutable access for serve-time wiring (attach_sigdb) — the trained
  /// state itself is never mutated through this.
  PackageLevelDetector& package_level() { return *package_; }
  const TimeSeriesDetector& timeseries_level() const { return *timeseries_; }
  TimeSeriesDetector& timeseries_level() { return *timeseries_; }

  std::size_t chosen_k() const { return timeseries_->k(); }
  /// Validation error of the package level measured during training.
  double package_validation_error() const { return package_validation_error_; }
  /// Per-epoch LSTM training losses.
  const std::vector<double>& training_losses() const { return training_losses_; }
  /// Combined model footprint (Bloom + discretizer + LSTM parameters).
  std::size_t memory_bytes() const {
    return package_->memory_bytes() + timeseries_->memory_bytes();
  }

 private:
  /// The one training body of both training constructors: pool the
  /// captures' rows in key order for the package level, discretize, train
  /// the LSTM — train_sharded(*shard_seed) when a seed is given, else
  /// train() on the one capture with `rng` — and choose k.
  void train_levels(std::span<const CaptureFragments> captures,
                    std::span<const sig::FeatureSpec> specs,
                    const CombinedConfig& config, Rng& rng,
                    std::optional<std::uint64_t> shard_seed);

  std::unique_ptr<PackageLevelDetector> package_;
  std::unique_ptr<TimeSeriesDetector> timeseries_;
  std::vector<double> training_losses_;
  double package_validation_error_ = 0.0;
};

}  // namespace mlad::detect
