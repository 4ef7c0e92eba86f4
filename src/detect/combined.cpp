#include "detect/combined.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace mlad::detect {
namespace {

void append_rows(std::vector<sig::RawRow>& rows,
                 std::span<const std::vector<sig::RawRow>> fragments) {
  for (const auto& f : fragments) rows.insert(rows.end(), f.begin(), f.end());
}

}  // namespace

CombinedDetector::CombinedDetector(
    std::span<const std::vector<sig::RawRow>> train_fragments,
    std::span<const std::vector<sig::RawRow>> validation_fragments,
    std::span<const sig::FeatureSpec> specs, const CombinedConfig& config,
    Rng& rng, std::span<const std::vector<sig::RawRow>> signature_only_train,
    std::span<const std::vector<sig::RawRow>> signature_only_validation) {
  const CaptureFragments capture[] = {
      {"", train_fragments, validation_fragments, signature_only_train,
       signature_only_validation}};
  train_levels(capture, specs, config, rng, std::nullopt);
}

CombinedDetector::CombinedDetector(std::span<const CaptureFragments> captures,
                                   std::span<const sig::FeatureSpec> specs,
                                   const CombinedConfig& config, Rng& rng,
                                   std::uint64_t shard_seed) {
  train_levels(captures, specs, config, rng, shard_seed);
}

void CombinedDetector::train_levels(std::span<const CaptureFragments> captures,
                                    std::span<const sig::FeatureSpec> specs,
                                    const CombinedConfig& config, Rng& rng,
                                    std::optional<std::uint64_t> shard_seed) {
  // Canonical key order for every pooled structure: the database, Bloom
  // filter, discretizer, and validation sets see the same row sequence no
  // matter how the caller ordered the captures.
  std::vector<std::size_t> order(captures.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return captures[a].key < captures[b].key;
  });
  for (std::size_t i = 0; i + 1 < order.size(); ++i) {
    if (captures[order[i]].key == captures[order[i + 1]].key) {
      throw std::invalid_argument("CombinedDetector: duplicate capture key '" +
                                  captures[order[i]].key + "'");
    }
  }

  std::vector<sig::RawRow> train_rows;
  for (std::size_t ci : order) {
    append_rows(train_rows, captures[ci].train_fragments);
  }
  for (std::size_t ci : order) {
    append_rows(train_rows, captures[ci].signature_only_train);
  }
  package_ = std::make_unique<PackageLevelDetector>(train_rows, specs, rng,
                                                    config.package);

  std::vector<sig::RawRow> validation_rows;
  for (std::size_t ci : order) {
    append_rows(validation_rows, captures[ci].validation_fragments);
  }
  for (std::size_t ci : order) {
    append_rows(validation_rows, captures[ci].signature_only_validation);
  }
  package_validation_error_ = package_->validation_error(validation_rows);

  // Per-capture discretized training fragments back the shards; pooled
  // validation fragments (canonical order) drive the choice of k.
  std::vector<std::vector<DiscreteFragment>> train_disc(captures.size());
  std::vector<CaptureShard> shards;
  shards.reserve(captures.size());
  std::vector<DiscreteFragment> val_disc;
  for (std::size_t ci : order) {
    for (const auto& f : captures[ci].train_fragments) {
      train_disc[ci].push_back(package_->discretizer().transform_all(f));
    }
    shards.push_back({captures[ci].key, train_disc[ci]});
    for (const auto& f : captures[ci].validation_fragments) {
      val_disc.push_back(package_->discretizer().transform_all(f));
    }
  }

  timeseries_ = std::make_unique<TimeSeriesDetector>(
      package_->database(), package_->discretizer().cardinalities(),
      config.timeseries, rng);
  // The only difference between the two training constructors: one capture
  // trains through train() on the caller's rng, several through the
  // sharded engine on per-capture streams derived from shard_seed.
  training_losses_ =
      shard_seed ? timeseries_->train_sharded(shards, *shard_seed)
                 : timeseries_->train(shards.front().fragments, rng);
  timeseries_->choose_k(val_disc);
}

CombinedDetector::CombinedDetector(
    std::unique_ptr<PackageLevelDetector> package,
    std::unique_ptr<TimeSeriesDetector> timeseries)
    : package_(std::move(package)), timeseries_(std::move(timeseries)) {
  if (!package_ || !timeseries_) {
    throw std::invalid_argument("CombinedDetector: null component");
  }
}

CombinedDetector::Stream CombinedDetector::make_stream() const {
  Stream s;
  s.ts = timeseries_->make_stream();
  return s;
}

CombinedVerdict CombinedDetector::classify_and_consume(
    Stream& stream, std::span<const double> raw) const {
  return classify_and_consume(stream, raw, timeseries_->k());
}

CombinedVerdict CombinedDetector::classify_and_consume(Stream& stream,
                                                       std::span<const double> raw,
                                                       std::size_t k) const {
  CombinedVerdict verdict;
  const PackageVerdict pkg = package_->classify(raw);
  if (pkg.anomaly) {
    // Bloom miss: anomalous without consulting the LSTM (Fig. 3).
    verdict.package_level = true;
    verdict.anomaly = true;
  } else {
    verdict.timeseries_level =
        timeseries_->is_anomalous(stream.ts, pkg.signature_id, k);
    verdict.anomaly = verdict.timeseries_level;
  }
  // All packages, normal or anomalous, extend the time-series input; the
  // noisy bit carries the verdict forward.
  timeseries_->consume(stream.ts, pkg.discrete, verdict.anomaly);
  return verdict;
}

}  // namespace mlad::detect
