#include "signature/discretizer.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace mlad::sig {
namespace {

std::vector<double> gather(std::span<const double> raw,
                           std::span<const std::size_t> cols) {
  std::vector<double> v;
  v.reserve(cols.size());
  for (std::size_t c : cols) {
    if (c >= raw.size()) {
      throw std::out_of_range("Discretizer: source column out of range");
    }
    v.push_back(raw[c]);
  }
  return v;
}

}  // namespace

std::uint16_t FittedFeature::transform(std::span<const double> raw) const {
  switch (spec.kind) {
    case FeatureKind::kDiscrete: {
      const double v = raw[spec.source_columns.at(0)];
      const auto it =
          std::lower_bound(observed_values.begin(), observed_values.end(), v);
      if (it != observed_values.end() && *it == v) {
        return static_cast<std::uint16_t>(it - observed_values.begin());
      }
      return out_of_range_id();
    }
    case FeatureKind::kKmeans: {
      const std::vector<double> point = gather(raw, spec.source_columns);
      const std::size_t id = kmeans_assign_or_oor(*kmeans, point);
      return static_cast<std::uint16_t>(id);  // OOR == centroids.size()
    }
    case FeatureKind::kInterval: {
      const double v = raw[spec.source_columns.at(0)];
      if (v < lo || v > hi) return out_of_range_id();
      const std::size_t bins = cardinality - 1;
      const double width = (hi - lo) / static_cast<double>(bins);
      if (width <= 0.0) return 0;
      auto b = static_cast<std::size_t>((v - lo) / width);
      return static_cast<std::uint16_t>(std::min(b, bins - 1));
    }
  }
  throw std::logic_error("FittedFeature::transform: bad kind");
}

Discretizer Discretizer::fit(std::span<const RawRow> rows,
                             std::span<const FeatureSpec> specs, Rng& rng) {
  if (rows.empty()) throw std::invalid_argument("Discretizer::fit: no rows");
  Discretizer d;
  d.features_.reserve(specs.size());
  for (const FeatureSpec& spec : specs) {
    if (spec.source_columns.empty()) {
      throw std::invalid_argument("Discretizer::fit: spec without columns (" +
                                  spec.name + ")");
    }
    FittedFeature f;
    f.spec = spec;
    switch (spec.kind) {
      case FeatureKind::kDiscrete: {
        const std::size_t col = spec.source_columns[0];
        std::vector<double> values;
        values.reserve(rows.size());
        for (const auto& r : rows) values.push_back(r.at(col));
        std::sort(values.begin(), values.end());
        values.erase(std::unique(values.begin(), values.end()), values.end());
        if (values.size() > std::numeric_limits<std::uint16_t>::max() - 1u) {
          throw std::invalid_argument(
              "Discretizer::fit: discrete feature '" + spec.name +
              "' has too many distinct values; declare it continuous");
        }
        f.observed_values = std::move(values);
        f.cardinality = f.observed_values.size() + 1;  // +1 out-of-range
        break;
      }
      case FeatureKind::kKmeans: {
        std::vector<std::vector<double>> points;
        points.reserve(rows.size());
        for (const auto& r : rows) points.push_back(gather(r, spec.source_columns));
        KmeansConfig kc;
        kc.clusters = spec.bins;
        f.kmeans = kmeans_fit(points, kc, rng);
        f.cardinality = f.kmeans->centroids.size() + 1;
        break;
      }
      case FeatureKind::kInterval: {
        const std::size_t col = spec.source_columns[0];
        double lo = std::numeric_limits<double>::max();
        double hi = std::numeric_limits<double>::lowest();
        for (const auto& r : rows) {
          lo = std::min(lo, r.at(col));
          hi = std::max(hi, r.at(col));
        }
        f.lo = lo;
        f.hi = hi;
        if (spec.bins == 0) {
          throw std::invalid_argument("Discretizer::fit: interval bins == 0");
        }
        f.cardinality = spec.bins + 1;
        break;
      }
    }
    d.features_.push_back(std::move(f));
  }
  return d;
}

Discretizer Discretizer::from_features(std::vector<FittedFeature> features) {
  if (features.empty()) {
    throw std::invalid_argument("Discretizer::from_features: empty");
  }
  Discretizer d;
  d.features_ = std::move(features);
  return d;
}

DiscreteRow Discretizer::transform(std::span<const double> raw) const {
  DiscreteRow out;
  out.reserve(features_.size());
  for (const auto& f : features_) out.push_back(f.transform(raw));
  return out;
}

std::vector<DiscreteRow> Discretizer::transform_all(
    std::span<const RawRow> rows) const {
  std::vector<DiscreteRow> out;
  out.reserve(rows.size());
  for (const auto& r : rows) out.push_back(transform(r));
  return out;
}

std::size_t Discretizer::one_hot_dim() const {
  std::size_t n = 0;
  for (const auto& f : features_) n += f.cardinality;
  return n;
}

std::vector<std::size_t> Discretizer::cardinalities() const {
  std::vector<std::size_t> out;
  out.reserve(features_.size());
  for (const auto& f : features_) out.push_back(f.cardinality);
  return out;
}

void one_hot_encode(const DiscreteRow& row,
                    std::span<const std::size_t> cardinalities,
                    std::size_t extra_bits, std::vector<float>& out) {
  if (row.size() != cardinalities.size()) {
    throw std::invalid_argument("one_hot_encode: row/cardinality mismatch");
  }
  std::size_t dim = extra_bits;
  for (std::size_t c : cardinalities) dim += c;
  out.assign(dim, 0.0f);
  std::size_t offset = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] >= cardinalities[i]) {
      throw std::out_of_range("one_hot_encode: id exceeds cardinality");
    }
    out[offset + row[i]] = 1.0f;
    offset += cardinalities[i];
  }
}

void append_one_hot_codes(const DiscreteRow& row,
                          std::span<const std::size_t> cardinalities,
                          bool extra_bit, std::vector<std::uint32_t>& out) {
  if (row.size() != cardinalities.size()) {
    throw std::invalid_argument(
        "append_one_hot_codes: row/cardinality mismatch");
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] >= cardinalities[i]) {
      throw std::out_of_range("append_one_hot_codes: id exceeds cardinality");
    }
    out.push_back(static_cast<std::uint32_t>(offset + row[i]));
    offset += cardinalities[i];
  }
  if (extra_bit) out.push_back(static_cast<std::uint32_t>(offset));
}

}  // namespace mlad::sig
