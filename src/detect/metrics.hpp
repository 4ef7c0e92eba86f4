// Detection quality metrics (§VIII-B): precision, recall, accuracy, F1 from
// a confusion count, plus per-attack-type recall (Table V).
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "ics/attack.hpp"

namespace mlad::detect {

/// Binary confusion counts. "Positive" = anomalous.
struct Confusion {
  std::size_t tp = 0;
  std::size_t tn = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;

  void record(bool actual_anomaly, bool predicted_anomaly);

  std::size_t total() const { return tp + tn + fp + fn; }
  /// TP/(TP+FP); 0 when undefined.
  double precision() const;
  /// TP/(TP+FN); 0 when undefined.
  double recall() const;
  /// (TP+TN)/total; 0 when empty.
  double accuracy() const;
  /// Harmonic mean of precision and recall; 0 when undefined.
  double f1() const;
  /// FP/(FP+TN); 0 when undefined.
  double false_positive_rate() const;

  Confusion& operator+=(const Confusion& other);
};

/// Recall broken down by Table-II attack type.
struct PerAttackRecall {
  /// detected[type] / total[type]; indices follow AttackType.
  std::array<std::size_t, ics::kAttackTypeCount> detected{};
  std::array<std::size_t, ics::kAttackTypeCount> total{};

  void record(ics::AttackType type, bool predicted_anomaly);
  /// Detected ratio for one attack type; 0 when the type is absent.
  double ratio(ics::AttackType type) const;
};

/// Render "P=0.94 R=0.78 Acc=0.92 F1=0.85" for logs.
std::string to_string(const Confusion& c);

}  // namespace mlad::detect
