#include "detect/metrics.hpp"

#include <cstdio>

namespace mlad::detect {

void Confusion::record(bool actual_anomaly, bool predicted_anomaly) {
  if (actual_anomaly) {
    predicted_anomaly ? ++tp : ++fn;
  } else {
    predicted_anomaly ? ++fp : ++tn;
  }
}

double Confusion::precision() const {
  const std::size_t denom = tp + fp;
  return denom ? static_cast<double>(tp) / static_cast<double>(denom) : 0.0;
}

double Confusion::recall() const {
  const std::size_t denom = tp + fn;
  return denom ? static_cast<double>(tp) / static_cast<double>(denom) : 0.0;
}

double Confusion::accuracy() const {
  const std::size_t denom = total();
  return denom ? static_cast<double>(tp + tn) / static_cast<double>(denom) : 0.0;
}

double Confusion::f1() const {
  const double p = precision();
  const double r = recall();
  return (p + r) > 0.0 ? 2.0 * p * r / (p + r) : 0.0;
}

double Confusion::false_positive_rate() const {
  const std::size_t denom = fp + tn;
  return denom ? static_cast<double>(fp) / static_cast<double>(denom) : 0.0;
}

Confusion& Confusion::operator+=(const Confusion& other) {
  tp += other.tp;
  tn += other.tn;
  fp += other.fp;
  fn += other.fn;
  return *this;
}

void PerAttackRecall::record(ics::AttackType type, bool predicted_anomaly) {
  const auto i = static_cast<std::size_t>(type);
  ++total[i];
  if (predicted_anomaly) ++detected[i];
}

double PerAttackRecall::ratio(ics::AttackType type) const {
  const auto i = static_cast<std::size_t>(type);
  return total[i] ? static_cast<double>(detected[i]) /
                        static_cast<double>(total[i])
                  : 0.0;
}

std::string to_string(const Confusion& c) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "P=%.2f R=%.2f Acc=%.2f F1=%.2f",
                c.precision(), c.recall(), c.accuracy(), c.f1());
  return buf;
}

}  // namespace mlad::detect
