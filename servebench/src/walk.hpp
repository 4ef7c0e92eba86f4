// The layer walk: a single-threaded replay of a workload's wire through
// the serve path's public per-layer calls, timed call by call, so the
// traced run can split a package's cost by layer:
//
//   LinkMux::push (ics decode) → ics::to_raw_row (ics features)
//     → StreamBatch::step per lockstep tick, split by the
//       StreamBatch::set_stage_timers hook into
//       classify_batch (detect lookup) and predict_batch (nn)
//
// Ticks are composed by the benchmark's lockstep model (lockstep.hpp), so
// every tick holds exactly the rows the single-shard engine's tick holds.
// Decode and feature extraction run as whole-wire passes before the tick
// loop, which keeps clock reads off the per-frame path.
#pragma once

#include <cstdint>
#include <vector>

#include "detect/combined.hpp"
#include "workload.hpp"

namespace mlad::servebench {

struct WalkResult {
  std::uint64_t decode_ns = 0;    ///< LinkMux::push, all frames
  std::uint64_t features_ns = 0;  ///< ics::to_raw_row, all packages
  std::uint64_t step_ns = 0;      ///< StreamBatch::step, all ticks
  std::uint64_t lookup_ns = 0;    ///< classify_batch inside step
  std::uint64_t nn_ns = 0;        ///< predict_batch inside step
  std::uint64_t ticks = 0;
  std::uint64_t rows = 0;            ///< packages stepped
  std::uint64_t package_alarms = 0;  ///< package-level (signature) alarms
  std::vector<std::uint8_t> verdict;  ///< per wire frame, verdict_bits()
  std::uint64_t total_ns() const { return decode_ns + features_ns + step_ns; }
};

/// Walk one session's wire (fresh decode sessions and streams).
WalkResult layer_walk(const detect::CombinedDetector& detector,
                      const Session& session);

/// Multiply-adds ×2 of one row through the model's LSTM layers and softmax
/// classifier (gates' elementwise work excluded).
double model_flops_per_row(const detect::CombinedDetector& detector);

/// A verdict as three bits: anomaly, package level, time-series level.
std::uint8_t verdict_bits(const detect::CombinedVerdict& v);

}  // namespace mlad::servebench
