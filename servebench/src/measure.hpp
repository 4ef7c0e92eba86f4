// The benchmark's own arithmetic: clocks, order statistics, span self
// time, and process CPU / memory readings. Every function here is covered
// by self_test(), which each run executes before measuring anything.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace mlad::servebench {

/// Monotonic nanoseconds, comparable across threads.
inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Nearest-rank quantile of an ascending sample: the value of rank
/// ceil(q·n) (1-based; q = 0 gives the minimum). Throws on an empty sample.
double quantile_sorted(std::span<const double> sorted, double q);

/// The highest quantile of {0.5, 0.9, 0.99, 0.999, 0.9999} that leaves at
/// least `min_beyond` samples above its rank in a sample of n; 0 when even
/// the median does not.
double highest_resolved_quantile(std::size_t n, std::size_t min_beyond = 10);

/// Samples strictly above the nearest rank of quantile q in a sample of n.
std::size_t samples_beyond(std::size_t n, double q);

/// A latency sample summarized for reporting: median, p99, and the highest
/// quantile the sample resolves.
struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double top_q = 0.0;  ///< highest_resolved_quantile(n)
  double top = 0.0;    ///< the value at top_q
  /// True when p99 has at least 10 samples beyond it.
  bool p99_resolved() const { return samples_beyond(n, 0.99) >= 10; }
};
/// Sorts `values` in place.
Summary summarize(std::vector<double>& values);

/// [begin, end) in now_ns() time.
struct Span {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Total self time of `parents`: their summed durations minus the union of
/// the parts of `children` that fall inside them. Both lists must be sorted
/// by begin; parents must not overlap each other (one thread's calls).
std::uint64_t self_time_ns(std::span<const Span> parents,
                           std::span<const Span> children);

/// User + system CPU seconds of the whole process (every thread).
double process_cpu_seconds();
/// Heap bytes in use (all malloc arenas plus mmapped blocks), in MiB.
double heap_in_use_mb();

/// Checks the functions above against hand-computed answers. Returns false
/// and says why on the first mismatch.
bool self_test(std::string& why);

}  // namespace mlad::servebench
