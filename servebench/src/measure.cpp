#include "measure.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <stdexcept>

namespace mlad::servebench {
namespace {

constexpr double kLadder[] = {0.5, 0.9, 0.99, 0.999, 0.9999};

/// 1-based nearest rank of quantile q in a sample of n >= 1. The epsilon
/// keeps q·n = 99.000…01 from rounding up a whole rank.
std::size_t rank_of(std::size_t n, double q) {
  if (q <= 0.0) return 1;
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(r), 1, n);
}

}  // namespace

double quantile_sorted(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("quantile of no samples");
  return sorted[rank_of(sorted.size(), q) - 1];
}

std::size_t samples_beyond(std::size_t n, double q) {
  return n == 0 ? 0 : n - rank_of(n, q);
}

double highest_resolved_quantile(std::size_t n, std::size_t min_beyond) {
  double best = 0.0;
  for (const double q : kLadder) {
    if (samples_beyond(n, q) >= min_beyond) best = q;
  }
  return best;
}

Summary summarize(std::vector<double>& values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = quantile_sorted(values, 0.5);
  s.p99 = quantile_sorted(values, 0.99);
  s.top_q = highest_resolved_quantile(s.n);
  s.top = quantile_sorted(values, s.top_q);
  return s;
}

std::uint64_t self_time_ns(std::span<const Span> parents,
                           std::span<const Span> children) {
  // Merge the children into disjoint intervals first, so overlapping
  // children are not subtracted twice.
  std::vector<Span> merged;
  for (const Span& c : children) {
    if (c.end <= c.begin) continue;
    if (!merged.empty() && c.begin <= merged.back().end) {
      merged.back().end = std::max(merged.back().end, c.end);
    } else {
      merged.push_back(c);
    }
  }
  std::uint64_t total = 0;
  std::size_t k = 0;
  for (const Span& p : parents) {
    if (p.end <= p.begin) continue;
    while (k < merged.size() && merged[k].end <= p.begin) ++k;
    std::uint64_t covered = 0;
    for (std::size_t m = k; m < merged.size() && merged[m].begin < p.end;
         ++m) {
      covered += std::min(merged[m].end, p.end) -
                 std::max(merged[m].begin, p.begin);
    }
    total += (p.end - p.begin) - covered;
  }
  return total;
}

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double heap_in_use_mb() {
#ifdef __GLIBC__
  const struct mallinfo2 mi = mallinfo2();
  return static_cast<double>(mi.uordblks + mi.hblkhd) / (1024.0 * 1024.0);
#else
  return 0.0;
#endif
}

bool self_test(std::string& why) {
  const auto fail = [&](const char* what) {
    why = what;
    return false;
  };
  std::vector<double> hundred(100);
  std::iota(hundred.begin(), hundred.end(), 1.0);
  if (quantile_sorted(hundred, 0.5) != 50.0) return fail("p50 of 1..100");
  if (quantile_sorted(hundred, 0.99) != 99.0) return fail("p99 of 1..100");
  if (quantile_sorted(hundred, 0.0) != 1.0) return fail("p0 of 1..100");
  if (quantile_sorted(hundred, 1.0) != 100.0) return fail("p100 of 1..100");
  if (samples_beyond(1000, 0.99) != 10) return fail("beyond p99 of 1000");
  if (samples_beyond(999, 0.99) != 9) return fail("beyond p99 of 999");
  if (highest_resolved_quantile(15) != 0.0) return fail("top q of 15");
  if (highest_resolved_quantile(20) != 0.5) return fail("top q of 20");
  if (highest_resolved_quantile(1000) != 0.99) return fail("top q of 1000");
  if (highest_resolved_quantile(10000) != 0.999) return fail("top q of 1e4");
  if (highest_resolved_quantile(100000) != 0.9999) {
    return fail("top q of 1e5");
  }

  // 1..1000 in a scrambled order: summarize must sort before ranking.
  std::vector<double> thousand(1000);
  for (std::size_t i = 0; i < thousand.size(); ++i) {
    thousand[i] = static_cast<double>((i * 617) % 1000 + 1);
  }
  const Summary s = summarize(thousand);
  if (s.n != 1000 || s.p50 != 500.0 || s.p99 != 990.0 || s.top_q != 0.99 ||
      s.top != 990.0 || !s.p99_resolved()) {
    return fail("summary of a permuted 1..1000");
  }

  // Parents [0,100) and [200,300); children overlap each other, straddle a
  // parent's end, sit between parents, and nest: covered time is 30 in the
  // first parent ([10,30) and [90,100)) and 10 in the second.
  const Span parents[] = {{0, 100}, {200, 300}};
  const Span children[] = {
      {10, 20}, {15, 30}, {90, 120}, {150, 160}, {250, 260}};
  if (self_time_ns(parents, children) != 160) return fail("span self time");
  if (self_time_ns(parents, {}) != 200) return fail("self time, no children");
  return true;
}

}  // namespace mlad::servebench
