// Per-package reference monitor (DESIGN.md §8): the oracle the batched
// MonitorEngine is tested against. Every link gets its own LinkMux decode
// session and CombinedDetector::Stream, and each package is classified the
// moment it arrives with one classify_and_consume — the
// pre-engine `mlad monitor` loop, "N sequential monitors" on a merged wire.
// Its verdicts match the batched engine to float rounding, not bitwise
// (DESIGN.md §5): the batched kernels sum in a different order.
#pragma once

#include <map>
#include <span>

#include "common/stopwatch.hpp"
#include "detect/combined.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "serve/alarm_sink.hpp"
#include "serve/monitor_engine.hpp"

namespace mlad::serve {

/// Classify `wire` package by package and deliver alarms to `sink` (may be
/// null) with the engine's AlarmEvent fields and per-link seq numbers.
/// The returned stats fill frames, packages, the alarm counters,
/// decode_failures, links_seen and classify_us; ticks stay 0.
inline EngineStats reference_replay(const detect::CombinedDetector& detector,
                                    std::span<const ics::LinkFrame> wire,
                                    AlarmSink* sink = nullptr) {
  struct Link {
    detect::CombinedDetector::Stream stream;
    std::uint64_t seq = 0;
  };
  ics::LinkMux mux;
  std::map<ics::LinkId, Link> links;
  EngineStats stats;
  for (const ics::LinkFrame& lf : wire) {
    const ics::LinkMux::Demuxed d = mux.push(lf.link, lf.frame);
    const auto [it, fresh] = links.try_emplace(d.link);
    if (fresh) {
      it->second.stream = detector.make_stream();
      ++stats.links_seen;
    }
    const ics::Package& p = d.decoded.package;
    const sig::RawRow row = ics::to_raw_row(p, d.interval);
    const Stopwatch sw;
    const detect::CombinedVerdict verdict =
        detector.classify_and_consume(it->second.stream, row);
    stats.classify_us += sw.elapsed_us();

    ++stats.frames;
    ++stats.packages;
    const std::uint64_t seq = it->second.seq++;
    if (!d.decoded.decode_ok) ++stats.decode_failures;
    if (!verdict.anomaly) continue;
    ++stats.alarms;
    if (verdict.package_level) ++stats.package_level_alarms;
    if (verdict.timeseries_level) ++stats.timeseries_level_alarms;
    if (sink == nullptr) continue;
    AlarmEvent event;
    event.link = d.link;
    event.seq = seq;
    event.time = p.time;
    event.verdict = verdict;
    event.address = p.address;
    event.function = p.function;
    event.length = static_cast<std::uint16_t>(lf.frame.bytes.size());
    event.decode_ok = d.decoded.decode_ok;
    sink->on_alarm(event);
  }
  return stats;
}

}  // namespace mlad::serve
