// Serve engine (serve/monitor_engine.hpp): the multi-link refactor's
// contracts. (a) The per-package reference oracle (tests/support) on one
// link is bit-identical to the historical monitor loop, and the batched
// engine tracks it to float rounding. (b) The batched engine on a merged
// wire reproduces each link's ISOLATED verdict sequence exactly — streams
// are independent rows, so batching is a pure throughput optimization.
// (c) Links join and leave mid-run without disturbing anyone else.
// (d) Thread count changes nothing but wall time.
#include <gtest/gtest.h>

#include <optional>
#include <span>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "ics/simulator.hpp"
#include "reference_monitor.hpp"
#include "serve/monitor_engine.hpp"

namespace mlad::serve {
namespace {

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;  ///< three live wires, varied lengths

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1500;
    sim_cfg.seed = 321;
    ics::GasPipelineSimulator sim(sim_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = detect::train_framework(train_capture.packages, cfg);

    const std::size_t cycles[] = {400, 300, 220};
    for (std::size_t i = 0; i < std::size(cycles); ++i) {
      ics::SimulatorConfig live_cfg = sim_cfg;
      live_cfg.cycles = cycles[i];
      live_cfg.seed = 1000 + i;
      ics::GasPipelineSimulator live(live_cfg);
      const ics::SimulationResult result = live.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      captures.push_back(std::move(capture));
    }
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// (seq, stage, time) triple — enough to compare full verdict sequences:
/// two runs with equal package counts and equal alarm lists have equal
/// verdicts everywhere (non-alarms are the complement).
struct AlarmKey {
  std::uint64_t seq;
  bool bloom;
  double time;

  bool operator==(const AlarmKey&) const = default;
};

std::vector<AlarmKey> keys(const std::vector<AlarmEvent>& events,
                           std::optional<ics::LinkId> link = std::nullopt) {
  std::vector<AlarmKey> out;
  for (const AlarmEvent& e : events) {
    if (link && e.link != *link) continue;
    out.push_back({e.seq, e.verdict.package_level, e.time});
  }
  return out;
}

TEST(MonitorEngine, ReferenceReplayMatchesManualMonitorLoop) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& capture = f.captures[0];

  // The pre-engine `mlad monitor` loop, verbatim.
  ics::FrameDecoder decoder;
  auto stream = det.make_stream();
  std::vector<AlarmKey> want;
  std::optional<double> prev_time;
  std::uint64_t seq = 0;
  for (const ics::RawFrame& frame : capture) {
    const auto decoded = decoder.next(frame);
    const double interval =
        prev_time ? decoded.package.time - *prev_time : 0.0;
    prev_time = decoded.package.time;
    const auto row = ics::to_raw_row(decoded.package, interval);
    const auto verdict = det.classify_and_consume(stream, row);
    if (verdict.anomaly) {
      want.push_back({seq, verdict.package_level, decoded.package.time});
    }
    ++seq;
  }

  CountingAlarmSink sink;
  const std::vector<ics::Capture> one = {capture};
  const EngineStats stats =
      reference_replay(det, ics::merge_captures(one), &sink);

  EXPECT_EQ(stats.packages, capture.size());
  EXPECT_EQ(keys(sink.events()), want)
      << "reference oracle diverged from the historical monitor loop";
}

TEST(MonitorEngine, MergedWireReproducesIsolatedVerdictsExactly) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Isolated: each capture monitored alone through the batched engine.
  std::vector<std::vector<AlarmKey>> isolated;
  std::vector<std::uint64_t> isolated_packages;
  for (const ics::Capture& capture : f.captures) {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : capture) engine.push(0, frame);
    engine.finish();
    isolated.push_back(keys(sink.events()));
    isolated_packages.push_back(engine.stats().packages);
  }

  // Merged: all three captures interleaved on one wire. The shortest
  // capture drains first (leave mid-run), so later ticks run with fewer
  // streams — verdicts must not move.
  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  engine.replay(ics::merge_captures(f.captures));

  const auto per_link = engine.link_stats();
  ASSERT_EQ(per_link.size(), f.captures.size());
  for (std::size_t i = 0; i < f.captures.size(); ++i) {
    EXPECT_EQ(per_link[i].second.packages, isolated_packages[i]);
    EXPECT_EQ(keys(sink.events(), static_cast<ics::LinkId>(i)), isolated[i])
        << "link " << i << " verdicts changed when monitored alongside "
        << "other links";
  }
  EXPECT_EQ(engine.stats().links_retired, f.captures.size());
  EXPECT_EQ(engine.stats().peak_links, f.captures.size());
}

TEST(MonitorEngine, LateJoinReproducesIsolatedVerdicts) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Shift capture 2 to start after capture 0 is half done: on the merged
  // wire it JOINS mid-run (batch grows 1 → 2 while ticking). The shift only
  // changes absolute timestamps; inter-arrival gaps — the actual feature —
  // are untouched except the first frame's, which is 0 either way.
  ics::Capture shifted = f.captures[2];
  const double offset = f.captures[0][f.captures[0].size() / 2].timestamp;
  for (ics::RawFrame& frame : shifted) frame.timestamp += offset;

  const auto isolated_run = [&](const ics::Capture& capture) {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (const ics::RawFrame& frame : capture) engine.push(0, frame);
    engine.finish();
    return keys(sink.events());
  };
  // Times differ by the shift, so compare (seq, stage) only.
  const auto strip_time = [](std::vector<AlarmKey> ks) {
    for (AlarmKey& k : ks) k.time = 0.0;
    return ks;
  };
  const auto want0 = isolated_run(f.captures[0]);
  const auto want2 = strip_time(isolated_run(f.captures[2]));

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const std::vector<ics::Capture> pair = {f.captures[0], shifted};
  engine.replay(ics::merge_captures(pair));

  EXPECT_EQ(keys(sink.events(), 0u), want0);
  EXPECT_EQ(strip_time(keys(sink.events(), 1u)), want2)
      << "a late-joining link's verdicts differ from its isolated run";
  EXPECT_EQ(engine.stats().links_seen, 2u);
}

TEST(MonitorEngine, ThreadCountChangesNothingButWallTime) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  const auto run = [&](std::size_t threads) {
    CountingAlarmSink sink;
    MonitorEngineConfig cfg;
    cfg.threads = threads;
    MonitorEngine engine(det, &sink, cfg);
    engine.replay(ics::merge_captures(f.captures));
    return std::make_pair(keys(sink.events()), engine.stats());
  };
  const auto [alarms1, stats1] = run(1);
  const auto [alarms4, stats4] = run(4);
  EXPECT_EQ(alarms1, alarms4);
  EXPECT_EQ(stats1.packages, stats4.packages);
  EXPECT_EQ(stats1.alarms, stats4.alarms);
  EXPECT_EQ(stats1.ticks, stats4.ticks);
  EXPECT_EQ(stats1.package_level_alarms, stats4.package_level_alarms);
  EXPECT_EQ(stats1.timeseries_level_alarms, stats4.timeseries_level_alarms);
}

TEST(MonitorEngine, BatchedTracksReferenceReplay) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // One link (the `mlad monitor` shape) and the merged three-link wire.
  const std::vector<ics::Capture> single = {f.captures[0]};
  for (const std::vector<ics::Capture>* captures : {&single, &f.captures}) {
    const std::vector<ics::LinkFrame> wire = ics::merge_captures(*captures);
    CountingAlarmSink batched_sink;
    MonitorEngine engine(det, &batched_sink);
    engine.replay(wire);
    CountingAlarmSink ref_sink;
    const EngineStats ref = reference_replay(det, wire, &ref_sink);

    EXPECT_EQ(engine.stats().packages, ref.packages);
    EXPECT_EQ(engine.stats().links_seen, ref.links_seen);
    // Batched kernels round differently from the per-sample reference, so
    // verdicts agree to rounding, not bitwise (DESIGN.md §5).
    const double slack = 5.0 + 0.01 * static_cast<double>(ref.alarms);
    EXPECT_NEAR(static_cast<double>(batched_sink.count()),
                static_cast<double>(ref_sink.count()), slack)
        << captures->size() << "-link wire";
    EXPECT_EQ(ref_sink.count(), ref.alarms);
  }
}

TEST(MonitorEngine, AddressKeyedPushDemuxesMultiDropLine) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // A wire carrying two unit addresses: address-keyed push must open one
  // link per address (ids = the addresses themselves).
  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const ics::Capture& capture = f.captures[0];
  for (std::size_t i = 0; i < 200 && i < capture.size(); ++i) {
    engine.push(capture[i]);
  }
  engine.finish();
  EXPECT_EQ(engine.stats().packages,
            std::min<std::size_t>(200, capture.size()));
  // The simulator's legitimate station is address 4; reconnaissance scans
  // touch others, so at least that link must exist.
  bool saw_station = false;
  for (const auto& [id, ls] : engine.link_stats()) {
    saw_station |= id == 4 && ls.packages > 0;
  }
  EXPECT_TRUE(saw_station);
}

TEST(MonitorEngine, CloseThenRejoinStartsAFreshStream) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& capture = f.captures[1];

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  const std::size_t half = capture.size() / 2;
  for (std::size_t i = 0; i < half; ++i) engine.push(7, capture[i]);
  engine.close(7);
  EXPECT_EQ(engine.active_links(), 0u);
  EXPECT_EQ(engine.stats().links_retired, 1u);
  for (std::size_t i = half; i < capture.size(); ++i) {
    engine.push(7, capture[i]);
  }
  engine.finish();
  EXPECT_EQ(engine.stats().links_seen, 2u) << "rejoin must open a new stream";
  EXPECT_EQ(engine.stats().links_retired, 2u);
  EXPECT_EQ(engine.stats().packages, capture.size());
  // Idempotent / unknown closes are no-ops.
  engine.close(7);
  engine.close(999);
  engine.finish();
}

TEST(MonitorEngine, ParkEscalatesToCloseAndExplicitCloseRetiresParked) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];

  // park_after_ms < close_after_ms: a permanently dead link is first
  // parked (state kept for a possible rejoin), then RETIRED once its total
  // silence reaches close_after_ms — it must not hold its snapshot
  // forever. Each push of link 0 is followed by 10 ms on the clock.
  constexpr double kStepMs = 10.0;
  {
    MonitorEngineConfig cfg;
    cfg.park_after_ms = 40.0;
    cfg.close_after_ms = 200.0;
    MonitorEngine engine(det, nullptr, cfg);
    for (std::size_t i = 0; i < 16 && i < b.size(); ++i) {
      engine.push(1, b[i]);
    }
    for (std::size_t i = 0; i < 200; ++i) {  // b silent
      engine.push(0, a[i]);
      engine.advance_clock(kStepMs);
    }
    EXPECT_EQ(engine.stats().links_parked, 1u);
    EXPECT_EQ(engine.stats().links_retired, 1u)
        << "parked link was not escalated to close";
    // A frame after the escalation opens a FRESH stream.
    engine.push(1, b[16]);
    EXPECT_EQ(engine.stats().links_seen, 3u);
    engine.finish();
  }

  // An explicit close() of a parked link retires it immediately.
  {
    MonitorEngineConfig cfg;
    cfg.park_after_ms = 40.0;
    MonitorEngine engine(det, nullptr, cfg);
    for (std::size_t i = 0; i < 16 && i < b.size(); ++i) {
      engine.push(1, b[i]);
    }
    for (std::size_t i = 0; i < 40; ++i) {  // parks b
      engine.push(0, a[i]);
      engine.advance_clock(kStepMs);
    }
    EXPECT_EQ(engine.stats().links_parked, 1u);
    EXPECT_EQ(engine.stats().links_retired, 0u);
    engine.close(1);
    EXPECT_EQ(engine.stats().links_retired, 1u)
        << "close() was a silent no-op on a parked link";
    engine.close(1);  // idempotent
    EXPECT_EQ(engine.stats().links_retired, 1u);
    engine.finish();
  }
}

TEST(MonitorEngine, CloseAfterRetiresAStalledLinkToAFreshStream) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[2];
  const std::size_t half = b.size() / 2;

  // The closed link's post-gap traffic must classify exactly like a brand
  // new stream over just those frames.
  const auto fresh_tail = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(det, &sink);
    for (std::size_t i = half; i < b.size(); ++i) engine.push(1, b[i]);
    engine.finish();
    return keys(sink.events());
  }();

  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.close_after_ms = 50.0;
  constexpr double kStepMs = 10.0;  // clock time per wire step
  MonitorEngine engine(det, &sink, cfg);
  std::size_t bi = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    engine.push(0, a[i]);
    // b sends its first half early, stalls for a long stretch, then sends
    // the rest.
    const bool b_active = i < half || i >= a.size() - (b.size() - half);
    if (b_active && bi < b.size()) engine.push(1, b[bi++]);
    engine.advance_clock(kStepMs);
  }
  while (bi < b.size()) engine.push(1, b[bi++]);
  engine.finish();

  EXPECT_LE(engine.stats().peak_pending, cfg.close_after_ms / kStepMs + 1);
  EXPECT_EQ(engine.stats().links_parked, 0u);
  EXPECT_EQ(engine.stats().links_seen, 3u)
      << "the closed link must have rejoined as a fresh stream";
  EXPECT_EQ(engine.stats().packages, a.size() + b.size());

  // Post-close alarms track the fresh-stream run. Not bitwise: the
  // per-link decode session (CRC window, inter-arrival clock) survives a
  // close by design, so the rejoining package's Table-I features differ
  // from a fresh session's (whose first interval is 0) and that one input
  // perturbs the LSTM history — compare alarm volume with slack, like
  // BatchedTracksReferenceReplay.
  std::size_t tail_alarms = 0;
  for (const AlarmKey& k : keys(sink.events(), 1u)) {
    tail_alarms += k.seq >= half ? 1 : 0;
  }
  const double slack =
      5.0 + 0.05 * static_cast<double>(fresh_tail.size());
  EXPECT_NEAR(static_cast<double>(tail_alarms),
              static_cast<double>(fresh_tail.size()), slack)
      << "post-close alarm volume diverged from a fresh stream's";
}

TEST(MonitorEngine, StatsAddUp) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  CountingAlarmSink sink;
  MonitorEngine engine(det, &sink);
  engine.replay(ics::merge_captures(f.captures));
  const EngineStats& s = engine.stats();

  std::size_t total_frames = 0;
  for (const auto& c : f.captures) total_frames += c.size();
  EXPECT_EQ(s.frames, total_frames);
  EXPECT_EQ(s.packages, total_frames);  // fully drained
  EXPECT_EQ(s.alarms, sink.count());
  EXPECT_EQ(s.alarms, s.package_level_alarms + s.timeseries_level_alarms);
  EXPECT_GE(s.ticks, 1u);
  EXPECT_GE(s.mean_batch(), 1.0);
  EXPECT_LE(s.mean_batch(), static_cast<double>(f.captures.size()));

  std::uint64_t link_packages = 0, link_alarms = 0;
  for (const auto& [id, ls] : engine.link_stats()) {
    link_packages += ls.packages;
    link_alarms += ls.alarms;
  }
  EXPECT_EQ(link_packages, s.packages);
  EXPECT_EQ(link_alarms, s.alarms);
}

}  // namespace
}  // namespace mlad::serve
