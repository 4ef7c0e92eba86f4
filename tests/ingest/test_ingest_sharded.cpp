// Sharded serve path (serve/sharded_engine.hpp, DESIGN.md §10). The load-
// bearing contract: for ANY shard count, every link's verdict sequence is
// bit-identical to the single unsharded lockstep engine — sharding, like
// batching before it, is a pure throughput optimization. Also covered:
// consistent link→shard hashing, lossless backpressure through tiny
// queues, stats aggregation, and lifecycle guards.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/simulator.hpp"
#include "ingest/package_source.hpp"
#include "ingest/shard_router.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace mlad::serve {
namespace {

TEST(ShardRouter, DeterministicInRangeAndCovering) {
  for (const std::size_t shards : {1u, 2u, 3u, 4u, 7u, 16u}) {
    std::set<std::size_t> hit;
    for (ics::LinkId link = 0; link < 512; ++link) {
      const std::size_t s = ingest::shard_of(link, shards);
      EXPECT_LT(s, shards);
      EXPECT_EQ(s, ingest::shard_of(link, shards)) << "not deterministic";
      hit.insert(s);
    }
    EXPECT_EQ(hit.size(), shards) << "some shard owns no links";
  }
  EXPECT_EQ(ingest::shard_of(12345, 1), 0u);
  EXPECT_THROW(ingest::shard_of(0, 0), std::invalid_argument);
}

TEST(ShardRouter, SpreadsDenseAndStridedIdsReasonably) {
  // Dense 0..63 and strided ids must not collapse onto few shards — the
  // reason the router hashes instead of taking link % N.
  for (const ics::LinkId stride : {1u, 2u, 8u, 10u}) {
    std::map<std::size_t, std::size_t> counts;
    for (ics::LinkId i = 0; i < 64; ++i) {
      ++counts[ingest::shard_of(i * stride, 4)];
    }
    ASSERT_EQ(counts.size(), 4u) << "stride " << stride;
    for (const auto& [shard, n] : counts) {
      EXPECT_GE(n, 4u) << "shard " << shard << " starved at stride "
                       << stride;
      EXPECT_LE(n, 32u) << "shard " << shard << " overloaded at stride "
                        << stride;
    }
  }
}

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;
  std::vector<ics::LinkFrame> wire;

  Fixture() {
    ics::SimulatorConfig sim_cfg;
    sim_cfg.cycles = 1200;
    sim_cfg.seed = 777;
    ics::GasPipelineSimulator sim(sim_cfg);
    const ics::SimulationResult train_capture = sim.run();

    detect::PipelineConfig cfg;
    cfg.combined.timeseries.hidden_dims = {24};
    cfg.combined.timeseries.epochs = 2;
    cfg.combined.timeseries.batch_size = 8;
    cfg.seed = 3;
    framework = detect::train_framework(train_capture.packages, cfg);

    const std::size_t cycles[] = {240, 190, 150, 120, 90};
    for (std::size_t i = 0; i < std::size(cycles); ++i) {
      ics::SimulatorConfig live_cfg = sim_cfg;
      live_cfg.cycles = cycles[i];
      live_cfg.seed = 2000 + i;
      ics::GasPipelineSimulator live(live_cfg);
      const ics::SimulationResult result = live.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      captures.push_back(std::move(capture));
    }
    wire = ics::merge_captures(captures);
  }
};

Fixture& fixture() {
  static Fixture f;
  return f;
}

/// Everything that identifies one alarm bitwise.
struct AlarmKey {
  std::uint64_t seq;
  double time;
  bool bloom;
  bool lstm;

  bool operator==(const AlarmKey&) const = default;
};

std::map<ics::LinkId, std::vector<AlarmKey>> per_link_keys(
    const std::vector<AlarmEvent>& events) {
  std::map<ics::LinkId, std::vector<AlarmKey>> out;
  for (const AlarmEvent& e : events) {
    out[e.link].push_back({e.seq, e.time, e.verdict.package_level,
                           e.verdict.timeseries_level});
  }
  return out;
}

TEST(ShardedEngine, AnyShardCountMatchesUnshardedLockstepBitwise) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  // Ground truth: the single unsharded lockstep engine on the same wire.
  CountingAlarmSink base_sink;
  MonitorEngine baseline(det, &base_sink);
  baseline.replay(f.wire);
  const auto want = per_link_keys(base_sink.events());
  ASSERT_FALSE(want.empty()) << "fixture produced no alarms to compare";

  for (const std::size_t shards : {1u, 2u, 4u}) {
    CountingAlarmSink sink;
    ShardedEngineConfig cfg;
    cfg.shards = shards;
    ShardedEngine engine(det, &sink, cfg);
    ingest::CaptureSource source(f.wire);
    EXPECT_EQ(engine.run(source), f.wire.size());

    EXPECT_EQ(per_link_keys(sink.events()), want)
        << shards << " shards diverged from the lockstep engine";
    const EngineStats s = engine.stats();
    EXPECT_EQ(s.frames, baseline.stats().frames);
    EXPECT_EQ(s.packages, baseline.stats().packages);
    EXPECT_EQ(s.alarms, baseline.stats().alarms);
    EXPECT_EQ(s.decode_failures, baseline.stats().decode_failures);
    EXPECT_EQ(s.links_seen, baseline.stats().links_seen);

    // Per-link stats line up with the baseline's, link by link.
    const auto want_links = baseline.link_stats();
    const auto got_links = engine.link_stats();
    ASSERT_EQ(got_links.size(), want_links.size());
    for (std::size_t i = 0; i < want_links.size(); ++i) {
      EXPECT_EQ(got_links[i].first, want_links[i].first);
      EXPECT_EQ(got_links[i].second.packages, want_links[i].second.packages);
      EXPECT_EQ(got_links[i].second.alarms, want_links[i].second.alarms);
      EXPECT_EQ(got_links[i].second.package_level_alarms,
                want_links[i].second.package_level_alarms);
      EXPECT_EQ(got_links[i].second.timeseries_level_alarms,
                want_links[i].second.timeseries_level_alarms);
    }
  }
}

TEST(ShardedEngine, TinyQueuesBackpressureLosslessly) {
  const auto& f = fixture();
  const detect::CombinedDetector& det = *f.framework.detector;

  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 2;
  cfg.queue_capacity = 2;  // pathological: the pump stalls constantly
  ShardedEngine engine(det, &sink, cfg);
  for (const ics::LinkFrame& lf : f.wire) engine.push(lf);
  engine.finish();

  const EngineStats s = engine.stats();
  EXPECT_EQ(s.frames, f.wire.size()) << "backpressure lost frames";
  const IngestStats in = engine.ingest_stats();
  EXPECT_EQ(in.frames_routed, f.wire.size());
  EXPECT_GE(in.producer_blocks, 1u);
  EXPECT_LE(in.peak_queue_depth, 2u);

  CountingAlarmSink base_sink;
  MonitorEngine baseline(det, &base_sink);
  baseline.replay(f.wire);
  EXPECT_EQ(per_link_keys(sink.events()), per_link_keys(base_sink.events()));
}

TEST(ShardedEngine, PerLinkSinkOrderIsPreserved) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 4;
  ShardedEngine engine(*f.framework.detector, &sink, cfg);
  ingest::CaptureSource source(f.wire);
  engine.run(source);

  // Within each link, arrival order at the (serialized) sink must be
  // classification order: strictly increasing package sequence numbers.
  std::map<ics::LinkId, std::uint64_t> last_seq;
  for (const AlarmEvent& e : sink.events()) {
    if (const auto it = last_seq.find(e.link); it != last_seq.end()) {
      EXPECT_GT(e.seq, it->second) << "link " << e.link << " reordered";
    }
    last_seq[e.link] = e.seq;
  }
}

TEST(ShardedEngine, LifecycleGuards) {
  const auto& f = fixture();
  ShardedEngineConfig cfg;
  cfg.shards = 0;
  EXPECT_THROW(ShardedEngine(*f.framework.detector, nullptr, cfg),
               std::invalid_argument);

  cfg.shards = 2;
  adapt::OnlineTrainer* bogus = reinterpret_cast<adapt::OnlineTrainer*>(0x1);
  cfg.engine.adapter = bogus;
  EXPECT_THROW(ShardedEngine(*f.framework.detector, nullptr, cfg),
               std::invalid_argument);
  cfg.engine.adapter = nullptr;

  ShardedEngine engine(*f.framework.detector, nullptr, cfg);
  EXPECT_THROW((void)engine.stats(), std::logic_error);
  EXPECT_THROW((void)engine.link_stats(), std::logic_error);
  EXPECT_THROW((void)engine.ingest_stats(), std::logic_error);
  engine.push(f.wire.front());
  engine.finish();
  engine.finish();  // idempotent
  EXPECT_EQ(engine.stats().frames, 1u);
  EXPECT_THROW(engine.push(f.wire.front()), std::logic_error);
}

// Pins the cross-shard merge rule for EVERY EngineStats field: counters
// and timings sum, the peak_* gauges and model_version take the max. Each
// field gets distinct values so a sum/max mix-up cannot cancel out.
TEST(AggregateStats, PinsMergeRuleForEveryField) {
  EngineStats a;
  a.frames = 3;
  a.packages = 5;
  a.ticks = 7;
  a.alarms = 11;
  a.package_level_alarms = 13;
  a.timeseries_level_alarms = 17;
  a.decode_failures = 19;
  a.links_seen = 23;
  a.links_retired = 29;
  a.links_parked = 31;
  a.peak_links = 37;
  a.peak_pending = 41;
  a.model_version = 43;
  a.model_swaps = 47;
  a.rollbacks = 53;
  a.straggler_closes = 61;
  a.classify_us = 67.0;
  a.adapt_us = 71.0;
  EngineStats b;
  b.frames = 101;
  b.packages = 103;
  b.ticks = 107;
  b.alarms = 109;
  b.package_level_alarms = 113;
  b.timeseries_level_alarms = 127;
  b.decode_failures = 131;
  b.links_seen = 137;
  b.links_retired = 139;
  b.links_parked = 149;
  b.peak_links = 151;
  b.peak_pending = 157;
  b.model_version = 163;
  b.model_swaps = 167;
  b.rollbacks = 173;
  b.straggler_closes = 181;
  b.classify_us = 191.0;
  b.adapt_us = 193.0;
  const EngineStats m = aggregate_stats(std::vector<EngineStats>{a, b});
  EXPECT_EQ(m.frames, 104u);
  EXPECT_EQ(m.packages, 108u);
  EXPECT_EQ(m.ticks, 114u);
  EXPECT_EQ(m.alarms, 120u);
  EXPECT_EQ(m.package_level_alarms, 126u);
  EXPECT_EQ(m.timeseries_level_alarms, 144u);
  EXPECT_EQ(m.decode_failures, 150u);
  EXPECT_EQ(m.links_seen, 160u);
  EXPECT_EQ(m.links_retired, 168u);
  EXPECT_EQ(m.links_parked, 180u);
  // Peaks and the serving version are box-wide high-water marks: max, not
  // sum — no shard ever saw the summed value.
  EXPECT_EQ(m.peak_links, 151u);
  EXPECT_EQ(m.peak_pending, 157u);
  EXPECT_EQ(m.model_version, 163u);
  EXPECT_EQ(m.model_swaps, 214u);
  EXPECT_EQ(m.rollbacks, 226u);
  EXPECT_EQ(m.straggler_closes, 242u);
  EXPECT_DOUBLE_EQ(m.classify_us, 258.0);
  EXPECT_DOUBLE_EQ(m.adapt_us, 264.0);
  EXPECT_DOUBLE_EQ(m.us_per_package(), 258.0 / 108.0);
}

}  // namespace
}  // namespace mlad::serve
