// Fault-tolerant serve (DESIGN.md §12): the straggler ladder on its real-
// time clock and its integration with the live TCP front end.
//  (a) advance_clock parks a link that blocks the gate past park_after_ms,
//      then retires it once its park ages past the close grace —
//      deterministic unit drive on a synthetic clock, no sockets or
//      threads;
//  (b) the block clock only runs while the gate is actually blocked (idle
//      wires and flowing gates never accrue);
//  (c) a parked straggler rejoins with its stream state intact: its
//      verdicts are bit-identical to an uninterrupted run, and the gate
//      never dams up more than park_after_ms of wire behind it;
//  (d) park_hysteresis_ms raises the re-park bar for a freshly rejoined
//      link (flap damping) without ever blocking parks outright;
//  (e) end to end over loopback TCP: three tokened taps, one goes silent
//      mid-stream — the other two links' verdicts are bit-identical to
//      their solo runs while the stalled link parks, then closes, on the
//      steady_clock schedule.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <thread>
#include <vector>

#include "detect/pipeline.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/simulator.hpp"
#include "ingest/socket_source.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"

namespace mlad::serve {
namespace {

struct Fixture {
  detect::TrainedFramework framework;
  std::vector<ics::Capture> captures;

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

    const std::size_t cycles[] = {260, 200, 160};
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

std::vector<AlarmKey> solo_run(const ics::Capture& capture) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngine engine(*f.framework.detector, &sink);
  for (const ics::RawFrame& frame : capture) engine.push(0, frame);
  engine.finish();
  return keys(sink.events());
}

// ---- straggler clock unit drive -------------------------------------------

TEST(StragglerClock, ParksBlockedStragglerThenEscalatesToClose) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 100.0;
  cfg.close_after_ms = 300.0;  // grace after the park: 200 ms
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  // Link 0 ticks alone, link 1 joins (tick 2 drains both), then link 1
  // goes silent while link 0 keeps sending: the gate is now blocked.
  engine.push(0, f.captures[0][0]);  // tick 1: link 0 is the whole gate
  engine.push(1, f.captures[1][0]);
  engine.push(0, f.captures[0][1]);  // tick 2: both drain
  engine.push(0, f.captures[0][2]);  // waits on the now-silent link 1
  ASSERT_EQ(engine.stats().ticks, 2u);

  EXPECT_FALSE(engine.advance_clock(50.0));   // 50 ms blocked: under
  EXPECT_FALSE(engine.advance_clock(49.0));   // 99 ms: still under
  EXPECT_TRUE(engine.advance_clock(2.0));     // 101 ms: park fires
  EXPECT_EQ(engine.stats().links_parked, 1u);
  // The park unblocked the gate: link 0's backlog ticked through.
  EXPECT_EQ(engine.stats().ticks, 3u);
  EXPECT_EQ(engine.active_links(), 1u);

  // The parked link now ages toward the close escalation on the same
  // clock — even though the gate itself is no longer blocked.
  EXPECT_FALSE(engine.advance_clock(199.0));  // 199 < 200 ms grace
  EXPECT_TRUE(engine.advance_clock(2.0));     // 201 ms: retired
  EXPECT_EQ(engine.stats().straggler_closes, 1u);
  EXPECT_EQ(engine.stats().links_retired, 1u);
  engine.finish();
}

TEST(StragglerClock, AccruesOnlyWhileTheGateIsBlocked) {
  const auto& f = fixture();
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 100.0;
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  // No links at all: real time passes, nothing accrues.
  EXPECT_FALSE(engine.advance_clock(1000.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);

  // Two links, both drained (no pending anywhere): idle is not a stall.
  engine.push(0, f.captures[0][0]);  // tick 1: link 0 alone
  engine.push(1, f.captures[1][0]);  // link 1 joins; waits on link 0
  engine.push(0, f.captures[0][1]);  // tick 2: both drain
  ASSERT_EQ(engine.stats().ticks, 2u);
  EXPECT_FALSE(engine.advance_clock(1000.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);

  // Blocked for 60 ms, then the straggler speaks (gate ticks, clock
  // resets), then blocked for another 60 ms: never reaches 100 ms.
  engine.push(0, f.captures[0][2]);
  EXPECT_FALSE(engine.advance_clock(60.0));
  engine.push(1, f.captures[1][1]);  // gate fires, stall clock restarts
  engine.push(0, f.captures[0][3]);
  EXPECT_FALSE(engine.advance_clock(60.0));
  EXPECT_EQ(engine.stats().links_parked, 0u);
  engine.finish();
}

TEST(StragglerClock, ParkedStragglerRejoinsWithVerdictsIntact) {
  const auto& f = fixture();
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];
  const auto isolated_b = [&] {
    CountingAlarmSink sink;
    MonitorEngine engine(*f.framework.detector, &sink);
    for (const ics::RawFrame& frame : b) engine.push(1, frame);
    engine.finish();
    return keys(sink.events());
  }();

  // Link 1 goes silent for the middle third of the wire. Without a
  // straggler policy the lockstep gate would buffer link 0's packages for
  // the whole gap; with park_after_ms the gate parks link 1, keeps ticking
  // link 0, and re-admits link 1 with its stream state intact.
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 60.0;
  constexpr double kStepMs = 10.0;  // clock time per wire step
  MonitorEngine engine(*f.framework.detector, &sink, cfg);

  const std::size_t n = std::min(a.size(), b.size());
  std::size_t bi = 0;
  for (std::size_t i = 0; i < n; ++i) {
    engine.push(0, a[i]);
    const bool b_silent = i >= n / 3 && i < 2 * n / 3;
    if (!b_silent && bi < b.size()) engine.push(1, b[bi++]);
    engine.advance_clock(kStepMs);
  }
  // The gap must not have dammed up link 0 behind the gate.
  EXPECT_LE(engine.stats().peak_pending, cfg.park_after_ms / kStepMs + 1);
  EXPECT_EQ(engine.stats().links_parked, 1u);
  while (bi < b.size()) engine.push(1, b[bi++]);
  for (std::size_t i = n; i < a.size(); ++i) engine.push(0, a[i]);
  engine.finish();

  EXPECT_EQ(engine.stats().links_seen, 2u)
      << "a parked link must resume, not rejoin as a new stream";
  EXPECT_EQ(engine.stats().packages, a.size() + b.size());
  EXPECT_EQ(keys(sink.events(), 1u), isolated_b)
      << "parking changed the parked link's verdicts";
}

TEST(ParkHysteresis, RaisesTheReParkBarAfterARejoin) {
  const auto& f = fixture();
  const ics::Capture& a = f.captures[0];
  const ics::Capture& b = f.captures[1];
  CountingAlarmSink sink;
  MonitorEngineConfig cfg;
  cfg.park_after_ms = 60.0;
  cfg.park_hysteresis_ms = 40.0;
  constexpr double kStepMs = 10.0;  // clock time per push of link 0
  MonitorEngine engine(*f.framework.detector, &sink, cfg);
  const auto steps = [&](double ms) {
    return static_cast<std::size_t>(ms / kStepMs);
  };

  // First stall: parks at the plain threshold (hysteresis never affects a
  // link that has not parked before). b[0] ticks through alone; every a
  // push after that piles up behind the now-silent link 1.
  engine.push(1, b[0]);  // tick 1: link 1 is the whole gate
  std::size_t ai = 0;
  while (engine.stats().links_parked == 0) {
    ASSERT_LT(ai, steps(cfg.park_after_ms) + 1)
        << "first park missed its threshold";
    engine.push(0, a[ai++]);
    engine.advance_clock(kStepMs);
  }
  EXPECT_EQ(ai, steps(cfg.park_after_ms));

  // Rejoin, then stall again immediately: within the hysteresis window the
  // bar is park_after_ms + park_hysteresis_ms blocked — not park_after_ms.
  engine.push(1, b[1]);     // re-admits b with its rejoin frame queued
  engine.push(0, a[ai++]);  // pairs with it; the gate ticks both through
  const std::size_t bar = steps(cfg.park_after_ms + cfg.park_hysteresis_ms);
  for (std::size_t pending = 1; pending <= bar; ++pending) {
    engine.push(0, a[ai++]);
    engine.advance_clock(kStepMs);
    EXPECT_EQ(engine.stats().links_parked, pending < bar ? 1u : 2u)
        << "re-park at " << pending * kStepMs << " ms inside hysteresis";
  }
  EXPECT_EQ(engine.stats().links_parked, 2u);
  engine.finish();
}

// ---- loopback integration: 3 taps, one stalls ------------------------------

void send_all(int fd, const std::vector<std::uint8_t>& bytes) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in dst{};
  dst.sin_family = AF_INET;
  dst.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &dst.sin_addr);
  EXPECT_EQ(
      ::connect(fd, reinterpret_cast<const sockaddr*>(&dst), sizeof(dst)), 0);
  return fd;
}

TEST(FaultTolerance, StalledTapParksThenClosesWhileOthersStayBitIdentical) {
  const auto& f = fixture();
  const auto solo0 = solo_run(f.captures[0]);
  const auto solo1 = solo_run(f.captures[1]);

  ingest::TcpSource source(/*port=*/0, "127.0.0.1", /*max_conns=*/8,
                           /*idle_timeout_ms=*/250);
  CountingAlarmSink sink;
  ShardedEngineConfig cfg;
  cfg.shards = 1;
  cfg.engine.park_after_ms = 150.0;
  cfg.engine.close_after_ms = 400.0;
  ShardedEngine engine(*f.framework.detector, &sink, cfg);

  constexpr std::size_t kStallAfter = 30;
  std::vector<std::thread> taps;
  for (std::uint32_t t = 0; t < 3; ++t) {
    taps.emplace_back([&, t, port = source.port()] {
      const ics::Capture& capture = f.captures[t];
      const int fd = connect_loopback(port);
      send_all(fd, ingest::encode_hello(t + 1, 0));
      const bool stalls = t == 2;
      const std::size_t n =
          stalls ? std::min(kStallAfter, capture.size()) : capture.size();
      for (std::size_t i = 0; i < n; ++i) {
        send_all(fd, ingest::encode_record({0, capture[i]}));
      }
      if (stalls) {
        // Silent but connected: the engine must park, then close, this
        // link on the straggler clock — long before the tap finally gives up.
        std::this_thread::sleep_for(std::chrono::milliseconds(1200));
      }
      ::close(fd);
    });
  }

  engine.run(source);
  for (auto& t : taps) t.join();

  const EngineStats s = engine.stats();
  EXPECT_GE(s.links_parked, 1u) << "the stalled link never parked";
  EXPECT_GE(s.straggler_closes, 1u)
      << "the parked link never closed on schedule";
  EXPECT_EQ(s.packages,
            f.captures[0].size() + f.captures[1].size() + kStallAfter);

  // The healthy taps' verdicts are exactly their solo runs.
  EXPECT_EQ(keys(sink.events(), ics::LinkId{1} << 16), solo0);
  EXPECT_EQ(keys(sink.events(), ics::LinkId{2} << 16), solo1);

  // The stalled link delivered (and was scored on) exactly its pre-stall
  // prefix, and went through a park.
  bool found = false;
  for (const auto& [link, ls] : engine.link_stats()) {
    if (link != ics::LinkId{3} << 16) continue;
    found = true;
    EXPECT_EQ(ls.packages, kStallAfter);
    EXPECT_GE(ls.parks, 1u);
  }
  EXPECT_TRUE(found);

  const auto health = engine.ingest_stats().source_health;
  EXPECT_EQ(health.connections, 3u);
  EXPECT_EQ(health.malformed, 0u);
}

}  // namespace
}  // namespace mlad::serve
