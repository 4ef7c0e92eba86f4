// Multi-link online monitoring engine (DESIGN.md §8) — the serve-layer
// data path:
//
//   raw frames → LinkMux (per-link decode sessions) → per-link pending
//   queues → tick scheduler → StreamBatch (one (L×dim) LSTM step per tick)
//   → AlarmSink + per-link/aggregate stats
//
// One engine instance is one long-running monitoring process: links join
// when their first frame arrives (StreamBatch::grow recycles freed slots),
// tick in lockstep while live, and leave once closed and drained
// (swap-to-back + shrink, so the batch stays dense). Because every stream's
// arithmetic is a fixed per-row function (DESIGN.md §5/§7), a link's
// verdict sequence is bit-identical whether it is monitored alone or
// alongside any number of other links — the batched engine is a pure
// throughput optimization. Its per-package baseline lives outside the
// engine, in tests/support/reference_monitor.hpp.
#pragma once

#include <cstdint>
#include <deque>
#include <iterator>
#include <map>
#include <optional>
#include <span>
#include <string_view>
#include <variant>
#include <vector>

#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "detect/stream_batch.hpp"
#include "ics/link_mux.hpp"
#include "serve/alarm_sink.hpp"
#include "signature/discretizer.hpp"

namespace mlad::adapt {
class OnlineTrainer;
}  // namespace mlad::adapt

namespace mlad::obs {
class Counter;
class Gauge;
class LatencyHistogram;
class MetricsRegistry;
}  // namespace mlad::obs

namespace mlad::serve {

struct MonitorEngineConfig {
  /// Kernel-row partitioning only (0 = all cores, 1 = sequential); never
  /// changes any verdict or stat (DESIGN.md §5).
  std::size_t threads = 1;
  std::size_t crc_window = 50;  ///< per-link rolling CRC window (§VII)

  // ---- straggler ladder (DESIGN.md §12) ----------------------------------
  // The lockstep gate fires only when EVERY active link has a package
  // pending, so one silent PLC stalls the whole wire. With these set, the
  // engine's driving thread feeds elapsed real time into advance_clock(),
  // and the links that keep the gate blocked (silent while others hold
  // pending work) climb one ladder on that clock. Degradation mode: WHICH
  // tick a park lands on depends on real time, so verdict determinism
  // holds per link but the schedule does not replay bit-exactly. 0 = off
  // (the default keeps every run untouched).
  /// Park: the link leaves the batch but its stream state is snapshotted;
  /// the next frame re-admits it with its history intact (same verdict
  /// sequence as if the gap never happened).
  double park_after_ms = 0.0;
  /// Close: the link is retired as if close()d; a later frame opens a
  /// fresh zero-state stream. A link blocking the gate this long is
  /// closed; a parked one once it has been parked for close_after_ms -
  /// park_after_ms. With close_after_ms <= park_after_ms the ladder closes
  /// and never parks.
  double close_after_ms = 0.0;
  /// Park/rejoin churn damping: a link that stalls again less than this
  /// long after rejoining from a park must stay blocked
  /// park_after_ms + park_hysteresis_ms before it re-parks (the close
  /// rung is unaffected). Never affects links that have not parked yet.
  double park_hysteresis_ms = 0.0;

  // ---- adaptation auto-rollback (DESIGN.md §12) ---------------------------
  /// Packages the rollback monitor scores after each weight swap, compared
  /// against the same-length window before it; 0 = rollback off. Requires
  /// an adapter.
  std::size_t rollback_window = 0;
  /// Roll back when (post_alarms + 1) > ratio * (scaled pre_alarms + 1)
  /// over the rollback window (add-one smoothing so a quiet pre-window
  /// cannot make any alarm spike, and a zero-alarm post-window never
  /// triggers).
  double rollback_ratio = 4.0;

  // ---- online adaptation (DESIGN.md §9) -----------------------------------
  /// Background adaptation subsystem; must wrap the SAME detector object
  /// this engine serves. The engine harvests verdict-clean windows into it
  /// and hot-swaps the weights it publishes.
  /// Null = adaptation off (the default; the tick path is untouched).
  adapt::OnlineTrainer* adapter = nullptr;
  /// Ticks between adaptation rounds: at every multiple the engine adopts
  /// the previous round's weights (waiting for it if still training) and
  /// requests the next — so swaps land on deterministic ticks.
  std::size_t adapt_interval = 512;

  // ---- telemetry (DESIGN.md §14) ------------------------------------------
  /// Metrics registry; the engine registers its own per-stage histograms
  /// and one instrument per kEngineStatFields row at construction and
  /// updates them on the tick path (a clock read and a relaxed store per
  /// sample — never a lock).
  /// Telemetry never feeds back into classification: verdicts are
  /// bit-identical with or without it. Null = telemetry off (the default;
  /// the tick path pays nothing).
  obs::MetricsRegistry* metrics = nullptr;
};

struct LinkStats {
  std::uint64_t packages = 0;
  std::uint64_t alarms = 0;
  std::uint64_t package_level_alarms = 0;     ///< Bloom stage
  std::uint64_t timeseries_level_alarms = 0;  ///< LSTM stage
  std::uint64_t decode_failures = 0;
  std::uint64_t parks = 0;  ///< times the straggler policy parked this link
  double first_time = 0.0;
  double last_time = 0.0;
};

struct EngineStats {
  std::uint64_t frames = 0;    ///< frames pushed
  std::uint64_t packages = 0;  ///< packages classified (= frames once drained)
  std::uint64_t ticks = 0;
  std::uint64_t alarms = 0;
  std::uint64_t package_level_alarms = 0;
  std::uint64_t timeseries_level_alarms = 0;
  std::uint64_t decode_failures = 0;
  std::uint64_t links_seen = 0;
  std::uint64_t links_retired = 0;
  std::uint64_t links_parked = 0;  ///< straggler parks (links may repeat)
  std::uint64_t peak_links = 0;    ///< max concurrently-active links
  std::uint64_t peak_pending = 0;  ///< max queued packages on one link
  std::uint64_t model_version = 0;  ///< serving weight version (0 = shipped)
  std::uint64_t model_swaps = 0;    ///< adapted-weight hot swaps applied
  std::uint64_t rollbacks = 0;      ///< auto-rollbacks (DESIGN.md §12)
  std::uint64_t straggler_closes = 0;  ///< closes by the straggler ladder
  double classify_us = 0.0;        ///< wall time inside classification ticks
  /// Wall time inside adapt boundaries: waiting out an unfinished round
  /// plus adopting its weights (copy + cache re-transpose). NOT part of
  /// classify_us — reported separately so slow rounds can't hide.
  double adapt_us = 0.0;

  double us_per_package() const {
    return packages > 0 ? classify_us / static_cast<double>(packages) : 0.0;
  }
  double mean_batch() const {
    return ticks > 0
               ? static_cast<double>(packages) / static_cast<double>(ticks)
               : 0.0;
  }
};

/// One EngineStats field as the outside world sees it (the name↔column
/// table idiom): its registry name, the member, and how same-name values
/// of several owners merge — a counter sums, a gauge takes the max (a
/// peak no single shard ever saw is no peak). Telemetry registration, the
/// per-tick publish and the cross-shard aggregate_stats all loop over
/// kEngineStatFields, so this table is the one field list.
struct EngineStatField {
  enum Kind { kCounter, kGauge };
  std::string_view name;
  Kind kind;
  /// classify_us and adapt_us are the double fields; they publish as
  /// whole microseconds.
  std::variant<std::uint64_t EngineStats::*, double EngineStats::*> member;

  /// The value the registry instrument carries.
  std::uint64_t read(const EngineStats& s) const;
  /// Fold `from` into `into` by this field's kind.
  void merge(EngineStats& into, const EngineStats& from) const;
};

inline constexpr EngineStatField kEngineStatFields[] = {
    {"engine_frames_total", EngineStatField::kCounter, &EngineStats::frames},
    {"engine_packages_total", EngineStatField::kCounter,
     &EngineStats::packages},
    {"engine_ticks_total", EngineStatField::kCounter, &EngineStats::ticks},
    {"engine_alarms_total", EngineStatField::kCounter, &EngineStats::alarms},
    {"engine_package_level_alarms_total", EngineStatField::kCounter,
     &EngineStats::package_level_alarms},
    {"engine_timeseries_level_alarms_total", EngineStatField::kCounter,
     &EngineStats::timeseries_level_alarms},
    {"engine_decode_failures_total", EngineStatField::kCounter,
     &EngineStats::decode_failures},
    {"engine_links_seen_total", EngineStatField::kCounter,
     &EngineStats::links_seen},
    {"engine_links_retired_total", EngineStatField::kCounter,
     &EngineStats::links_retired},
    {"engine_links_parked_total", EngineStatField::kCounter,
     &EngineStats::links_parked},
    {"engine_peak_links", EngineStatField::kGauge, &EngineStats::peak_links},
    {"engine_peak_pending", EngineStatField::kGauge,
     &EngineStats::peak_pending},
    {"engine_model_version", EngineStatField::kGauge,
     &EngineStats::model_version},
    {"engine_model_swaps_total", EngineStatField::kCounter,
     &EngineStats::model_swaps},
    {"engine_rollbacks_total", EngineStatField::kCounter,
     &EngineStats::rollbacks},
    {"engine_straggler_closes_total", EngineStatField::kCounter,
     &EngineStats::straggler_closes},
    {"engine_classify_us_total", EngineStatField::kCounter,
     &EngineStats::classify_us},
    {"engine_adapt_us_total", EngineStatField::kCounter,
     &EngineStats::adapt_us},
};
// Every EngineStats field is 8 bytes wide: a field added without a row
// changes the size and stops the build here.
static_assert(sizeof(EngineStats) == 8 * std::size(kEngineStatFields));

class MonitorEngine {
 public:
  /// Per-FRAME telemetry stages (decode latency, queue wait) sample one
  /// frame in this many (DESIGN.md §14): a raw clock read costs ~20 ns on
  /// virtualized TSCs, so stamping every frame would exceed the 2%
  /// tick-path overhead budget by itself. Per-TICK stages are always
  /// measured — their cost amortizes over the batch.
  static constexpr std::uint64_t kStageSampleEvery = 8;

  /// `detector` and `sink` must outlive the engine; `sink` may be null
  /// (classify + count, no alarm delivery).
  MonitorEngine(const detect::CombinedDetector& detector, AlarmSink* sink,
                const MonitorEngineConfig& config = {});

  /// Feed the next frame of link `link` (frames per link must arrive in
  /// capture order). Unknown links join automatically; classification runs
  /// as soon as every active link has a package pending.
  void push(ics::LinkId link, const ics::RawFrame& frame);

  /// Feed a frame keyed by its Modbus unit address (multi-drop-line tap).
  void push(const ics::RawFrame& frame);

  /// Replay a pre-merged wire (see ics::merge_captures) and finish().
  void replay(std::span<const ics::LinkFrame> wire);

  /// No more frames will arrive on `link`: it keeps ticking until its
  /// queue drains, then leaves the batch (its slot is recycled). Unknown
  /// or already-closed links are a no-op. A push BEFORE the link has
  /// fully drained cancels the close (same stream continues); a push
  /// after it left opens a fresh zero-state stream.
  void close(ics::LinkId link);

  /// Close every link and drain all pending packages.
  void finish();

  /// Straggler clock (DESIGN.md §12): the driving thread reports
  /// `elapsed_ms` more milliseconds of real time. Parked links age toward
  /// close_after_ms; while the gate is blocked — some links holding
  /// pending packages, others silent — the block time accrues and the
  /// silent links are parked or closed once it reaches their rung, and
  /// the tick retried. No-op unless a threshold is set. Returns true if
  /// any link was parked or closed.
  bool advance_clock(double elapsed_ms);
  /// How often to call advance_clock, in whole ms: an eighth of the
  /// smallest set threshold, clamped to [1, 10]. 0 = no straggler policy
  /// (advance_clock is then a no-op).
  int sweep_cadence_ms() const { return sweep_cadence_ms_; }

  std::size_t active_links() const { return slots_.size(); }
  const EngineStats& stats() const { return stats_; }
  /// Per-link stats (every link ever seen), ascending by link id.
  std::vector<std::pair<ics::LinkId, LinkStats>> link_stats() const;

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// One decoded package waiting for its tick.
  struct Pending {
    sig::RawRow row;  ///< Table-I feature vector (classifier input)
    double time = 0.0;
    std::uint8_t address = 0;
    std::uint8_t function = 0;
    std::uint16_t length = 0;
    bool decode_ok = false;
    /// Decode-end timestamp (telemetry only; 0 when telemetry is off or
    /// the frame was not sampled) — the tick start minus this is the
    /// package's queue wait.
    std::uint64_t enqueue_ns = 0;
  };

  struct Link {
    std::size_t slot = kNoSlot;  ///< batch row while active
    std::deque<Pending> queue;
    bool closed = false;
    bool parked = false;  ///< out of the gate, state preserved for rejoin
    /// Straggler clock at this link's last park, or at its rejoin from one.
    double park_clock_ms = 0.0;
    LinkStats stats;
    /// Stream state saved across a park (nullopt otherwise).
    std::optional<detect::StreamBatch::StreamSnapshot> parked_state;
  };

  void ingest(const ics::LinkMux::Demuxed& demuxed, std::size_t frame_len,
              std::uint64_t enqueue_ns);
  void join(ics::LinkId id, Link& link);
  void retire_drained();
  void park(std::size_t slot);
  /// Drop a parked link's saved state and retire it (explicit close(),
  /// the park→close escalation, or finish()).
  void retire_parked(ics::LinkId id, Link& link);
  void maybe_tick();
  /// Adaptation-interval boundary: adopt the outstanding round's weights
  /// (waiting for it if still training) and, unless `request_next` is
  /// false (final collection in finish()), request the next round.
  void adapt_boundary(bool request_next = true);
  /// Score one package for the rollback monitor (every package, alarm or
  /// not) and arm the rollback flag when the post-swap window closes hot.
  void rollback_observe(bool anomaly);
  /// Execute an armed rollback at the tick boundary.
  void perform_rollback();
  void dispatch(ics::LinkId id, Link& link, const Pending& pending,
                const detect::CombinedVerdict& verdict);
  /// Mirror every kEngineStatFields row into the registry (relaxed stores;
  /// called once per tick and once in finish() — the struct stays the
  /// source of truth, the registry its exporter-visible shadow).
  void publish_stats();

  const detect::CombinedDetector* detector_;
  AlarmSink* sink_;
  MonitorEngineConfig config_;
  PoolHandle pool_;
  ics::LinkMux mux_;
  detect::StreamBatch batch_;
  std::map<ics::LinkId, Link> links_;
  std::vector<ics::LinkId> slots_;  ///< slot → link id, dense
  std::vector<Link*> slot_links_;   ///< slot → session (map nodes are stable)
  std::size_t parked_count_ = 0;    ///< links currently parked
  EngineStats stats_;

  /// Telemetry instrument pointers, resolved once at construction from
  /// config_.metrics (all null when telemetry is off, and every hot-path
  /// touch is guarded by on() — a single pointer test).
  struct Telemetry {
    obs::MetricsRegistry* registry = nullptr;
    obs::LatencyHistogram* decode_ns = nullptr;
    obs::LatencyHistogram* queue_wait_ns = nullptr;
    obs::LatencyHistogram* dispatch_ns = nullptr;
    obs::LatencyHistogram* tick_ns = nullptr;
    obs::LatencyHistogram* adapt_ns = nullptr;
    /// One instrument per kEngineStatFields row, of the row's kind.
    std::variant<obs::Counter*, obs::Gauge*>
        stats[std::size(kEngineStatFields)] = {};
    bool on() const { return registry != nullptr; }
  } tele_;

  // ---- straggler ladder (DESIGN.md §12) ----------------------------------
  int sweep_cadence_ms_ = 0;  ///< 0 = no straggler threshold set
  double clock_ms_ = 0.0;     ///< total real time fed to advance_clock
  /// Clock time the gate has been blocked (reset by a tick).
  double gate_blocked_ms_ = 0.0;

  // ---- rollback monitor (DESIGN.md §12) -----------------------------------
  std::deque<bool> recent_alarms_;     ///< last rollback_window package flags
  std::size_t recent_alarm_count_ = 0;
  bool rollback_armed_ = false;        ///< scoring a fresh swap
  bool rollback_due_ = false;          ///< verdict in: roll back at boundary
  std::uint64_t rollback_from_ = 0;    ///< the version under evaluation
  std::uint64_t rollback_to_ = 0;      ///< version serving before the swap
  std::size_t pre_alarms_ = 0;         ///< alarms in the pre-swap window
  std::size_t pre_window_ = 0;         ///< its actual length (may be short)
  std::size_t post_packages_ = 0;
  std::size_t post_alarms_ = 0;

  // Per-tick scratch, reused so the steady state is allocation-free.
  std::vector<std::span<const double>> tick_rows_;
  std::vector<detect::CombinedVerdict> verdicts_;
  std::vector<detect::PackageVerdict> package_verdicts_;  ///< harvest only
};

}  // namespace mlad::serve
