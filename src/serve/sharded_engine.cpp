#include "serve/sharded_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <string>
#include <utility>

#include "ingest/shard_router.hpp"
#include "obs/metrics.hpp"

namespace mlad::serve {

EngineStats aggregate_stats(std::span<const EngineStats> shards) {
  EngineStats out;
  for (const EngineStats& s : shards) {
    for (const EngineStatField& f : kEngineStatFields) f.merge(out, s);
  }
  return out;
}

ShardedEngine::ShardedEngine(const detect::CombinedDetector& detector,
                             AlarmSink* sink,
                             const ShardedEngineConfig& config) {
  if (config.shards == 0) {
    throw std::invalid_argument("ShardedEngine: shards must be > 0");
  }
  if (config.engine.adapter != nullptr && config.shards > 1) {
    throw std::invalid_argument(
        "ShardedEngine: online adaptation needs shards == 1 (shards share "
        "the detector read-only)");
  }
  if (sink != nullptr) serialized_.emplace(sink);
  AlarmSink* shard_sink = serialized_ ? &*serialized_ : nullptr;

  if (config.engine.metrics != nullptr) {
    // Pump-side instruments; each shard's MonitorEngine registers its own
    // engine_*/stage_* instances below (the registry sums them by name).
    obs::MetricsRegistry& reg = *config.engine.metrics;
    itele_.frames_routed = &reg.counter("ingest_frames_routed_total");
    itele_.producer_blocks = &reg.counter("ingest_producer_blocks_total");
    itele_.peak_queue_depth = &reg.gauge("ingest_peak_queue_depth");
    itele_.health.bind(reg);
  }

  shards_.resize(config.shards);
  for (Shard& shard : shards_) {
    shard.queue =
        std::make_unique<SpscQueue<ics::LinkFrame>>(config.queue_capacity);
    shard.engine = std::make_unique<MonitorEngine>(detector, shard_sink,
                                                   config.engine);
    shard.thread = std::thread([q = shard.queue.get(),
                                engine = shard.engine.get()] {
      ics::LinkFrame lf;
      const int cadence_ms = engine->sweep_cadence_ms();
      if (cadence_ms == 0) {
        while (q->pop(lf)) engine->push(lf.link, lf.frame);
      } else {
        // Timed pops so a silent tap can't park the shard thread in a
        // blocking pop forever: every wait — frame or timeout — reports its
        // real elapsed time to the engine's straggler clock.
        using Clock = std::chrono::steady_clock;
        auto last = Clock::now();
        for (;;) {
          const auto res = q->pop_for(lf, cadence_ms);
          if (res == SpscQueue<ics::LinkFrame>::PopResult::kClosed) break;
          if (res == SpscQueue<ics::LinkFrame>::PopResult::kItem) {
            engine->push(lf.link, lf.frame);
          }
          const auto now = Clock::now();
          engine->advance_clock(
              std::chrono::duration<double, std::milli>(now - last).count());
          last = now;
        }
      }
      engine->finish();
    });
  }
}

ShardedEngine::~ShardedEngine() {
  try {
    finish();
  } catch (...) {
    // Destruction must not throw; shard threads are joined regardless.
  }
}

void ShardedEngine::push(const ics::LinkFrame& lf) {
  if (finished_) {
    throw std::logic_error("ShardedEngine: push after finish");
  }
  ++ingest_.frames_routed;
  shards_[ingest::shard_of(lf.link, shards_.size())].queue->push(lf);
  if (itele_.on()) {
    itele_.frames_routed->set(ingest_.frames_routed);
    if (ingest_.frames_routed % 4096 == 0) sample_queue_telemetry();
  }
}

void ShardedEngine::push(ics::LinkId link, const ics::RawFrame& frame) {
  push(ics::LinkFrame{link, frame});
}

std::uint64_t ShardedEngine::run(ingest::PackageSource& source) {
  std::uint64_t n = 0;
  ics::LinkFrame lf;
  while (source.next(lf)) {
    push(lf);
    ++n;
    // Keep the live /metrics view of front-end degradation fresh without
    // querying the source per frame.
    if (itele_.on() && n % 4096 == 0) itele_.health.publish(source.health());
  }
  // Capture the front end's degradation counters while the source is still
  // alive — the caller may destroy it right after run() returns.
  ingest_.source_health = source.health();
  if (itele_.on()) itele_.health.publish(ingest_.source_health);
  finish();
  return n;
}

void ShardedEngine::finish() {
  if (finished_) return;
  for (Shard& shard : shards_) shard.queue->close();
  for (Shard& shard : shards_) {
    if (shard.thread.joinable()) shard.thread.join();
  }
  for (const Shard& shard : shards_) {
    const auto qs = shard.queue->stats();
    ingest_.producer_blocks += qs.producer_blocks;
    ingest_.peak_queue_depth =
        std::max(ingest_.peak_queue_depth, qs.peak_depth);
  }
  if (itele_.on()) sample_queue_telemetry();
  finished_ = true;
}

void ShardedEngine::sample_queue_telemetry() {
  std::uint64_t blocks = 0;
  std::uint64_t peak = 0;
  for (const Shard& shard : shards_) {
    const auto qs = shard.queue->stats();
    blocks += qs.producer_blocks;
    peak = std::max(peak, qs.peak_depth);
  }
  itele_.producer_blocks->set(blocks);
  itele_.peak_queue_depth->set(peak);
}

void ShardedEngine::require_finished(const char* what) const {
  if (!finished_) {
    throw std::logic_error(std::string("ShardedEngine: ") + what +
                           " before finish() — shard threads still own "
                           "their engines");
  }
}

EngineStats ShardedEngine::stats() const {
  const std::vector<EngineStats> per_shard = shard_stats();
  return aggregate_stats(per_shard);
}

std::vector<EngineStats> ShardedEngine::shard_stats() const {
  require_finished("stats()");
  std::vector<EngineStats> out;
  out.reserve(shards_.size());
  for (const Shard& shard : shards_) out.push_back(shard.engine->stats());
  return out;
}

std::vector<std::pair<ics::LinkId, LinkStats>> ShardedEngine::link_stats()
    const {
  require_finished("link_stats()");
  std::vector<std::pair<ics::LinkId, LinkStats>> out;
  for (const Shard& shard : shards_) {
    const auto ls = shard.engine->link_stats();
    out.insert(out.end(), ls.begin(), ls.end());
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return out;
}

IngestStats ShardedEngine::ingest_stats() const {
  require_finished("ingest_stats()");
  return ingest_;
}

}  // namespace mlad::serve
