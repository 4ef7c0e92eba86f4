// The benchmark's workloads, their seeded inputs, and the deployed set-up
// (train → save/load → .sigdb build/open → engine start) each run pays.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/online_trainer.hpp"
#include "detect/combined.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "obs/metrics.hpp"
#include "serve/alarm_sink.hpp"
#include "serve/monitor_engine.hpp"
#include "serve/sharded_engine.hpp"
#include "sigdb/sigdb_view.hpp"

namespace mlad::servebench {

struct WorkloadSpec {
  std::string_view name;
  std::size_t links = 0;
  std::size_t cycles = 0;    ///< simulator cycles per link in one session
  std::size_t sessions = 0;  ///< independent sessions per run
  /// ShardedEngine shards; 0 = one unsharded MonitorEngine driven by push()
  /// (the only engine that accepts an adapter).
  std::size_t shards = 0;
  /// Open loop at this many frames per second; 0 = closed-loop drain.
  double paced_fps = 0.0;
  bool sigdb = false;     ///< serve lookups from the mmap'd .sigdb
  bool deployed = false;  ///< JsonlAlarmSink + MetricsRegistry attached
  bool adapt = false;     ///< OnlineTrainer on
};

/// Null for an unknown name.
const WorkloadSpec* find_workload(std::string_view name);
std::string workload_names();

/// Online-adaptation settings of the adapt workload.
inline constexpr std::size_t kAdaptWindow = 3;
inline constexpr std::size_t kAdaptInterval = 128;
inline constexpr std::size_t kAdaptThreads = 2;

/// One session's traffic: `links` simulated plants (each with its own
/// simulator seed) merged in time order, served by one fresh engine from
/// first frame to finish(). Link ids are 0..links-1 in every session.
struct Session {
  std::vector<ics::LinkFrame> wire;
  std::vector<std::uint8_t> attack;  ///< per wire frame: ground truth
  /// link → wire indices of its frames, i.e. (link, seq) → wire index.
  std::vector<std::vector<std::uint32_t>> frames_of_link;
};

/// Everything generated from the seed before any timing starts.
struct Inputs {
  std::vector<ics::Package> training;  ///< the seed's training capture
  std::vector<Session> sessions;
  std::size_t frames() const;
};
Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// The detector as a deployment serves it.
struct Deployed {
  /// Heap-held so the detector's pointer to it survives moves of Deployed.
  std::unique_ptr<sigdb::SigDbView> view;  ///< attached when spec.sigdb
  std::unique_ptr<detect::CombinedDetector> detector;
  std::string model_path;  ///< saved framework
};

struct SetupTimes {
  double train_s = 0.0;
  double load_s = 0.0;   ///< save + load of the framework file
  double sigdb_s = 0.0;  ///< .sigdb build + open
  double engine_s = 0.0;
  double total() const { return train_s + load_s + sigdb_s + engine_s; }
};

/// One full set-up in `dir`, ending with the workload's engine constructed
/// (and destroyed again) so its start-up cost is part of the timing.
Deployed set_up(const WorkloadSpec& spec, const Inputs& in,
                const std::string& dir, SetupTimes& times);

/// A fresh copy of the shipped detector (adaptation mutates weights, so
/// every adapt pass starts from the saved file).
std::unique_ptr<detect::CombinedDetector> reload(const Deployed& d);

/// The workload's engine and everything it serves with. Members are
/// declared so the engines go first, then the adapter, the sink, and the
/// adapter's detector copy.
struct Engine {
  std::unique_ptr<detect::CombinedDetector> own_detector;  ///< adapt only
  std::unique_ptr<serve::JsonlAlarmSink> jsonl;            ///< deployed only
  std::unique_ptr<obs::MetricsRegistry> registry;          ///< deployed only
  std::unique_ptr<adapt::OnlineTrainer> trainer;           ///< adapt only
  std::unique_ptr<serve::MonitorEngine> single;   ///< shards == 0
  std::unique_ptr<serve::ShardedEngine> sharded;  ///< shards > 0

  void push(const ics::LinkFrame& lf);
  void finish();
};

/// The deployed alarm sink (JSONL audit file in `dir`), or null when the
/// workload counts alarms only.
std::unique_ptr<serve::JsonlAlarmSink> make_sink(const WorkloadSpec& spec,
                                                 const std::string& dir);

/// Start the workload's engine over `d` (or over `own`, the adapt
/// workload's fresh detector), delivering alarms to `deliver_to`.
Engine start_engine(const WorkloadSpec& spec, Deployed& d,
                    std::unique_ptr<detect::CombinedDetector> own,
                    std::unique_ptr<serve::JsonlAlarmSink> jsonl,
                    serve::AlarmSink* deliver_to);

/// "nproc=4 cpu=avx2 fma ... kernels=avx512" — the box fingerprint.
std::string box_fingerprint();

}  // namespace mlad::servebench
