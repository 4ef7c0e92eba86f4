#include "workload.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "common/cpu_features.hpp"
#include "detect/pipeline.hpp"
#include "detect/serialize.hpp"
#include "ics/capture.hpp"
#include "ics/simulator.hpp"
#include "ingest/shard_router.hpp"
#include "measure.hpp"
#include "nn/kernel_backend.hpp"

namespace mlad::servebench {
namespace {

// Why each workload exists is recorded in BENCHMARK.json and README.md.
// A run serves several independent sessions (fresh engine, fresh traffic)
// so its figures average over many traffic realizations of the seed: the
// lockstep gate's waits follow each session's random package-count
// divergence between links, which one long session would leave to chance.
constexpr WorkloadSpec kWorkloads[] = {
    {.name = "fleet_1000",
     .links = 1000,
     .cycles = 12,
     .sessions = 8,
     .shards = 3},
    {.name = "plant_8_paced",
     .links = 8,
     .cycles = 100,
     .sessions = 40,
     .shards = 1,
     .paced_fps = 30000.0,
     .sigdb = true,
     .deployed = true},
    {.name = "adapt_64",
     .links = 64,
     .cycles = 100,
     .sessions = 6,
     .shards = 0,
     .paced_fps = 40000.0,
     .adapt = true},
};

/// The quick training recipe: a converged-enough detector in about two
/// seconds, so the serve path, not training, dominates a run.
constexpr std::size_t kTrainCycles = 6000;

detect::PipelineConfig pipeline_config() {
  detect::PipelineConfig cfg;
  cfg.combined.timeseries.hidden_dims = {64};
  cfg.combined.timeseries.epochs = 4;
  cfg.combined.timeseries.batch_size = 8;
  cfg.combined.timeseries.truncate_steps = 48;
  cfg.combined.timeseries.max_k = 10;
  cfg.seed = 5;
  return cfg;
}

std::vector<ics::Package> simulate(std::size_t cycles, std::uint64_t seed) {
  ics::SimulatorConfig cfg;
  cfg.cycles = cycles;
  cfg.seed = seed;
  ics::GasPipelineSimulator sim(cfg);
  return sim.run().packages;
}

}  // namespace

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

std::string workload_names() {
  std::string out;
  for (const WorkloadSpec& w : kWorkloads) {
    if (!out.empty()) out += ", ";
    out += w.name;
  }
  return out;
}

std::size_t Inputs::frames() const {
  std::size_t n = 0;
  for (const Session& s : sessions) n += s.wire.size();
  return n;
}

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed) {
  // splitmix64 is a bijection, so the training capture and every link of
  // every session get distinct simulator seeds: no two links share traffic.
  const std::uint64_t base = ingest::splitmix64(seed);
  Inputs in;
  in.training = simulate(kTrainCycles, ingest::splitmix64(base));
  in.sessions.resize(spec.sessions);
  for (std::size_t s = 0; s < spec.sessions; ++s) {
    Session& session = in.sessions[s];
    std::vector<ics::Capture> captures(spec.links);
    std::vector<ics::LinkId> ids(spec.links);
    std::vector<std::vector<std::uint8_t>> labels(spec.links);
    for (std::size_t l = 0; l < spec.links; ++l) {
      const std::vector<ics::Package> packages = simulate(
          spec.cycles, ingest::splitmix64(base + 1 + s * spec.links + l));
      captures[l].reserve(packages.size());
      labels[l].reserve(packages.size());
      for (const ics::Package& p : packages) {
        captures[l].push_back(ics::package_to_frame(p));
        labels[l].push_back(p.is_attack() ? 1 : 0);
      }
      ids[l] = static_cast<ics::LinkId>(l);
    }
    session.wire = ics::merge_captures(captures, ids);
    session.attack.resize(session.wire.size());
    session.frames_of_link.resize(spec.links);
    for (std::size_t i = 0; i < session.wire.size(); ++i) {
      auto& frames = session.frames_of_link[session.wire[i].link];
      session.attack[i] = labels[session.wire[i].link][frames.size()];
      frames.push_back(static_cast<std::uint32_t>(i));
    }
  }
  return in;
}

Deployed set_up(const WorkloadSpec& spec, const Inputs& in,
                const std::string& dir, SetupTimes& times) {
  Deployed d;
  std::uint64_t t0 = now_ns();
  const detect::TrainedFramework fw =
      detect::train_framework(in.training, pipeline_config());
  std::uint64_t t1 = now_ns();
  times.train_s = static_cast<double>(t1 - t0) * 1e-9;

  t0 = now_ns();
  d.model_path = dir + "/model.mlad";
  detect::save_framework_file(d.model_path, *fw.detector);
  d.detector = detect::load_framework_file(d.model_path);
  t1 = now_ns();
  times.load_s = static_cast<double>(t1 - t0) * 1e-9;

  // A deployment ships the .sigdb with the model; only the workloads that
  // serve from it attach it (the others use the in-RAM index).
  t0 = now_ns();
  const detect::PackageLevelDetector& pkg = d.detector->package_level();
  sig::SigDbWriteOptions opts;
  opts.bloom = &pkg.bloom();  // verbatim verdict filter: identical verdicts
  const std::string sigdb_path = dir + "/model.sigdb";
  pkg.database().save_compact(sigdb_path, opts);
  d.view = std::make_unique<sigdb::SigDbView>(
      sigdb::SigDbView::open(sigdb_path));
  if (d.view->size() != pkg.database().size()) {
    throw std::runtime_error("set-up: .sigdb signature count mismatch");
  }
  t1 = now_ns();
  times.sigdb_s = static_cast<double>(t1 - t0) * 1e-9;
  if (spec.sigdb) d.detector->package_level().attach_sigdb(d.view.get());

  t0 = now_ns();
  {
    Engine e = start_engine(spec, d, nullptr, make_sink(spec, dir), nullptr);
    e.finish();
  }
  t1 = now_ns();
  times.engine_s = static_cast<double>(t1 - t0) * 1e-9;
  return d;
}

std::unique_ptr<detect::CombinedDetector> reload(const Deployed& d) {
  return detect::load_framework_file(d.model_path);
}

void Engine::push(const ics::LinkFrame& lf) {
  if (sharded) {
    sharded->push(lf);
  } else {
    single->push(lf.link, lf.frame);
  }
}

void Engine::finish() {
  if (sharded) {
    sharded->finish();
  } else {
    single->finish();
  }
}

std::unique_ptr<serve::JsonlAlarmSink> make_sink(const WorkloadSpec& spec,
                                                 const std::string& dir) {
  if (!spec.deployed) return nullptr;
  return std::make_unique<serve::JsonlAlarmSink>(dir + "/alarms.jsonl");
}

Engine start_engine(const WorkloadSpec& spec, Deployed& d,
                    std::unique_ptr<detect::CombinedDetector> own,
                    std::unique_ptr<serve::JsonlAlarmSink> jsonl,
                    serve::AlarmSink* deliver_to) {
  Engine e;
  e.own_detector = std::move(own);
  e.jsonl = std::move(jsonl);
  if (deliver_to == nullptr) deliver_to = e.jsonl.get();
  if (spec.deployed) e.registry = std::make_unique<obs::MetricsRegistry>();
  detect::CombinedDetector& det =
      e.own_detector ? *e.own_detector : *d.detector;
  if (spec.shards > 0) {
    serve::ShardedEngineConfig cfg;
    cfg.shards = spec.shards;
    cfg.engine.metrics = e.registry.get();
    e.sharded = std::make_unique<serve::ShardedEngine>(det, deliver_to, cfg);
    return e;
  }
  serve::MonitorEngineConfig cfg;
  cfg.metrics = e.registry.get();
  if (spec.adapt) {
    adapt::AdaptConfig acfg;
    acfg.window_len = kAdaptWindow;
    acfg.threads = kAdaptThreads;
    e.trainer = std::make_unique<adapt::OnlineTrainer>(det, acfg);
    cfg.adapter = e.trainer.get();
    cfg.adapt_interval = kAdaptInterval;
  }
  e.single = std::make_unique<serve::MonitorEngine>(det, deliver_to, cfg);
  return e;
}

std::string box_fingerprint() {
  std::ostringstream out;
  out << "nproc=" << std::thread::hardware_concurrency()
      << " cpu=\"" << cpu_feature_summary() << "\""
      << " kernels=" << nn::kernel_backend().name;
  return out.str();
}

}  // namespace mlad::servebench
