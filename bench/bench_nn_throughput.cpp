// Batched-vs-sequential throughput of the NN engine (DESIGN.md §6): trains
// the bench LSTM workload through (a) the sequential per-window reference
// trainer, (b) the batched engine on one thread, and (c) the batched engine
// on all cores, then scores the test stream through the sequential and the
// sharded parallel evaluator. Verifies on the way that the determinism
// contract holds (identical losses / confusion across thread counts).
//
// Output: a human table on stdout, and with `--json out.json` a
// machine-readable record (BENCH_nn.json in the repo root is a committed
// baseline produced by this binary).
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "adapt/online_trainer.hpp"
#include "bench_common.hpp"
#include "common/cpu_features.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "detect/package_detector.hpp"
#include "detect/serialize.hpp"
#include "detect/timeseries_detector.hpp"
#include "ics/capture.hpp"
#include "ics/features.hpp"
#include "ics/link_mux.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"
#include "reference_monitor.hpp"
#include "serve/monitor_engine.hpp"

namespace {

using namespace mlad;

// ---- per-backend kernel micro-bench (DESIGN.md §7) -------------------------

struct KernelRun {
  std::string backend;
  double matmul_us = 0.0;  ///< one 64×256 · 256×256 product
  double gates_us = 0.0;   ///< one fused gate pass, B=64, H=128
  double matmul_speedup = 1.0;  ///< vs the scalar backend
  double gates_speedup = 1.0;
};

template <typename F>
double time_us_per_iter(F&& op) {
  // Warm up once, then run until ~0.2 s of wall time has accumulated.
  op();
  Stopwatch sw;
  std::size_t iters = 0;
  do {
    op();
    ++iters;
  } while (sw.elapsed_seconds() < 0.2);
  return sw.elapsed_us() / static_cast<double>(iters);
}

std::vector<KernelRun> bench_kernel_backends() {
  Rng rng(5);
  const auto fill = [&rng](nn::Matrix& m) {
    for (std::size_t i = 0; i < m.size(); ++i) {
      m.data()[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    }
  };
  nn::Matrix a(64, 256), b(256, 256), out;
  fill(a);
  fill(b);
  nn::Matrix ga(64, 4 * 128), gc(64, 128);
  fill(ga);
  fill(gc);
  nn::Matrix gi, gf, go, gg, gcell, gt, gh;

  std::vector<KernelRun> runs;
  for (const std::string& name : nn::available_kernel_backends()) {
    if (!nn::select_kernel_backend(name)) continue;
    KernelRun run;
    run.backend = name;
    run.matmul_us = time_us_per_iter([&] { nn::matmul_nn(a, b, out); });
    run.gates_us = time_us_per_iter(
        [&] { nn::lstm_gates_forward(ga, gc, gi, gf, go, gg, gcell, gt, gh); });
    runs.push_back(run);
  }
  nn::select_kernel_backend_from_env();  // back to the default for the rest
  for (KernelRun& r : runs) {
    r.matmul_speedup =
        r.matmul_us > 0 ? runs.front().matmul_us / r.matmul_us : 0;
    r.gates_speedup = r.gates_us > 0 ? runs.front().gates_us / r.gates_us : 0;
    std::printf(
        "  kernel %-8s matmul %8.2f us (%.2fx)   gates %8.2f us (%.2fx)\n",
        r.backend.c_str(), r.matmul_us, r.matmul_speedup, r.gates_us,
        r.gates_speedup);
  }
  return runs;
}

struct TrainRun {
  std::string name;
  double seconds = 0.0;
  double steps_per_sec = 0.0;
  std::vector<double> losses;
};

struct EvalRun {
  std::string name;
  double us_per_package = 0.0;
  detect::Confusion confusion;
};

struct Workload {
  std::vector<detect::DiscreteFragment> train_frags;
  std::vector<detect::DiscreteFragment> val_frags;
  std::size_t steps_per_epoch = 0;
};

std::vector<detect::DiscreteFragment> discretize(
    const sig::Discretizer& disc,
    std::span<const ics::PackageFragment> fragments) {
  std::vector<detect::DiscreteFragment> out;
  out.reserve(fragments.size());
  for (const auto& f : fragments) {
    out.push_back(disc.transform_all(ics::fragment_rows(f)));
  }
  return out;
}

detect::TimeSeriesConfig ts_config(const bench::Scale& scale,
                                   std::size_t batch, std::size_t threads,
                                   std::size_t micro = 4) {
  detect::TimeSeriesConfig cfg;
  cfg.hidden_dims = scale.hidden;
  cfg.epochs = std::min<std::size_t>(scale.epochs, 6);  // 4 trainings follow
  cfg.truncate_steps = 48;
  cfg.batch_size = batch;
  cfg.micro_batch = micro;
  cfg.threads = threads;
  return cfg;
}

TrainRun train_once(const char* name, const detect::PackageLevelDetector& pkg,
                    const Workload& wl, const detect::TimeSeriesConfig& cfg) {
  TrainRun run;
  run.name = name;
  Rng rng(99);
  detect::TimeSeriesDetector ts(pkg.database(),
                                pkg.discretizer().cardinalities(), cfg, rng);
  Stopwatch sw;
  run.losses = ts.train(wl.train_frags, rng);
  run.seconds = sw.elapsed_seconds();
  run.steps_per_sec = run.seconds > 0.0
                          ? static_cast<double>(wl.steps_per_epoch) *
                                static_cast<double>(cfg.epochs) / run.seconds
                          : 0.0;
  std::printf("  train %-22s %7.2f s   %9.0f steps/s   final loss %.6f\n",
              run.name.c_str(), run.seconds, run.steps_per_sec,
              run.losses.empty() ? 0.0 : run.losses.back());
  return run;
}

bool same_losses(const TrainRun& a, const TrainRun& b) {
  if (a.losses.size() != b.losses.size()) return false;
  for (std::size_t i = 0; i < a.losses.size(); ++i) {
    if (a.losses[i] != b.losses[i]) return false;  // bitwise
  }
  return true;
}

bool same_confusion(const detect::Confusion& a, const detect::Confusion& b) {
  return a.tp == b.tp && a.tn == b.tn && a.fp == b.fp && a.fn == b.fn;
}

// ---- multi-capture train consolidation (DESIGN.md §11) ---------------------

struct BackendConsistency {
  std::string backend;
  bool bit_identical = true;  ///< losses across thread counts AND orders
};

struct ConsolidationRun {
  std::vector<BackendConsistency> backends;
  bool all_backends_identical = true;
  std::size_t captures = 4;
  std::size_t lanes = 4;
  std::size_t rounds = 0;
  std::size_t windows_per_capture = 0;
  std::size_t bptt_steps = 0;
  double sequential_s = 0.0;      ///< 4 per-capture engine.step per round
  double sharded_wall_s = 0.0;    ///< one step_grouped per round, 1 thread
  double sharded_critical_path_s = 0.0;  ///< per-lane isolated timing
  double speedup = 0.0;           ///< sequential / critical path
  double required_speedup = 2.0;
  bool met = false;
  std::uint64_t transpose_calls_per_round_sequential = 0;
  std::uint64_t transpose_calls_per_round_sharded = 0;
  double transpose_reduction = 0.0;
};

nn::Fragment consolidation_fragment(std::size_t classes, std::size_t steps,
                                    std::size_t phase) {
  nn::Fragment f;
  for (std::size_t t = 0; t < steps; ++t) {
    std::vector<float> x(classes, 0.0f);
    x[(t + phase) % classes] = 1.0f;
    f.inputs.push_back(std::move(x));
    f.targets.push_back((t + phase + 1) % classes);
  }
  return f;
}

/// Sharded multi-capture training vs the per-capture-sequential baseline.
///
/// Consistency: for every available kernel backend, detect-level
/// train_sharded (noise on, so the per-capture Rng streams are exercised)
/// must produce bit-identical epoch losses for threads {1, 2} and for a
/// reversed capture listing order.
///
/// Timing: 4 equal captures, each exactly one gradient lane. The sequential
/// baseline takes 4 engine.step calls per round (each re-transposing, since
/// every step invalidates the cache); the sharded engine takes ONE
/// step_grouped per round (one shared transpose refresh, 4 lanes). Lanes
/// run serially on this host but are timed in isolation (lane_seconds), so
/// `critical path = wall − Σ lanes + Σ_rounds max(lane)` is the epoch time
/// on a box with one core per lane.
ConsolidationRun bench_train_consolidation(
    const detect::PackageLevelDetector& pkg, const Workload& wl,
    const bench::Scale& scale) {
  ConsolidationRun out;

  // ---- per-backend bitwise consistency ----------------------------------
  const std::size_t nshards = 4;
  const std::size_t per_shard =
      std::min<std::size_t>(8, wl.train_frags.size() / nshards);
  const auto run_sharded = [&](std::size_t threads, bool reversed) {
    detect::TimeSeriesConfig cfg;
    cfg.hidden_dims = {32};
    cfg.epochs = 2;
    cfg.truncate_steps = 48;
    cfg.batch_size = 4;
    cfg.micro_batch = 2;
    cfg.threads = threads;
    cfg.noise.enabled = true;
    Rng rng(31);
    detect::TimeSeriesDetector ts(pkg.database(),
                                  pkg.discretizer().cardinalities(), cfg, rng);
    const char* keys[] = {"link-a", "link-b", "link-c", "link-d"};
    std::vector<detect::CaptureShard> caps;
    for (std::size_t s = 0; s < nshards; ++s) {
      const std::size_t i = reversed ? nshards - 1 - s : s;
      caps.push_back({keys[i], std::span(wl.train_frags)
                                   .subspan(i * per_shard, per_shard)});
    }
    return ts.train_sharded(caps, /*base_seed=*/123);
  };
  for (const std::string& name : nn::available_kernel_backends()) {
    if (!nn::select_kernel_backend(name)) continue;
    BackendConsistency bc;
    bc.backend = name;
    const std::vector<double> base = run_sharded(1, false);
    bc.bit_identical = base == run_sharded(2, false) &&
                       base == run_sharded(1, true);  // bitwise
    out.all_backends_identical &= bc.bit_identical;
    std::printf("  consolidation %-8s losses bit-identical across "
                "threads+orders: %s\n",
                bc.backend.c_str(),
                bc.bit_identical ? "yes" : "NO — DETERMINISM BUG");
    out.backends.push_back(std::move(bc));
  }
  nn::select_kernel_backend_from_env();

  // ---- sharded vs per-capture-sequential epoch timing -------------------
  out.windows_per_capture = 8;
  out.bptt_steps = 48;
  out.rounds = 20;
  const std::size_t classes = 8;
  std::vector<std::vector<nn::Fragment>> cap_frags(out.captures);
  std::vector<std::vector<nn::WindowRef>> cap_windows(out.captures);
  for (std::size_t c = 0; c < out.captures; ++c) {
    for (std::size_t w = 0; w < out.windows_per_capture; ++w) {
      cap_frags[c].push_back(
          consolidation_fragment(classes, out.bptt_steps, 3 * c + w));
    }
    for (const nn::Fragment& f : cap_frags[c]) {
      cap_windows[c].push_back({std::span(f.inputs), std::span(f.targets)});
    }
  }
  nn::SequenceModelConfig mcfg;
  mcfg.input_dim = classes;
  mcfg.num_classes = classes;
  mcfg.hidden_dims = scale.hidden;
  const auto make_model = [&mcfg] {
    nn::SequenceModel model(mcfg);
    Rng rng(17);
    model.init_params(rng);
    return model;
  };

  {  // sequential: each capture is its own optimizer step, re-transposing
    nn::SequenceModel model = make_model();
    nn::MinibatchTrainer engine(model, out.windows_per_capture, 1);
    nn::Adam opt(3e-3);
    const auto slots = model.param_slots();
    for (std::size_t c = 0; c < out.captures; ++c) {
      engine.step(cap_windows[c], slots, 5.0, opt);  // warm-up round
    }
    nn::reset_transpose_stats();
    Stopwatch sw;
    for (std::size_t r = 0; r < out.rounds; ++r) {
      for (std::size_t c = 0; c < out.captures; ++c) {
        engine.step(cap_windows[c], slots, 5.0, opt);
      }
    }
    out.sequential_s = sw.elapsed_seconds();
    out.transpose_calls_per_round_sequential =
        nn::transpose_stats().calls / out.rounds;
  }
  {  // sharded: one grouped step per round, one transpose refresh, 4 lanes
    nn::SequenceModel model = make_model();
    nn::MinibatchTrainer engine(model, out.windows_per_capture, 1);
    nn::Adam opt(3e-3);
    const auto slots = model.param_slots();
    std::vector<std::span<const nn::WindowRef>> groups;
    for (const auto& w : cap_windows) groups.push_back(w);
    engine.step_grouped(groups, slots, 5.0, opt);  // warm-up round
    nn::reset_transpose_stats();
    for (std::size_t r = 0; r < out.rounds; ++r) {
      Stopwatch sw;
      engine.step_grouped(groups, slots, 5.0, opt);
      const double wall = sw.elapsed_seconds();
      double lane_sum = 0.0, lane_max = 0.0;
      for (const double s : engine.lane_seconds()) {
        lane_sum += s;
        lane_max = std::max(lane_max, s);
      }
      out.sharded_wall_s += wall;
      out.sharded_critical_path_s += wall - lane_sum + lane_max;
    }
    out.transpose_calls_per_round_sharded =
        nn::transpose_stats().calls / out.rounds;
  }
  out.speedup = out.sharded_critical_path_s > 0
                    ? out.sequential_s / out.sharded_critical_path_s
                    : 0.0;
  out.transpose_reduction =
      out.transpose_calls_per_round_sharded > 0
          ? static_cast<double>(out.transpose_calls_per_round_sequential) /
                static_cast<double>(out.transpose_calls_per_round_sharded)
          : 0.0;
  out.met = out.speedup >= out.required_speedup && out.all_backends_identical;

  std::printf("  consolidation %zu captures x %zu windows x %zu steps, "
              "%zu rounds:\n",
              out.captures, out.windows_per_capture, out.bptt_steps,
              out.rounds);
  std::printf("    sequential per-capture   %7.3f s   (%llu transposes/round)\n",
              out.sequential_s,
              static_cast<unsigned long long>(
                  out.transpose_calls_per_round_sequential));
  std::printf("    sharded wall (1 core)    %7.3f s   (%llu transposes/round, "
              "%.1fx fewer)\n",
              out.sharded_wall_s,
              static_cast<unsigned long long>(
                  out.transpose_calls_per_round_sharded),
              out.transpose_reduction);
  std::printf("    sharded critical path    %7.3f s   (%zu-lane box)   "
              "%5.2fx vs sequential (required %.1fx: %s)\n",
              out.sharded_critical_path_s, out.lanes, out.speedup,
              out.required_speedup, out.met ? "met" : "NOT MET");
  return out;
}

void write_train_json(const char* path, const bench::Scale& scale,
                      std::size_t hw_threads, const ConsolidationRun& run) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_nn_throughput\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.name);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw_threads);
  std::fprintf(f, "  \"cpu\": \"%s\",\n", cpu_feature_summary().c_str());
  std::fprintf(f, "  \"default_kernel_backend\": \"%s\",\n",
               nn::kernel_backend().name);
  std::fprintf(f, "  \"train_consolidation\": {\n");
  std::fprintf(f, "    \"captures\": %zu,\n", run.captures);
  std::fprintf(f, "    \"lanes\": %zu,\n", run.lanes);
  std::fprintf(f, "    \"rounds\": %zu,\n", run.rounds);
  std::fprintf(f, "    \"windows_per_capture\": %zu,\n",
               run.windows_per_capture);
  std::fprintf(f, "    \"bptt_steps\": %zu,\n", run.bptt_steps);
  std::fprintf(f, "    \"backends\": {\n");
  for (std::size_t i = 0; i < run.backends.size(); ++i) {
    std::fprintf(f,
                 "      \"%s\": {\"losses_bit_identical_across_threads_"
                 "and_orders\": %s}%s\n",
                 run.backends[i].backend.c_str(),
                 run.backends[i].bit_identical ? "true" : "false",
                 i + 1 < run.backends.size() ? "," : "");
  }
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"all_backends_bit_identical\": %s,\n",
               run.all_backends_identical ? "true" : "false");
  std::fprintf(f, "    \"sequential_per_capture_s\": %.4f,\n",
               run.sequential_s);
  std::fprintf(f, "    \"sharded_wall_s\": %.4f,\n", run.sharded_wall_s);
  std::fprintf(f, "    \"sharded_critical_path_s\": %.4f,\n",
               run.sharded_critical_path_s);
  std::fprintf(f, "    \"transpose_calls_per_round_sequential\": %llu,\n",
               static_cast<unsigned long long>(
                   run.transpose_calls_per_round_sequential));
  std::fprintf(f, "    \"transpose_calls_per_round_sharded\": %llu,\n",
               static_cast<unsigned long long>(
                   run.transpose_calls_per_round_sharded));
  std::fprintf(f, "    \"transpose_calls_reduction\": %.2f,\n",
               run.transpose_reduction);
  std::fprintf(f, "    \"criterion\": {\n");
  std::fprintf(f, "      \"required_speedup_4lanes\": %.2f,\n",
               run.required_speedup);
  std::fprintf(f, "      \"measured_speedup_4lanes\": %.3f,\n", run.speedup);
  std::fprintf(f, "      \"met\": %s\n", run.met ? "true" : "false");
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

// ---- multi-link serve engine (DESIGN.md §8) --------------------------------

struct ServeRun {
  std::size_t links = 0;
  std::uint64_t packages = 0;
  std::uint64_t alarms = 0;
  double batched_us = 0.0;    ///< µs/package, lockstep StreamBatch ticks
  double reference_us = 0.0;  ///< µs/package, N per-package monitors
  double speedup = 0.0;
  bool isolated_match = true; ///< merged per-link alarms == isolated runs
};

std::vector<ServeRun> bench_serve(const detect::CombinedDetector& detector) {
  std::vector<ServeRun> runs;
  for (const std::size_t links : {1u, 8u, 32u}) {
    // One short attack-traffic capture per link (distinct seeds), sized so
    // every configuration classifies a similar package total.
    std::vector<ics::Capture> captures;
    for (std::size_t i = 0; i < links; ++i) {
      ics::SimulatorConfig cfg;
      cfg.cycles = std::max<std::size_t>(2400 / links, 75);
      cfg.seed = 9000 + i;
      ics::GasPipelineSimulator sim(cfg);
      const ics::SimulationResult result = sim.run();
      ics::Capture capture;
      capture.reserve(result.packages.size());
      for (const auto& p : result.packages) {
        capture.push_back(ics::package_to_frame(p));
      }
      captures.push_back(std::move(capture));
    }
    const std::vector<ics::LinkFrame> wire = ics::merge_captures(captures);

    const auto run_engine = [&](serve::AlarmSink* sink) {
      serve::MonitorEngine engine(detector, sink);
      engine.replay(wire);
      return engine.stats();
    };
    // Warm one batched pass (kernel dispatch, page-in), then measure.
    run_engine(nullptr);

    ServeRun run;
    run.links = links;
    serve::CountingAlarmSink merged_sink;
    const serve::EngineStats batched = run_engine(&merged_sink);
    const serve::EngineStats reference =
        serve::reference_replay(detector, wire);
    run.packages = batched.packages;
    run.alarms = batched.alarms;
    run.batched_us = batched.us_per_package();
    run.reference_us = reference.us_per_package();
    run.speedup =
        run.batched_us > 0 ? run.reference_us / run.batched_us : 0.0;

    // Acceptance cross-check: every link's merged alarm sequence must equal
    // its isolated single-link batched run (bitwise stream independence).
    for (std::size_t i = 0; i < links && run.isolated_match; ++i) {
      serve::CountingAlarmSink iso_sink;
      serve::MonitorEngine engine(detector, &iso_sink);
      for (const ics::RawFrame& frame : captures[i]) engine.push(0, frame);
      engine.finish();
      std::size_t seen = 0;
      for (const serve::AlarmEvent& e : merged_sink.events()) {
        if (e.link != i) continue;
        if (seen >= iso_sink.count()) { run.isolated_match = false; break; }
        const serve::AlarmEvent& want = iso_sink.events()[seen++];
        if (e.seq != want.seq || e.time != want.time ||
            e.verdict.package_level != want.verdict.package_level) {
          run.isolated_match = false;
          break;
        }
      }
      if (seen != iso_sink.count()) run.isolated_match = false;
    }

    std::printf("  serve %2zu links   batched %7.2f us/pkg   reference "
                "%7.2f us/pkg   %5.2fx   (%llu packages, %llu alarms, "
                "isolated-match %s)\n",
                run.links, run.batched_us, run.reference_us, run.speedup,
                static_cast<unsigned long long>(run.packages),
                static_cast<unsigned long long>(run.alarms),
                run.isolated_match ? "yes" : "NO — INDEPENDENCE BUG");
    runs.push_back(run);
  }
  return runs;
}

// ---- online adaptation (DESIGN.md §9) --------------------------------------

struct AdaptRun {
  std::size_t links = 0;
  std::uint64_t packages = 0;
  double off_us = 0.0;       ///< µs/package, adaptation disabled
  double on_us = 0.0;        ///< µs/package, adaptation on (same wire)
  double overhead_pct = 0.0; ///< tick-path cost of adaptation
  // classify_us deliberately excludes boundary waits and (on a 1-core
  // host) the idle-priority trainer's own CPU, so the end-to-end replay
  // wall time and the measured boundary-wait total are reported alongside
  // — a slow training round cannot hide from these.
  double wall_off_s = 0.0;   ///< whole replay(), adaptation disabled
  double wall_on_s = 0.0;    ///< whole replay(), adaptation on
  double wall_overhead_pct = 0.0;
  double boundary_wait_s = 0.0;  ///< EngineStats::adapt_us total
  std::uint64_t swaps = 0;
  std::uint64_t windows_harvested = 0;
  std::uint64_t rounds = 0;
  std::uint64_t train_steps = 0;
  double train_seconds = 0.0;
  // The wire is anomaly-free, so every alarm is a false alarm; the
  // acceptance criterion is adapted_lstm_fp <= frozen_lstm_fp (the Bloom
  // stage is untouched by adaptation and must match exactly).
  std::uint64_t frozen_lstm_fp = 0;
  std::uint64_t adapted_lstm_fp = 0;
  std::uint64_t frozen_bloom_fp = 0;
  std::uint64_t adapted_bloom_fp = 0;
};

AdaptRun bench_adapt(const detect::CombinedDetector& detector,
                     const Workload& wl) {
  // A converged frozen model (the sections above deliberately undertrain
  // for speed; an undertrained model false-alarms so often that no
  // verdict-clean window could ever be harvested).
  detect::TimeSeriesConfig ts_cfg;
  ts_cfg.hidden_dims = {64};
  ts_cfg.epochs = 24;
  ts_cfg.truncate_steps = 48;
  ts_cfg.batch_size = 16;
  Rng ts_rng(99);
  const detect::PackageLevelDetector& pkg = detector.package_level();
  auto pkg_copy = std::make_unique<detect::PackageLevelDetector>(
      pkg.discretizer(), pkg.database(), pkg.bloom());
  auto ts = std::make_unique<detect::TimeSeriesDetector>(
      pkg_copy->database(), pkg_copy->discretizer().cardinalities(), ts_cfg,
      ts_rng);
  ts->train(wl.train_frags, ts_rng);
  ts->choose_k(wl.val_frags);
  std::string model_bytes;
  {
    const detect::CombinedDetector combined(std::move(pkg_copy),
                                            std::move(ts));
    std::ostringstream out;
    detect::save_framework(out, combined);
    model_bytes = out.str();
  }

  // 8 anomaly-free links whose plant has drifted: same signature
  // vocabulary, much busier supervisory schedule.
  AdaptRun run;
  run.links = 8;
  std::vector<ics::Capture> captures;
  for (std::size_t i = 0; i < run.links; ++i) {
    ics::SimulatorConfig cfg;
    cfg.cycles = 1200;
    cfg.seed = 9100 + i;
    cfg.attacks_enabled = false;
    cfg.setpoint_change_prob = 0.06;
    cfg.manual_episode_prob = 0.03;
    cfg.manual_episode_cycles = 12;
    ics::GasPipelineSimulator sim(cfg);
    const ics::SimulationResult result = sim.run();
    ics::Capture capture;
    capture.reserve(result.packages.size());
    for (const auto& p : result.packages) {
      capture.push_back(ics::package_to_frame(p));
    }
    captures.push_back(std::move(capture));
  }
  const std::vector<ics::LinkFrame> wire = ics::merge_captures(captures);

  const auto load = [&] {
    std::istringstream in(model_bytes);
    return detect::load_framework(in);
  };

  // Frozen pass (warm once for kernel dispatch / page-in, then measure).
  {
    const auto warm = load();
    serve::MonitorEngine engine(*warm, nullptr);
    engine.replay(wire);
  }
  const auto frozen = load();
  serve::MonitorEngine frozen_engine(*frozen, nullptr);
  Stopwatch frozen_sw;
  frozen_engine.replay(wire);
  run.wall_off_s = frozen_sw.elapsed_seconds();
  run.packages = frozen_engine.stats().packages;
  run.off_us = frozen_engine.stats().us_per_package();
  run.frozen_lstm_fp = frozen_engine.stats().timeseries_level_alarms;
  run.frozen_bloom_fp = frozen_engine.stats().package_level_alarms;

  // Adaptive pass over the same wire.
  const auto adaptive = load();
  adapt::AdaptConfig acfg;
  acfg.window_len = 8;
  acfg.replay_capacity = 96;
  acfg.min_windows = 8;
  acfg.epochs_per_round = 1;
  acfg.max_steps_per_round = 448;  // bounds the 1-core CPU bite per round
  acfg.batch_size = 8;
  acfg.micro_batch = 4;
  acfg.threads = 1;
  acfg.seed = 1;
  adapt::OnlineTrainer trainer(*adaptive, acfg);
  serve::MonitorEngineConfig cfg;
  cfg.adapter = &trainer;
  cfg.adapt_interval = 600;
  serve::MonitorEngine engine(*adaptive, nullptr, cfg);
  Stopwatch adapt_sw;
  engine.replay(wire);
  run.wall_on_s = adapt_sw.elapsed_seconds();
  run.on_us = engine.stats().us_per_package();
  run.overhead_pct =
      run.off_us > 0 ? 100.0 * (run.on_us - run.off_us) / run.off_us : 0.0;
  run.wall_overhead_pct =
      run.wall_off_s > 0
          ? 100.0 * (run.wall_on_s - run.wall_off_s) / run.wall_off_s
          : 0.0;
  run.boundary_wait_s = engine.stats().adapt_us * 1e-6;
  run.swaps = engine.stats().model_swaps;
  run.adapted_lstm_fp = engine.stats().timeseries_level_alarms;
  run.adapted_bloom_fp = engine.stats().package_level_alarms;
  const adapt::AdaptStats astats = trainer.stats();
  run.windows_harvested = astats.windows_harvested;
  run.rounds = astats.rounds_completed;
  run.train_steps = astats.train_steps;
  run.train_seconds = astats.train_seconds;

  std::printf(
      "  adapt %2zu links   off %6.2f us/pkg   on %6.2f us/pkg   "
      "overhead %+5.1f%%   (%llu swaps, %llu windows, %llu train steps)\n",
      run.links, run.off_us, run.on_us, run.overhead_pct,
      static_cast<unsigned long long>(run.swaps),
      static_cast<unsigned long long>(run.windows_harvested),
      static_cast<unsigned long long>(run.train_steps));
  std::printf(
      "  adapt end-to-end wall: %.3f s -> %.3f s (%+.1f%%; includes the "
      "idle-priority trainer's whole CPU on this %zu-core host), "
      "boundary waits %.4f s\n",
      run.wall_off_s, run.wall_on_s, run.wall_overhead_pct,
      ThreadPool::hardware_threads(), run.boundary_wait_s);
  std::printf(
      "  adapt false alarms on anomaly-free drifted wire: lstm %llu -> "
      "%llu   bloom %llu -> %llu   (%s)\n",
      static_cast<unsigned long long>(run.frozen_lstm_fp),
      static_cast<unsigned long long>(run.adapted_lstm_fp),
      static_cast<unsigned long long>(run.frozen_bloom_fp),
      static_cast<unsigned long long>(run.adapted_bloom_fp),
      run.adapted_lstm_fp <= run.frozen_lstm_fp
          ? "adapted <= frozen"
          : "ADAPTED WORSE — REGRESSION");
  return run;
}

void write_json(const char* path, const bench::Scale& scale,
                std::size_t hw_threads, const std::vector<KernelRun>& kernels,
                const std::vector<TrainRun>& trains,
                const std::vector<EvalRun>& evals,
                const std::vector<ServeRun>& serves, const AdaptRun& adapt,
                bool losses_identical, bool confusion_identical,
                bool streams_identical) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path);
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"bench_nn_throughput\",\n");
  std::fprintf(f, "  \"scale\": \"%s\",\n", scale.name);
  std::fprintf(f, "  \"hardware_threads\": %zu,\n", hw_threads);
  std::fprintf(f, "  \"cpu\": \"%s\",\n", cpu_feature_summary().c_str());
  std::fprintf(f, "  \"default_kernel_backend\": \"%s\",\n",
               nn::kernel_backend().name);
  std::fprintf(f, "  \"kernels\": {\n");
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelRun& r = kernels[i];
    std::fprintf(f,
                 "    \"%s\": {\"matmul_us\": %.3f, \"gates_us\": %.3f, "
                 "\"matmul_speedup_vs_scalar\": %.3f, "
                 "\"gates_speedup_vs_scalar\": %.3f}%s\n",
                 r.backend.c_str(), r.matmul_us, r.gates_us, r.matmul_speedup,
                 r.gates_speedup, i + 1 < kernels.size() ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"train\": {\n");
  for (std::size_t i = 0; i < trains.size(); ++i) {
    const TrainRun& r = trains[i];
    std::fprintf(f,
                 "    \"%s\": {\"seconds\": %.4f, \"steps_per_sec\": %.1f, "
                 "\"final_loss\": %.9g},\n",
                 r.name.c_str(), r.seconds, r.steps_per_sec,
                 r.losses.empty() ? 0.0 : r.losses.back());
    (void)i;
  }
  const double base = trains.front().seconds;
  std::fprintf(f, "    \"speedup_batched_1thread\": %.3f,\n",
               trains[1].seconds > 0 ? base / trains[1].seconds : 0.0);
  std::fprintf(f, "    \"speedup_batched_all_threads\": %.3f,\n",
               trains[2].seconds > 0 ? base / trains[2].seconds : 0.0);
  std::fprintf(f, "    \"speedup_batched_wide_1thread\": %.3f,\n",
               trains[3].seconds > 0 ? base / trains[3].seconds : 0.0);
  std::fprintf(f, "    \"epoch_losses_identical_across_threads\": %s\n",
               losses_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"eval\": {\n");
  for (const EvalRun& r : evals) {
    std::fprintf(f,
                 "    \"%s\": {\"us_per_package\": %.3f, \"tp\": %zu, "
                 "\"tn\": %zu, \"fp\": %zu, \"fn\": %zu},\n",
                 r.name.c_str(), r.us_per_package, r.confusion.tp,
                 r.confusion.tn, r.confusion.fp, r.confusion.fn);
  }
  const auto eval_by_prefix = [&evals](const char* prefix) -> const EvalRun* {
    for (const EvalRun& r : evals) {
      if (r.name.rfind(prefix, 0) == 0) return &r;
    }
    return nullptr;
  };
  const double single_us = evals.front().us_per_package;
  if (const EvalRun* r = eval_by_prefix("sharded(threads=all)")) {
    std::fprintf(f, "    \"speedup_sharded_all_threads\": %.3f,\n",
                 r->us_per_package > 0 ? single_us / r->us_per_package : 0.0);
  }
  if (const EvalRun* r = eval_by_prefix("streams(S=8")) {
    std::fprintf(f, "    \"speedup_streams8_vs_single\": %.3f,\n",
                 r->us_per_package > 0 ? single_us / r->us_per_package : 0.0);
  }
  if (const EvalRun* r = eval_by_prefix("streams(S=32")) {
    std::fprintf(f, "    \"speedup_streams32_vs_single\": %.3f,\n",
                 r->us_per_package > 0 ? single_us / r->us_per_package : 0.0);
  }
  std::fprintf(f, "    \"confusion_identical_across_threads\": %s,\n",
               confusion_identical ? "true" : "false");
  std::fprintf(f, "    \"streams_confusion_identical_across_threads\": %s\n",
               streams_identical ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"serve\": {\n");
  bool all_isolated = true;
  for (const ServeRun& r : serves) {
    all_isolated = all_isolated && r.isolated_match;
    std::fprintf(f,
                 "    \"links%zu\": {\"packages\": %llu, \"alarms\": %llu, "
                 "\"batched_us_per_package\": %.3f, "
                 "\"reference_us_per_package\": %.3f, "
                 "\"speedup_batched_vs_reference\": %.3f},\n",
                 r.links, static_cast<unsigned long long>(r.packages),
                 static_cast<unsigned long long>(r.alarms), r.batched_us,
                 r.reference_us, r.speedup);
  }
  std::fprintf(f, "    \"per_link_verdicts_match_isolated\": %s\n",
               all_isolated ? "true" : "false");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"adapt\": {\n");
  std::fprintf(f, "    \"links\": %zu,\n", adapt.links);
  std::fprintf(f, "    \"packages\": %llu,\n",
               static_cast<unsigned long long>(adapt.packages));
  std::fprintf(f, "    \"off_us_per_package\": %.3f,\n", adapt.off_us);
  std::fprintf(f, "    \"on_us_per_package\": %.3f,\n", adapt.on_us);
  std::fprintf(f, "    \"tick_path_overhead_pct\": %.2f,\n",
               adapt.overhead_pct);
  std::fprintf(f, "    \"wall_off_seconds\": %.4f,\n", adapt.wall_off_s);
  std::fprintf(f, "    \"wall_on_seconds\": %.4f,\n", adapt.wall_on_s);
  std::fprintf(f, "    \"wall_overhead_pct\": %.2f,\n",
               adapt.wall_overhead_pct);
  std::fprintf(f, "    \"boundary_wait_seconds\": %.4f,\n",
               adapt.boundary_wait_s);
  std::fprintf(f, "    \"swaps\": %llu,\n",
               static_cast<unsigned long long>(adapt.swaps));
  std::fprintf(f, "    \"windows_harvested\": %llu,\n",
               static_cast<unsigned long long>(adapt.windows_harvested));
  std::fprintf(f, "    \"rounds\": %llu,\n",
               static_cast<unsigned long long>(adapt.rounds));
  std::fprintf(f, "    \"train_steps\": %llu,\n",
               static_cast<unsigned long long>(adapt.train_steps));
  std::fprintf(f, "    \"train_seconds\": %.4f,\n", adapt.train_seconds);
  std::fprintf(f, "    \"frozen_lstm_false_alarms\": %llu,\n",
               static_cast<unsigned long long>(adapt.frozen_lstm_fp));
  std::fprintf(f, "    \"adapted_lstm_false_alarms\": %llu,\n",
               static_cast<unsigned long long>(adapt.adapted_lstm_fp));
  std::fprintf(f, "    \"frozen_bloom_false_alarms\": %llu,\n",
               static_cast<unsigned long long>(adapt.frozen_bloom_fp));
  std::fprintf(f, "    \"adapted_bloom_false_alarms\": %llu,\n",
               static_cast<unsigned long long>(adapt.adapted_bloom_fp));
  std::fprintf(f, "    \"adapted_not_worse_than_frozen\": %s\n",
               adapt.adapted_lstm_fp <= adapt.frozen_lstm_fp ? "true"
                                                             : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  const char* train_json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--train-json") == 0 && i + 1 < argc) {
      train_json_path = argv[++i];
    }
  }

  const bench::Scale scale = bench::scale_from_env();
  bench::print_header("NN engine throughput: batched vs sequential", scale);
  const std::size_t hw = ThreadPool::hardware_threads();
  std::printf("hardware threads: %zu   cpu: %s   kernel backend: %s\n", hw,
              cpu_feature_summary().c_str(), nn::kernel_backend().name);

  // ---- kernel backends: scalar vs SIMD ------------------------------------
  const std::vector<KernelRun> kernels = bench_kernel_backends();

  // Shared workload: simulate, split, fit the package level, discretize.
  ics::SimulatorConfig sim_cfg;
  sim_cfg.cycles = std::min<std::size_t>(scale.cycles, 4000);
  sim_cfg.seed = 77;
  ics::GasPipelineSimulator sim(sim_cfg);
  const ics::SimulationResult capture = sim.run();
  const ics::DatasetSplit split = ics::split_dataset(capture.packages);

  std::vector<sig::RawRow> train_rows;
  for (const auto& frag : split.train_fragments) {
    const auto rows = ics::fragment_rows(frag);
    train_rows.insert(train_rows.end(), rows.begin(), rows.end());
  }
  Rng rng(7);
  auto pkg = std::make_unique<detect::PackageLevelDetector>(
      train_rows, ics::default_feature_specs(), rng);

  Workload wl;
  wl.train_frags = discretize(pkg->discretizer(), split.train_fragments);
  wl.val_frags = discretize(pkg->discretizer(), split.validation_fragments);
  for (const auto& frag : wl.train_frags) {
    if (frag.size() >= 2) wl.steps_per_epoch += frag.size() - 1;
  }
  std::printf("workload: %zu fragments, %zu steps/epoch\n",
              wl.train_frags.size(), wl.steps_per_epoch);

  // ---- training: sequential reference vs batched engine -------------------
  // Micro-batch 4 gives a minibatch 4 lanes to spread over the pool; the
  // "wide" mode (micro = batch) shows pure kernel-level batching on one
  // thread. Same SGD semantics either way — one step per 16-window batch.
  std::vector<TrainRun> trains;
  trains.push_back(
      train_once("sequential(batch=1)", *pkg, wl, ts_config(scale, 1, 1)));
  trains.push_back(
      train_once("batched(threads=1)", *pkg, wl, ts_config(scale, 16, 1)));
  trains.push_back(
      train_once("batched(threads=all)", *pkg, wl, ts_config(scale, 16, 0)));
  trains.push_back(train_once("batched-wide(threads=1)", *pkg, wl,
                              ts_config(scale, 16, 1, 16)));
  const bool losses_identical = same_losses(trains[1], trains[2]);
  std::printf("  batched losses identical across thread counts: %s\n",
              losses_identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf("  speedup vs sequential: %.2fx (1 thread), %.2fx (%zu threads)\n",
              trains[1].seconds > 0 ? trains[0].seconds / trains[1].seconds : 0,
              trains[2].seconds > 0 ? trains[0].seconds / trains[2].seconds : 0,
              hw);

  // ---- multi-capture train consolidation ----------------------------------
  std::printf("train consolidation (sharded multi-capture vs sequential):\n");
  const ConsolidationRun consolidation =
      bench_train_consolidation(*pkg, wl, scale);

  // ---- evaluation: single stream vs sharded pool ---------------------------
  auto cfg_eval = ts_config(scale, 16, 0);
  Rng eval_rng(99);
  auto ts = std::make_unique<detect::TimeSeriesDetector>(
      pkg->database(), pkg->discretizer().cardinalities(), cfg_eval, eval_rng);
  ts->train(wl.train_frags, eval_rng);
  ts->choose_k(wl.val_frags);
  const detect::CombinedDetector detector(std::move(pkg), std::move(ts));

  std::vector<EvalRun> evals;
  const auto eval_once = [&](const char* name, int mode,
                             std::size_t streams = 1) {
    EvalRun run;
    run.name = name;
    detect::EvaluationResult r;
    if (mode < 0) {
      r = detect::evaluate_framework(detector, split.test);
    } else {
      detect::EvalOptions opts;
      opts.threads = static_cast<std::size_t>(mode);
      opts.shard_size = 1024;
      opts.streams = streams;
      r = detect::evaluate_framework(detector, split.test, opts);
    }
    run.us_per_package = r.avg_classify_us;
    run.confusion = r.confusion;
    std::printf("  eval  %-22s %8.2f us/package   %s\n", name,
                r.avg_classify_us, detect::to_string(r.confusion).c_str());
    evals.push_back(run);
  };
  eval_once("single-stream", -1);
  eval_once("sharded(threads=1)", 1);
  eval_once("sharded(threads=all)", 0);
  eval_once("streams(S=8,threads=1)", 1, 8);
  eval_once("streams(S=32,threads=1)", 1, 32);
  eval_once("streams(S=8,threads=all)", 0, 8);
  const bool confusion_identical =
      same_confusion(evals[1].confusion, evals[2].confusion);
  std::printf("  sharded confusion identical across thread counts: %s\n",
              confusion_identical ? "yes" : "NO — DETERMINISM BUG");
  const bool streams_identical =
      same_confusion(evals[3].confusion, evals[5].confusion);
  std::printf("  multi-stream confusion identical across thread counts: %s\n",
              streams_identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf(
      "  multi-stream speedup vs single-stream: %.2fx (S=8), %.2fx (S=32)\n",
      evals[3].us_per_package > 0
          ? evals[0].us_per_package / evals[3].us_per_package
          : 0.0,
      evals[4].us_per_package > 0
          ? evals[0].us_per_package / evals[4].us_per_package
          : 0.0);

  // ---- multi-link serve: batched lockstep vs N sequential monitors --------
  std::printf("serve engine (links × {batched, reference}):\n");
  const std::vector<ServeRun> serves = bench_serve(detector);
  bool serve_isolated = true;
  for (const ServeRun& r : serves) serve_isolated &= r.isolated_match;

  // ---- online adaptation: tick-path overhead + drift false alarms ---------
  std::printf("adapt subsystem (8-link drifted anomaly-free wire):\n");
  const AdaptRun adapt_run = bench_adapt(detector, wl);
  const bool adapt_not_worse =
      adapt_run.adapted_lstm_fp <= adapt_run.frozen_lstm_fp;

  if (json_path != nullptr) {
    write_json(json_path, scale, hw, kernels, trains, evals, serves,
               adapt_run, losses_identical, confusion_identical,
               streams_identical);
  }
  if (train_json_path != nullptr) {
    write_train_json(train_json_path, scale, hw, consolidation);
  }
  return (losses_identical && confusion_identical && streams_identical &&
          serve_isolated && adapt_not_worse && consolidation.met)
             ? 0
             : 1;
}
