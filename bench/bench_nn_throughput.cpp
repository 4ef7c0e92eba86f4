// Batched-vs-sequential throughput of the NN engine (DESIGN.md §6): times
// the scalar vs SIMD kernel backends, trains the bench LSTM workload through
// (a) the sequential per-window reference trainer, (b) the batched engine on
// one thread, and (c) the batched engine on all cores, times sharded
// multi-capture training against the per-capture baseline (DESIGN.md §11),
// then scores the test stream through the single-stream and the batched
// multi-stream evaluator. Verifies on the way that the determinism contract
// holds (identical losses / confusion across thread counts, and across
// capture orders for every kernel backend).
//
// Output: a human table on stdout, and with `--json out.json` a
// machine-readable record (BENCH_nn.json in the repo root is the committed
// record produced by this binary, checked by tools/check_bench_json.py).
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/cpu_features.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "detect/combined.hpp"
#include "detect/package_detector.hpp"
#include "detect/timeseries_detector.hpp"
#include "ics/features.hpp"
#include "nn/kernel_backend.hpp"
#include "nn/kernels.hpp"

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

/// evals[0] (single-stream) µs/package over evals[i]'s.
double eval_speedup(const std::vector<EvalRun>& evals, std::size_t i) {
  return evals[i].us_per_package > 0
             ? evals[0].us_per_package / evals[i].us_per_package
             : 0.0;
}

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
  std::size_t threads = 4;  ///< pool size of both engines
  std::size_t rounds = 0;
  std::size_t windows_per_capture = 0;
  std::size_t bptt_steps = 0;
  double sequential_s = 0.0;      ///< 4 per-capture engine.step per round
  double sharded_wall_s = 0.0;    ///< one step_grouped per round
  double speedup = 0.0;           ///< sequential / sharded, wall time
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
    f.inputs.push_back({static_cast<std::uint32_t>((t + phase) % classes)});
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
/// Timing: 4 equal captures, each exactly one gradient lane, and both
/// engines on a pool of 4 threads. The sequential baseline takes 4
/// engine.step calls per round (each re-transposing, since every step
/// invalidates the cache, and each a single lane, so only the kernels
/// spread over the pool); the sharded engine takes ONE step_grouped per
/// round (one shared transpose refresh, 4 lanes, one per worker). The
/// speedup is the ratio of the two wall times.
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
    nn::MinibatchTrainer engine(model, out.windows_per_capture, out.threads);
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
    nn::MinibatchTrainer engine(model, out.windows_per_capture, out.threads);
    nn::Adam opt(3e-3);
    const auto slots = model.param_slots();
    std::vector<std::span<const nn::WindowRef>> groups;
    for (const auto& w : cap_windows) groups.push_back(w);
    engine.step_grouped(groups, slots, 5.0, opt);  // warm-up round
    nn::reset_transpose_stats();
    Stopwatch sw;
    for (std::size_t r = 0; r < out.rounds; ++r) {
      engine.step_grouped(groups, slots, 5.0, opt);
    }
    out.sharded_wall_s = sw.elapsed_seconds();
    out.transpose_calls_per_round_sharded =
        nn::transpose_stats().calls / out.rounds;
  }
  out.speedup =
      out.sharded_wall_s > 0 ? out.sequential_s / out.sharded_wall_s : 0.0;
  out.transpose_reduction =
      out.transpose_calls_per_round_sharded > 0
          ? static_cast<double>(out.transpose_calls_per_round_sequential) /
                static_cast<double>(out.transpose_calls_per_round_sharded)
          : 0.0;
  out.met = out.speedup >= out.required_speedup && out.all_backends_identical;

  std::printf("  consolidation %zu captures x %zu windows x %zu steps, "
              "%zu rounds, %zu threads:\n",
              out.captures, out.windows_per_capture, out.bptt_steps,
              out.rounds, out.threads);
  std::printf("    sequential per-capture   %7.3f s   (%llu transposes/round)\n",
              out.sequential_s,
              static_cast<unsigned long long>(
                  out.transpose_calls_per_round_sequential));
  std::printf("    sharded                  %7.3f s   (%llu transposes/round, "
              "%.1fx fewer)   %5.2fx vs sequential (required %.1fx: %s)\n",
              out.sharded_wall_s,
              static_cast<unsigned long long>(
                  out.transpose_calls_per_round_sharded),
              out.transpose_reduction, out.speedup, out.required_speedup,
              out.met ? "met" : "NOT MET");
  return out;
}

void write_json(const char* path, const bench::Scale& scale,
                std::size_t hw_threads, const std::vector<KernelRun>& kernels,
                const std::vector<TrainRun>& trains,
                const ConsolidationRun& tc,
                const std::vector<EvalRun>& evals, bool losses_identical,
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
  std::fprintf(f, "  \"train_consolidation\": {\n");
  std::fprintf(f, "    \"captures\": %zu,\n", tc.captures);
  std::fprintf(f, "    \"threads\": %zu,\n", tc.threads);
  std::fprintf(f, "    \"rounds\": %zu,\n", tc.rounds);
  std::fprintf(f, "    \"windows_per_capture\": %zu,\n",
               tc.windows_per_capture);
  std::fprintf(f, "    \"bptt_steps\": %zu,\n", tc.bptt_steps);
  std::fprintf(f, "    \"backends\": {\n");
  for (std::size_t i = 0; i < tc.backends.size(); ++i) {
    std::fprintf(f,
                 "      \"%s\": {\"losses_bit_identical_across_threads_"
                 "and_orders\": %s}%s\n",
                 tc.backends[i].backend.c_str(),
                 tc.backends[i].bit_identical ? "true" : "false",
                 i + 1 < tc.backends.size() ? "," : "");
  }
  std::fprintf(f, "    },\n");
  std::fprintf(f, "    \"all_backends_bit_identical\": %s,\n",
               tc.all_backends_identical ? "true" : "false");
  std::fprintf(f, "    \"sequential_per_capture_s\": %.4f,\n",
               tc.sequential_s);
  std::fprintf(f, "    \"sharded_wall_s\": %.4f,\n", tc.sharded_wall_s);
  std::fprintf(f, "    \"transpose_calls_per_round_sequential\": %llu,\n",
               static_cast<unsigned long long>(
                   tc.transpose_calls_per_round_sequential));
  std::fprintf(f, "    \"transpose_calls_per_round_sharded\": %llu,\n",
               static_cast<unsigned long long>(
                   tc.transpose_calls_per_round_sharded));
  std::fprintf(f, "    \"transpose_calls_reduction\": %.2f,\n",
               tc.transpose_reduction);
  std::fprintf(f, "    \"criterion\": {\n");
  std::fprintf(f, "      \"required_wall_speedup_4threads\": %.2f,\n",
               tc.required_speedup);
  std::fprintf(f, "      \"measured_wall_speedup_4threads\": %.3f,\n",
               tc.speedup);
  std::fprintf(f, "      \"met\": %s\n", tc.met ? "true" : "false");
  std::fprintf(f, "    }\n");
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"eval\": {\n");
  for (const EvalRun& r : evals) {
    std::fprintf(f,
                 "    \"%s\": {\"us_per_package\": %.3f, \"tp\": %zu, "
                 "\"tn\": %zu, \"fp\": %zu, \"fn\": %zu},\n",
                 r.name.c_str(), r.us_per_package, r.confusion.tp,
                 r.confusion.tn, r.confusion.fp, r.confusion.fn);
  }
  std::fprintf(f, "    \"speedup_streams8_vs_single\": %.3f,\n",
               eval_speedup(evals, 1));
  std::fprintf(f, "    \"speedup_streams32_vs_single\": %.3f,\n",
               eval_speedup(evals, 2));
  std::fprintf(f, "    \"streams_confusion_identical_across_threads\": %s\n",
               streams_identical ? "true" : "false");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

}  // namespace

int main(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
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

  // ---- evaluation: single stream vs batched multi-stream ------------------
  auto cfg_eval = ts_config(scale, 16, 0);
  Rng eval_rng(99);
  auto ts = std::make_unique<detect::TimeSeriesDetector>(
      pkg->database(), pkg->discretizer().cardinalities(), cfg_eval, eval_rng);
  ts->train(wl.train_frags, eval_rng);
  ts->choose_k(wl.val_frags);
  const detect::CombinedDetector detector(std::move(pkg), std::move(ts));

  std::vector<EvalRun> evals;
  const auto eval_once = [&](const char* name, std::size_t threads,
                             std::size_t streams) {
    EvalRun run;
    run.name = name;
    const detect::EvaluationResult r = detect::evaluate_framework(
        detector, split.test, {.threads = threads, .streams = streams});
    run.us_per_package = r.avg_classify_us;
    run.confusion = r.confusion;
    std::printf("  eval  %-22s %8.2f us/package   %s\n", name,
                r.avg_classify_us, detect::to_string(r.confusion).c_str());
    evals.push_back(run);
  };
  eval_once("single-stream", 1, 1);
  eval_once("streams(S=8,threads=1)", 1, 8);
  eval_once("streams(S=32,threads=1)", 1, 32);
  eval_once("streams(S=8,threads=all)", 0, 8);
  const bool streams_identical =
      same_confusion(evals[1].confusion, evals[3].confusion);
  std::printf("  multi-stream confusion identical across thread counts: %s\n",
              streams_identical ? "yes" : "NO — DETERMINISM BUG");
  std::printf(
      "  multi-stream speedup vs single-stream: %.2fx (S=8), %.2fx (S=32)\n",
      eval_speedup(evals, 1), eval_speedup(evals, 2));

  if (json_path != nullptr) {
    write_json(json_path, scale, hw, kernels, trains, consolidation, evals,
               losses_identical, streams_identical);
  }
  return (losses_identical && streams_identical && consolidation.met) ? 0 : 1;
}
