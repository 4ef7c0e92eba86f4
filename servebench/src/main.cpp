// servebench — the end-to-end serve benchmark.
//
//   servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process generates the workload's sessions from the seed (one
// simulated plant per link), trains and deploys the detector, checks the
// serve stack's outputs against references, then serves the sessions
// round after round through the real engine for --seconds. The last stdout
// line is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones. --trace 1 alternates
// untraced rounds with rounds that time the calls into each layer, adds a
// single-threaded layer walk, and reports the per-layer metrics instead.
// Human-readable tables go to stdout above the JSON line. A wrong output
// makes the run exit 1.
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "detect/metrics.hpp"
#include "ingest/package_source.hpp"
#include "lockstep.hpp"
#include "measure.hpp"
#include "obs/metrics.hpp"
#include "walk.hpp"
#include "workload.hpp"

namespace {

using namespace mlad;
using namespace mlad::servebench;
using mlad::servebench::Summary;  // not the one in common/stats.hpp

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Traced runs time the reference replay and the layer walk this often per
/// session and keep the fastest.
constexpr int kTimedRepeats = 3;
/// Untraced rounds per run at the least, whatever --seconds says.
constexpr std::size_t kMinRounds = 2;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
        have_workload = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return have_workload && a.seconds > 0.0;
}

// ---- alarm recording --------------------------------------------------------

struct AlarmRecord {
  ics::LinkId link = 0;
  std::uint64_t seq = 0;
  std::uint8_t bits = 0;
  std::uint64_t at_ns = 0;  ///< arrival at the sink
};

using SwapRecord = serve::CountingAlarmSink::SwapRecord;

/// The sink every engine under test delivers to: it stamps and records
/// each alarm, then forwards it to the workload's real sink (if any). With
/// tracing on it also records a span around its own on_alarm body — the
/// sink call as the engine sees it. Capacity is reserved up front so
/// recording never allocates mid-pass.
class RecordingSink final : public serve::AlarmSink {
 public:
  explicit RecordingSink(std::size_t capacity) {
    alarms_.reserve(capacity);
    spans_.reserve(capacity);
  }
  void reset(serve::AlarmSink* inner, bool trace) {
    inner_ = inner;
    trace_ = trace;
    alarms_.clear();
    spans_.clear();
    swaps_.clear();
  }
  void on_alarm(const serve::AlarmEvent& e) override {
    const std::uint64_t t = now_ns();
    alarms_.push_back({e.link, e.seq, verdict_bits(e.verdict), t});
    if (inner_ != nullptr) inner_->on_alarm(e);
    if (trace_) spans_.push_back({t, now_ns()});
  }
  void on_model_swap(std::uint64_t version, std::uint64_t tick) override {
    swaps_.push_back({version, tick, alarms_.size()});
    if (inner_ != nullptr) inner_->on_model_swap(version, tick);
  }
  void on_rollback(std::uint64_t from, std::uint64_t to,
                   std::uint64_t tick) override {
    if (inner_ != nullptr) inner_->on_rollback(from, to, tick);
  }
  void flush() override {
    if (inner_ != nullptr) inner_->flush();
  }

  const std::vector<AlarmRecord>& alarms() const { return alarms_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<SwapRecord>& swaps() const { return swaps_; }

 private:
  serve::AlarmSink* inner_ = nullptr;
  bool trace_ = false;
  std::vector<AlarmRecord> alarms_;
  std::vector<Span> spans_;
  std::vector<SwapRecord> swaps_;
};

// ---- correctness ------------------------------------------------------------

/// Per-frame verdicts of one engine run over a session, checked against
/// `ref` (nullptr: just build them). Counts frames that were never
/// classified, whose verdict differs from the reference, or whose alarm
/// arrived twice or out of per-link order.
struct Verdicts {
  std::vector<std::uint8_t> bits;  ///< per wire frame
  std::uint64_t failed = 0;
  std::string why;
};

Verdicts collect(const Session& in, const std::vector<AlarmRecord>& alarms,
                 const std::vector<std::uint64_t>& link_packages,
                 const std::vector<std::uint8_t>* ref) {
  Verdicts v;
  v.bits.assign(in.wire.size(), 0);
  std::vector<std::uint8_t> classified(in.wire.size(), 0);
  const auto note = [&](const std::string& why) {
    if (v.why.empty()) v.why = why;
  };
  for (std::size_t l = 0; l < in.frames_of_link.size(); ++l) {
    const auto& frames = in.frames_of_link[l];
    const std::uint64_t got = link_packages[l];
    for (std::size_t s = 0; s < frames.size() && s < got; ++s) {
      classified[frames[s]] = 1;
    }
    if (got < frames.size()) {
      v.failed += frames.size() - got;
      note("link " + std::to_string(l) + ": " + std::to_string(got) +
           " of " + std::to_string(frames.size()) + " frames classified");
    }
    if (got > frames.size()) {
      ++v.failed;
      note("link " + std::to_string(l) + " classified more than it sent");
    }
  }
  std::vector<std::int64_t> last_seq(in.frames_of_link.size(), -1);
  for (const AlarmRecord& a : alarms) {
    if (a.link >= in.frames_of_link.size() ||
        a.seq >= in.frames_of_link[a.link].size()) {
      ++v.failed;
      note("alarm for a frame that was never sent");
      continue;
    }
    if (static_cast<std::int64_t>(a.seq) <= last_seq[a.link]) {
      ++v.failed;
      note("alarms of link " + std::to_string(a.link) +
           " out of order or repeated");
      continue;
    }
    last_seq[a.link] = static_cast<std::int64_t>(a.seq);
    v.bits[in.frames_of_link[a.link][a.seq]] = a.bits;
  }
  if (ref != nullptr) {
    std::uint64_t differ = 0;
    for (std::size_t f = 0; f < v.bits.size(); ++f) {
      if (classified[f] != 0 && v.bits[f] != (*ref)[f]) ++differ;
    }
    if (differ > 0) {
      v.failed += differ;
      note(std::to_string(differ) + " verdicts differ from the reference");
    }
  }
  return v;
}

void add_confusion(const Session& in, const std::vector<std::uint8_t>& bits,
                   detect::Confusion& c) {
  for (std::size_t f = 0; f < bits.size(); ++f) {
    c.record(in.attack[f] != 0, (bits[f] & 1) != 0);
  }
}

std::vector<std::uint64_t> packages_per_link(
    const std::vector<std::pair<ics::LinkId, serve::LinkStats>>& stats,
    std::size_t links) {
  std::vector<std::uint64_t> out(links, 0);
  for (const auto& [id, ls] : stats) {
    if (id < links) out[id] = ls.packages;
  }
  return out;
}

/// What the references say about one session.
struct SessionRef {
  std::vector<std::uint8_t> bits;  ///< 1-shard non-adapting engine verdicts
  std::uint64_t ticks = 0;         ///< that engine's ticks
  /// Its replay time minus the time inside sink calls.
  std::uint64_t replay_self_ns = 0;
  GateModel gate;  ///< release model of the workload's own engine(s)
  /// Adapt workload: the first pass's verdicts and swaps, which every
  /// later pass over the session must repeat exactly.
  bool adapted = false;
  std::vector<std::uint8_t> adapt_bits;
  std::vector<SwapRecord> adapt_swaps;
};

// ---- one pass: one session served by a fresh engine ------------------------

struct Pass {
  std::uint64_t frames = 0;
  std::uint64_t first_offer_ns = 0;
  std::uint64_t finish_call_ns = 0;
  std::uint64_t end_ns = 0;
  double cpu_s = 0.0;
  /// Heap in use at end of feed or after finish(), the larger, above the
  /// pre-pass level (drains: 0).
  double heap_mb = 0.0;
  serve::EngineStats stats;
  std::vector<serve::EngineStats> shard_stats;
  serve::IngestStats ingest;
  adapt::AdaptStats adapt;
  std::vector<std::uint64_t> link_packages;
  // Traced passes only.
  std::uint64_t ingest_ns = 0;  ///< source.next + pump push, all frames

  double wall_s() const {
    return static_cast<double>(end_ns - first_offer_ns) * 1e-9;
  }
  double pps() const { return static_cast<double>(frames) / wall_s(); }
};

struct Bench {
  const WorkloadSpec* spec = nullptr;
  Inputs in;
  Deployed deployed;
  std::string dir;
  std::vector<std::uint64_t> due_ns;  ///< per wire frame, this pass
  std::vector<double> gen_lag_us;       ///< per frame, traced passes
  std::unique_ptr<RecordingSink> sink;
};

/// What a pass consumes, built before its heap baseline: the source's copy
/// of the wire is generated input, and the adapt workload's fresh detector
/// is set-up.
struct PassInputs {
  std::unique_ptr<ingest::CaptureSource> source;
  std::unique_ptr<detect::CombinedDetector> detector;  ///< adapt only
};

PassInputs prepare_pass(const Bench& b, std::size_t session) {
  PassInputs in;
  in.source =
      std::make_unique<ingest::CaptureSource>(b.in.sessions[session].wire);
  if (b.spec->adapt) in.detector = reload(b.deployed);
  return in;
}

/// Serves one session with a fresh engine. A drain offers every frame as
/// fast as the engine takes it, whatever the workload's pacing.
///
/// The heap is read only at the end of the feed and after finish():
/// mallinfo2 walks every arena's free lists under their locks, which took
/// about 240 us per call on fleet_1000 (4-vCPU x86-64 VM), so sampling
/// during the feed would slow the pass it measures.
Pass run_pass(Bench& b, std::size_t session, PassInputs inputs, bool traced,
              bool drain) {
  const WorkloadSpec& spec = *b.spec;
  Pass p;
  const std::size_t n = b.in.sessions[session].wire.size();
  ingest::CaptureSource& source = *inputs.source;
  b.gen_lag_us.clear();
  const double heap0 = drain ? 0.0 : heap_in_use_mb();

  std::unique_ptr<serve::JsonlAlarmSink> jsonl = make_sink(spec, b.dir);
  b.sink->reset(jsonl.get(), traced);
  Engine e = start_engine(spec, b.deployed, std::move(inputs.detector),
                          std::move(jsonl), b.sink.get());

  const double cpu0 = process_cpu_seconds();
  const bool paced = spec.paced_fps > 0.0 && !drain;
  const double period_ns = paced ? 1e9 / spec.paced_fps : 0.0;
  const std::uint64_t start = now_ns() + 1000000;  // 1 ms lead for pacing
  std::uint64_t spin_ns = 0;  // pacing, not serving: excluded from CPU
  ics::LinkFrame lf;
  std::size_t i = 0;
  for (;; ++i) {
    if (paced && i < n) {
      const std::uint64_t due =
          start + static_cast<std::uint64_t>(static_cast<double>(i) *
                                             period_ns);
      b.due_ns[i] = due;
      const std::uint64_t spin0 = now_ns();
      std::uint64_t t = spin0;
      while (t < due) t = now_ns();
      spin_ns += t - spin0;
    }
    if (!traced) {
      if (!source.next(lf)) break;
      const std::uint64_t t = now_ns();
      if (i == 0) p.first_offer_ns = t;
      if (!paced) b.due_ns[i] = t;
      e.push(lf);
    } else {
      const std::uint64_t t0 = now_ns();
      if (!source.next(lf)) break;
      const std::uint64_t t1 = now_ns();
      if (i == 0) p.first_offer_ns = t1;
      if (!paced) b.due_ns[i] = t1;
      e.push(lf);
      const std::uint64_t t2 = now_ns();
      // The unsharded engine has no pump: its push is the whole engine,
      // so only the source read counts as ingest there.
      p.ingest_ns += (spec.shards > 0 ? t2 : t1) - t0;
      // Closed loop: the next frame is due when the feeder is free again.
      const std::uint64_t due = paced ? b.due_ns[i] : t0;
      b.gen_lag_us.push_back(static_cast<double>(t1 - due) * 1e-3);
    }
  }
  p.frames = i;
  const double heap_fed = drain ? 0.0 : heap_in_use_mb();
  p.finish_call_ns = now_ns();
  e.finish();
  p.end_ns = now_ns();
  p.cpu_s =
      process_cpu_seconds() - cpu0 - static_cast<double>(spin_ns) * 1e-9;
  p.heap_mb = drain ? 0.0 : std::max(heap_fed, heap_in_use_mb()) - heap0;

  const std::size_t links = b.in.sessions[session].frames_of_link.size();
  if (e.sharded) {
    p.stats = e.sharded->stats();
    p.shard_stats = e.sharded->shard_stats();
    p.ingest = e.sharded->ingest_stats();
    p.link_packages = packages_per_link(e.sharded->link_stats(), links);
  } else {
    p.stats = e.single->stats();
    p.shard_stats = {p.stats};
    p.link_packages = packages_per_link(e.single->link_stats(), links);
  }
  if (e.trainer) p.adapt = e.trainer->stats();
  return p;
}

// ---- latency samples --------------------------------------------------------

/// Due time of the event that released frame f's tick: the releasing
/// frame's due time, or the finish() call.
std::uint64_t release_due(const Bench& b, const GateModel& gate,
                          std::uint32_t f, std::uint64_t finish_call) {
  const std::int64_t r = gate.releaser[gate.tick_of[f]];
  return r == GateModel::kFinish ? finish_call
                                 : b.due_ns[static_cast<std::size_t>(r)];
}

double diff_ns(std::uint64_t later, std::uint64_t earlier) {
  return static_cast<double>(later) - static_cast<double>(earlier);
}

void add_alarm_samples(const Bench& b, const Session& s, const GateModel& gate,
                       const Pass& p, std::vector<double>& delay_ms,
                       std::vector<double>& latency_us) {
  for (const AlarmRecord& a : b.sink->alarms()) {
    if (a.link >= s.frames_of_link.size() ||
        a.seq >= s.frames_of_link[a.link].size()) {
      continue;  // already counted as failed
    }
    const std::uint32_t f = s.frames_of_link[a.link][a.seq];
    delay_ms.push_back(diff_ns(a.at_ns, b.due_ns[f]) * 1e-6);
    latency_us.push_back(
        diff_ns(a.at_ns, release_due(b, gate, f, p.finish_call_ns)) * 1e-3);
  }
}

// ---- reporting --------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  ///< what the figure is per, or how it is made (table)
};

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %16.6g %-8s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void print_summary(const char* what, const Summary& s, const char* unit) {
  std::printf(
      "  %-16s n=%zu  p50=%.4g %s  p99=%.4g %s (%zu beyond)  "
      "highest resolved p%.4g=%.4g %s\n",
      what, s.n, s.p50, unit, s.p99, unit, samples_beyond(s.n, 0.99),
      s.top_q * 100.0, s.top, unit);
}

void print_json(bool correct, std::uint64_t attempted, std::uint64_t failed,
                const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// A latency reported as the median over sessions of each session's
/// percentiles, every session's samples pooled over its untraced passes.
/// Sessions are independent traffic realizations, so the median keeps one
/// session's catch-up burst (or a short burst of co-tenant load on the box,
/// which reaches only the sessions it overlaps) out of the run's figure.
struct AcrossSessions {
  double p50 = 0.0;
  double p99 = 0.0;
  std::size_t min_n = 0;     ///< fewest samples of one session
  bool p99_resolved = true;  ///< every session's p99 has >= 10 beyond
};

AcrossSessions across_sessions(std::vector<std::vector<double>>& samples) {
  AcrossSessions out;
  std::vector<double> p50;
  std::vector<double> p99;
  for (std::vector<double>& v : samples) {
    const Summary s = summarize(v);
    out.min_n = p50.empty() ? s.n : std::min(out.min_n, s.n);
    out.p99_resolved = out.p99_resolved && s.p99_resolved();
    p50.push_back(s.p50);
    p99.push_back(s.p99);
  }
  out.p50 = quantile(std::move(p50), 0.5);
  out.p99 = quantile(std::move(p99), 0.5);
  return out;
}

void print_sessions(const char* what, const AcrossSessions& a,
                    std::size_t sessions, const char* unit) {
  std::printf("  %-16s median over %zu sessions: p50=%.4g %s  p99=%.4g %s  "
              "(>= %zu samples per session, %zu beyond its p99)\n",
              what, sessions, a.p50, unit, a.p99, unit, a.min_n,
              samples_beyond(a.min_n, 0.99));
}

/// Correctness state of the run: every failed check lands here.
struct Verdict {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void fail(const std::string& why) {
    correct = false;
    std::fprintf(stderr, "servebench: CHECK FAILED: %s\n", why.c_str());
  }
};

double median_of(const std::vector<Pass>& passes,
                 double (*get)(const Pass&)) {
  std::vector<double> v;
  for (const Pass& p : passes) v.push_back(get(p));
  return v.empty() ? 0.0 : quantile(std::move(v), 0.5);
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> bytes;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return bytes;
  unsigned char buf[65536];
  std::size_t got = 0;
  while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + got);
  }
  std::fclose(f);
  return bytes;
}

int run(const Args& args) {
  Bench b;
  b.spec = find_workload(args.workload);
  if (b.spec == nullptr) {
    std::fprintf(stderr, "servebench: unknown workload '%s' (have: %s)\n",
                 args.workload.c_str(), workload_names().c_str());
    return 2;
  }
  const WorkloadSpec& spec = *b.spec;
  std::printf("servebench %s seed=%llu seconds=%g trace=%d\n",
              std::string(spec.name).c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);
  std::printf("box: %s\n", box_fingerprint().c_str());
  (void)obs::now_ns();  // one-time clock calibration, outside any timing

  b.dir = ".bench_tmp/" + std::string(spec.name) + "-" +
          std::to_string(::getpid());
  std::filesystem::create_directories(b.dir);
  struct DirGuard {
    std::string dir;
    ~DirGuard() {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  } guard{b.dir};

  const std::uint64_t g0 = now_ns();
  b.in = make_inputs(spec, args.seed);
  const std::size_t sessions = b.in.sessions.size();
  std::size_t max_frames = 0;
  std::size_t attacks = 0;
  for (const Session& s : b.in.sessions) {
    max_frames = std::max(max_frames, s.wire.size());
    attacks += static_cast<std::size_t>(
        std::count(s.attack.begin(), s.attack.end(), 1));
  }
  const std::size_t total_frames = b.in.frames();
  std::printf("inputs: %zu sessions x %zu links, %zu frames (%.1f%% attack), "
              "%zu training packages, generated in %.2f s\n",
              sessions, spec.links, total_frames,
              100.0 * static_cast<double>(attacks) /
                  static_cast<double>(total_frames),
              b.in.training.size(), static_cast<double>(now_ns() - g0) * 1e-9);

  Verdict verdict;

  // ---- set-up, several times; setup_s is their median ----
  std::vector<SetupTimes> setups;
  std::vector<std::uint8_t> first_model;
  for (int s = 0; s < kSetups; ++s) {
    SetupTimes t;
    b.deployed = set_up(spec, b.in, b.dir, t);
    setups.push_back(t);
    std::vector<std::uint8_t> bytes = read_file(b.deployed.model_path);
    if (s == 0) {
      first_model = std::move(bytes);
    } else if (bytes != first_model) {
      verdict.fail("training is not repeatable: set-up " + std::to_string(s) +
                   " saved a different model");
    }
  }
  const auto setup_median = [&](double (*get)(const SetupTimes&)) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(get(t));
    return quantile(std::move(v), 0.5);
  };
  std::printf("detector: k=%zu, %zu signatures, %s index\n",
              b.deployed.detector->chosen_k(),
              b.deployed.detector->package_level().database().size(),
              spec.sigdb ? ".sigdb" : "in-RAM");

  // ---- references: one unsharded, non-adapting engine per session ----
  b.sink = std::make_unique<RecordingSink>(max_frames);
  b.due_ns.assign(max_frames, 0);
  b.gen_lag_us.reserve(max_frames);
  std::vector<SessionRef> refs(sessions);
  detect::Confusion quality;
  WalkResult walk;  // traced runs: summed over sessions
  std::uint64_t replay_self_ns = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    const Session& in = b.in.sessions[s];
    SessionRef& ref = refs[s];
    // Traced runs time the replay and the layer walk as the fastest of
    // kTimedRepeats, each walk right after a replay, so one scheduling
    // hiccup or a change of load on the box cannot make the walk look
    // slower than the engine it decomposes.
    const int repeats = args.trace ? kTimedRepeats : 1;
    serve::EngineStats stats;
    WalkResult w;
    for (int rep = 0; rep < repeats; ++rep) {
      b.sink->reset(nullptr, args.trace);
      std::vector<std::uint64_t> links;
      Span span;
      {
        serve::MonitorEngine engine(*b.deployed.detector, b.sink.get());
        span.begin = now_ns();
        engine.replay(in.wire);
        span.end = now_ns();
        stats = engine.stats();
        links = packages_per_link(engine.link_stats(), spec.links);
      }
      Verdicts v = collect(in, b.sink->alarms(), links,
                           rep == 0 ? nullptr : &ref.bits);
      if (v.failed != 0) verdict.fail("reference replay: " + v.why);
      if (stats.frames != in.wire.size() ||
          stats.packages != in.wire.size()) {
        verdict.fail("reference replay: packages != frames");
      }
      const std::uint64_t self =
          self_time_ns(std::span<const Span>(&span, 1), b.sink->spans());
      if (rep == 0) {
        ref.bits = std::move(v.bits);
        ref.replay_self_ns = self;
      } else {
        ref.replay_self_ns = std::min(ref.replay_self_ns, self);
      }
      if (!args.trace) continue;
      WalkResult r = layer_walk(*b.deployed.detector, in);
      if (r.verdict != ref.bits || r.ticks != stats.ticks) {
        verdict.fail("session " + std::to_string(s) +
                     ": layer walk verdicts or ticks differ from the "
                     "engine's");
      }
      if (rep == 0 || r.total_ns() < w.total_ns()) w = std::move(r);
    }
    ref.ticks = stats.ticks;
    if (args.trace) {
      walk.decode_ns += w.decode_ns;
      walk.features_ns += w.features_ns;
      walk.step_ns += w.step_ns;
      walk.lookup_ns += w.lookup_ns;
      walk.nn_ns += w.nn_ns;
      walk.ticks += w.ticks;
      walk.rows += w.rows;
      walk.package_alarms += w.package_alarms;
      replay_self_ns += ref.replay_self_ns;
    }
    if (!spec.adapt) add_confusion(in, ref.bits, quality);

    // The release model must reproduce the engine's tick count exactly
    // before its tick attribution is trusted for any latency.
    const GateModel one = model_gate(in.wire, spec.links, 1);
    if (one.ticks() != stats.ticks) {
      verdict.fail("session " + std::to_string(s) + ": gate model predicts " +
                   std::to_string(one.ticks()) + " ticks, the engine ran " +
                   std::to_string(stats.ticks));
    }
    ref.gate = spec.shards > 1 ? model_gate(in.wire, spec.links, spec.shards)
                               : one;
  }

  if (args.trace && walk.total_ns() > replay_self_ns) {
    verdict.fail("the layer walk took longer than the 1-shard engine");
  }

  // ---- measured rounds: every session once per round ----
  // An open-loop pass runs at the offered rate, not at the program's, so
  // paced workloads also drain every session closed loop right after its
  // paced pass; throughput comes from the drains there.
  const bool paced_workload = spec.paced_fps > 0.0;
  std::vector<Pass> passes;  // untraced
  std::vector<Pass> traced;
  std::vector<Pass> drains;  // paced workloads only
  std::vector<Pass> traced_drains;
  std::vector<std::vector<double>> delay_ms(sessions);
  std::vector<std::vector<double>> latency_us(sessions);
  std::vector<double> gate_wait_ms, gen_lag_us, sink_ns_per_alarm;
  const std::size_t per_session = paced_workload ? 2 : 1;
  const std::size_t plans = sessions * per_session;
  const std::uint64_t m0 = now_ns();
  PassInputs next = prepare_pass(b, 0);
  for (std::size_t round = 0;; ++round) {
    const bool trace_round = args.trace && round % 2 == 1;
    const bool enough = round >= (args.trace ? 2 * kMinRounds : kMinRounds);
    if (enough &&
        static_cast<double>(now_ns() - m0) * 1e-9 >= args.seconds) {
      break;
    }
    for (std::size_t k = 0; k < plans; ++k) {
      const std::size_t s = k / per_session;
      const bool drain = k % per_session == 1;
      const Session& in = b.in.sessions[s];
      SessionRef& ref = refs[s];
      const std::size_t n = in.wire.size();
      Pass p = run_pass(b, s, std::move(next), trace_round, drain);
      next = prepare_pass(b, (k + 1) % plans / per_session);
      verdict.attempted += p.frames;
      const std::string label = "round " + std::to_string(round) +
                                " session " + std::to_string(s) +
                                (drain ? " drain" : "");

      if (p.frames != n || p.stats.frames != n || p.stats.packages != n) {
        verdict.fail(label + ": packages != frames");
      }
      for (std::size_t sh = 0; sh < p.shard_stats.size(); ++sh) {
        if (p.shard_stats[sh].ticks != ref.gate.shard_ticks[sh]) {
          verdict.fail(label + ": shard " + std::to_string(sh) + " ran " +
                       std::to_string(p.shard_stats[sh].ticks) +
                       " ticks, the gate model predicts " +
                       std::to_string(ref.gate.shard_ticks[sh]));
        }
      }
      Verdicts v;
      if (spec.adapt) {
        // Adaptation changes verdicts by design: the session's reference is
        // its first pass, which every later pass (drains included) repeats
        // exactly, swap ticks included.
        if (p.stats.model_swaps == 0) verdict.fail(label + ": no weight swap");
        v = collect(in, b.sink->alarms(), p.link_packages,
                    ref.adapted ? &ref.adapt_bits : nullptr);
        if (!ref.adapted) {
          ref.adapted = true;
          ref.adapt_bits = v.bits;
          ref.adapt_swaps = b.sink->swaps();
          add_confusion(in, v.bits, quality);
        } else if (b.sink->swaps() != ref.adapt_swaps) {
          ++v.failed;
          if (v.why.empty()) v.why = "swap ticks differ from the first pass";
        }
      } else {
        v = collect(in, b.sink->alarms(), p.link_packages, &ref.bits);
      }
      if (v.failed != 0) {
        verdict.failed += v.failed;
        verdict.fail(label + ": " + v.why);
      }

      if (drain) {
        (trace_round ? traced_drains : drains).push_back(std::move(p));
        continue;
      }
      if (!trace_round) {
        add_alarm_samples(b, in, ref.gate, p, delay_ms[s], latency_us[s]);
        passes.push_back(std::move(p));
        continue;
      }
      for (std::size_t f = 0; f < n; ++f) {
        gate_wait_ms.push_back(
            diff_ns(release_due(b, ref.gate, static_cast<std::uint32_t>(f),
                                p.finish_call_ns),
                    b.due_ns[f]) *
            1e-6);
      }
      gen_lag_us.insert(gen_lag_us.end(), b.gen_lag_us.begin(),
                        b.gen_lag_us.end());
      std::uint64_t sink_ns = 0;
      for (const Span& sp : b.sink->spans()) sink_ns += sp.end - sp.begin;
      if (!b.sink->spans().empty()) {
        sink_ns_per_alarm.push_back(
            static_cast<double>(sink_ns) /
            static_cast<double>(b.sink->spans().size()));
      }
      traced.push_back(std::move(p));
    }
  }
  // Closed-loop passes: the workload's own on fleet, the drains elsewhere.
  const std::vector<Pass>& capacity = paced_workload ? drains : passes;
  const std::vector<Pass>& traced_capacity =
      paced_workload ? traced_drains : traced;

  // ---- end-to-end metrics (untraced passes) ----
  const AcrossSessions delay = across_sessions(delay_ms);
  const AcrossSessions latency = across_sessions(latency_us);
  if (!delay.p99_resolved) {
    verdict.fail("a session has too few alarms to resolve its p99 (" +
                 std::to_string(delay.min_n) + ")");
  }
  const double attempted = static_cast<double>(verdict.attempted);
  const std::vector<Metric> e2e = {
      {"throughput_pps",
       median_of(capacity, [](const Pass& p) { return p.pps(); }), "1/s",
       paced_workload
           ? "per closed-loop drain: packages / s, first frame to finish()"
           : "per pass: packages / s from first frame offered to finish() "
             "return"},
      {"cpu_us_per_package",
       median_of(passes,
                 [](const Pass& p) {
                   return p.cpu_s * 1e6 /
                          static_cast<double>(p.stats.packages);
                 }),
       "us", "per package: process user+sys CPU, pacing spin excluded"},
      {"detection_delay_p50_ms", delay.p50, "ms",
       "per alarm: frame due -> alarm at the sink (median of sessions)"},
      {"detection_delay_p99_ms", delay.p99, "ms",
       "per alarm: frame due -> alarm at the sink (median of sessions)"},
      {"precision", quality.precision(), "ratio",
       "per frame: alarms vs simulator ground truth"},
      {"recall", quality.recall(), "ratio",
       "per frame: alarms vs simulator ground truth"},
      {"f1", quality.f1(), "ratio", "per frame: of precision and recall"},
      {"setup_s", setup_median([](const SetupTimes& t) { return t.total(); }),
       "s", "median set-up: train + save/load + .sigdb + engine start"},
      {"serve_heap_mb",
       median_of(passes, [](const Pass& p) { return p.heap_mb; }), "MiB",
       "per pass: heap in use at end of feed or after finish(), the larger, "
       "above the pre-pass level"},
      {"verdict_ok_share",
       attempted > 0 ? 1.0 - static_cast<double>(verdict.failed) / attempted
                     : 0.0,
       "ratio", "per frame offered: classified with the reference verdict"},
  };

  std::printf("checks: %zu sessions, gate model ticks = engine ticks; %zu "
              "untraced + %zu traced passes, %zu + %zu drains; %llu of %llu "
              "frames failed\n",
              sessions, passes.size(), traced.size(), drains.size(),
              traced_drains.size(),
              static_cast<unsigned long long>(verdict.failed),
              static_cast<unsigned long long>(verdict.attempted));
  {
    std::vector<double> pps;
    for (const Pass& p : capacity) pps.push_back(p.pps());
    std::sort(pps.begin(), pps.end());
    std::printf("  %s throughput  n=%zu  min=%.0f  q1=%.0f  median=%.0f  "
                "q3=%.0f  max=%.0f /s\n",
                paced_workload ? "drain" : "pass", pps.size(), pps.front(),
                quantile_sorted(pps, 0.25),
                quantile_sorted(pps, 0.5), quantile_sorted(pps, 0.75),
                pps.back());
  }
  if (spec.adapt) {
    std::printf("adapt: median per pass %.0f windows harvested, %.0f rounds, "
                "%.0f swaps\n",
                median_of(passes,
                          [](const Pass& p) {
                            return static_cast<double>(
                                p.adapt.windows_harvested);
                          }),
                median_of(passes,
                          [](const Pass& p) {
                            return static_cast<double>(
                                p.adapt.rounds_completed);
                          }),
                median_of(passes, [](const Pass& p) {
                  return static_cast<double>(p.stats.model_swaps);
                }));
  }
  print_sessions("detection delay", delay, sessions, "ms");
  print_sessions("alarm latency", latency, sessions, "us");
  print_table("end-to-end (tracing off)", e2e);

  if (!args.trace) {
    print_json(verdict.correct, verdict.attempted, verdict.failed, e2e);
    return verdict.correct ? 0 : 1;
  }

  // ---- per-layer metrics (traced passes + layer walk) ----
  const double rows = static_cast<double>(walk.rows);
  const Summary gate_wait = summarize(gate_wait_ms);
  const Summary lag = summarize(gen_lag_us);
  const double pps_off =
      median_of(capacity, [](const Pass& p) { return p.pps(); });
  const double pps_on =
      median_of(traced_capacity, [](const Pass& p) { return p.pps(); });
  const auto per_pkg = [&](std::uint64_t ns) {
    return static_cast<double>(ns) / rows;
  };
  const std::vector<Metric> layers = {
      {"ingest.push_ns",
       median_of(traced,
                 [](const Pass& p) {
                   return static_cast<double>(p.ingest_ns) /
                          static_cast<double>(p.frames);
                 }),
       "ns", "per frame: source.next + pump push (no pump: source.next)"},
      {"ingest.block_share",
       median_of(traced,
                 [](const Pass& p) {
                   return static_cast<double>(p.ingest.producer_blocks) /
                          static_cast<double>(p.frames);
                 }),
       "ratio", "per frame: pump pushes that found the shard queue full"},
      {"ingest.gen_lag_p99_us", lag.p99, "us",
       "per frame: offered - due (closed loop: the source.next call)"},
      {"ics.decode_ns", per_pkg(walk.decode_ns), "ns",
       "per frame: LinkMux::push (walk)"},
      {"ics.features_ns", per_pkg(walk.features_ns), "ns",
       "per package: ics::to_raw_row (walk)"},
      {"detect.lookup_ns", per_pkg(walk.lookup_ns), "ns",
       std::string("per package: classify_batch (walk, ") +
           (spec.sigdb ? ".sigdb)" : "in-RAM index)")},
      {"detect.step_self_ns",
       per_pkg(walk.step_ns - walk.lookup_ns - walk.nn_ns), "ns",
       "per package: StreamBatch::step minus lookup and nn (walk)"},
      {"detect.package_alarm_share",
       static_cast<double>(walk.package_alarms) / rows, "ratio",
       "per package: signature-level alarms (walk)"},
      {"nn.step_ns", per_pkg(walk.nn_ns), "ns",
       "per row: predict_batch (walk)"},
      {"nn.mean_batch_rows", rows / static_cast<double>(walk.ticks), "rows",
       "per tick (walk = 1-shard engine)"},
      {"nn.gflops",
       model_flops_per_row(*b.deployed.detector) * rows /
           static_cast<double>(walk.nn_ns),
       "GFLOP/s", "matmul flops from model dims / predict_batch time (walk)"},
      {"serve.bookkeeping_ns", per_pkg(replay_self_ns) -
                                   per_pkg(walk.total_ns()),
       "ns", "per package: 1-shard replay minus sink calls, minus walk "
             "(fastest of 3 each)"},
      {"serve.shard_skew",
       median_of(traced,
                 [](const Pass& p) {
                   std::uint64_t most = 0;
                   for (const auto& s : p.shard_stats) {
                     most = std::max(most, s.packages);
                   }
                   return static_cast<double>(most) *
                          static_cast<double>(p.shard_stats.size()) /
                          static_cast<double>(p.stats.packages);
                 }),
       "ratio", "per pass: largest shard's packages / mean shard's"},
      {"serve.shard_busy_share",
       median_of(traced,
                 [](const Pass& p) {
                   return p.stats.classify_us * 1e-6 /
                          (p.wall_s() *
                           static_cast<double>(p.shard_stats.size()));
                 }),
       "ratio", "per shard-second of pass wall time: time inside ticks"},
      {"serve.finish_ms",
       median_of(traced,
                 [](const Pass& p) {
                   return static_cast<double>(p.end_ns - p.finish_call_ns) *
                          1e-6;
                 }),
       "ms", "per pass: the finish() call"},
      {"serve.sink_ns",
       sink_ns_per_alarm.empty() ? 0.0 : quantile(sink_ns_per_alarm, 0.5), "ns",
       "per alarm: sink call (record + forward to the workload's sink)"},
      {"serve.alarm_latency_p50_us", latency.p50, "us",
       "per alarm: due of its tick's releasing frame -> sink (untraced "
       "passes, median of sessions)"},
      {"serve.alarm_latency_p99_us", latency.p99, "us",
       "per alarm: due of its tick's releasing frame -> sink (untraced "
       "passes, median of sessions)"},
      {"serve.gate_wait_p50_ms", gate_wait.p50, "ms",
       "per frame: own due -> due of the frame releasing its tick"},
      {"serve.gate_wait_p99_ms", gate_wait.p99, "ms",
       "per frame: own due -> due of the frame releasing its tick"},
      {"adapt.boundary_wait_ms",
       median_of(traced,
                 [](const Pass& p) {
                   return p.stats.adapt_us * 1e-3 /
                          static_cast<double>(p.stats.ticks / kAdaptInterval +
                                              1);
                 }),
       "ms", "per adapt boundary: round wait + weight adoption (off: 0)"},
      {"adapt.train_steps_per_s",
       median_of(traced,
                 [](const Pass& p) {
                   return p.adapt.train_seconds > 0.0
                              ? static_cast<double>(p.adapt.train_steps) /
                                    p.adapt.train_seconds
                              : 0.0;
                 }),
       "1/s", "BPTT steps per trainer-busy second (off: 0)"},
      {"adapt.rounds",
       median_of(traced,
                 [](const Pass& p) {
                   return static_cast<double>(p.adapt.rounds_completed);
                 }),
       "count", "per pass"},
      {"adapt.windows_harvested",
       median_of(traced,
                 [](const Pass& p) {
                   return static_cast<double>(p.adapt.windows_harvested);
                 }),
       "count", "per pass"},
      {"setup.train_s",
       setup_median([](const SetupTimes& t) { return t.train_s; }), "s",
       "median set-up"},
      {"setup.load_s",
       setup_median([](const SetupTimes& t) { return t.load_s; }), "s",
       "median set-up: framework save + load"},
      {"setup.sigdb_s",
       setup_median([](const SetupTimes& t) { return t.sigdb_s; }), "s",
       "median set-up: .sigdb build + open"},
      {"setup.engine_s",
       setup_median([](const SetupTimes& t) { return t.engine_s; }), "s",
       "median set-up: engine start"},
      {"trace.overhead_pct", (pps_off / pps_on - 1.0) * 100.0, "%",
       "untraced vs traced closed-loop throughput (medians)"},
  };
  print_summary("gate wait", gate_wait, "ms");
  print_summary("generator lag", lag, "us");
  print_table("per layer (traced passes + layer walk)", layers);
  print_json(verdict.correct, verdict.attempted, verdict.failed, layers);
  return verdict.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: servebench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::string why;
  if (!self_test(why)) {
    std::fprintf(stderr, "servebench: self-test failed: %s\n", why.c_str());
    return 1;
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "servebench: %s\n", e.what());
    return 1;
  }
}
