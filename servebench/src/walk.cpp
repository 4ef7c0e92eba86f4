#include "walk.hpp"

#include "detect/stream_batch.hpp"
#include "ics/link_mux.hpp"
#include "lockstep.hpp"
#include "obs/metrics.hpp"

namespace mlad::servebench {

std::uint8_t verdict_bits(const detect::CombinedVerdict& v) {
  return static_cast<std::uint8_t>((v.anomaly ? 1 : 0) |
                                   (v.package_level ? 2 : 0) |
                                   (v.timeseries_level ? 4 : 0));
}

double model_flops_per_row(const detect::CombinedDetector& detector) {
  const nn::SequenceModel& model = detector.timeseries_level().model();
  double flops = 0.0;
  double in = static_cast<double>(model.input_dim());
  for (const std::size_t h : model.config().hidden_dims) {
    const double hd = static_cast<double>(h);
    flops += 2.0 * 4.0 * hd * (in + hd);
    in = hd;
  }
  return flops + 2.0 * in * static_cast<double>(model.num_classes());
}

WalkResult layer_walk(const detect::CombinedDetector& detector,
                      const Session& in) {
  const std::size_t n = in.wire.size();
  WalkResult out;
  out.verdict.assign(n, 0);

  // The stage-timer hook records with obs::now_ns, so the walk's own
  // timings use the same clock and subtract cleanly.
  std::vector<ics::Package> packages(n);
  std::vector<double> intervals(n);
  {
    ics::LinkMux mux;
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      ics::LinkMux::Demuxed d = mux.push(in.wire[i].link, in.wire[i].frame);
      packages[i] = std::move(d.decoded.package);
      intervals[i] = d.interval;
    }
    out.decode_ns = obs::now_ns() - t0;
  }
  std::vector<sig::RawRow> rows(n);
  {
    const std::uint64_t t0 = obs::now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      rows[i] = ics::to_raw_row(packages[i], intervals[i]);
    }
    out.features_ns = obs::now_ns() - t0;
  }

  struct Stepper final : Lockstep::Hooks {
    detect::StreamBatch batch;
    obs::LatencyHistogram lookup;
    obs::LatencyHistogram nn;
    const std::vector<sig::RawRow>* rows = nullptr;
    WalkResult* out = nullptr;
    std::vector<std::span<const double>> tick_rows;
    std::vector<detect::CombinedVerdict> verdicts;

    explicit Stepper(const detect::CombinedDetector& d) : batch(d, 0) {
      batch.set_stage_timers({&lookup, &nn});
    }
    void join(std::size_t slot) override { batch.grow(slot + 1); }
    void tick(std::span<const std::uint32_t> fronts) override {
      tick_rows.resize(fronts.size());
      for (std::size_t s = 0; s < fronts.size(); ++s) {
        tick_rows[s] = (*rows)[fronts[s]];
      }
      const std::uint64_t t0 = obs::now_ns();
      batch.step(tick_rows, verdicts);
      out->step_ns += obs::now_ns() - t0;
      ++out->ticks;
      out->rows += fronts.size();
      for (std::size_t s = 0; s < fronts.size(); ++s) {
        out->verdict[fronts[s]] = verdict_bits(verdicts[s]);
        if (verdicts[s].package_level) ++out->package_alarms;
      }
    }
    void retire(std::size_t slot, std::size_t last) override {
      if (slot != last) batch.swap_streams(slot, last);
      batch.shrink(last);
    }
  };
  Stepper stepper(detector);
  stepper.rows = &rows;
  stepper.out = &out;
  Lockstep gate(in.frames_of_link.size());
  for (std::size_t i = 0; i < n; ++i) {
    gate.push(in.wire[i].link, static_cast<std::uint32_t>(i), stepper);
  }
  gate.finish(stepper);
  out.lookup_ns = stepper.lookup.snapshot().sum_ns;
  out.nn_ns = stepper.nn.snapshot().sum_ns;
  return out;
}

}  // namespace mlad::servebench
