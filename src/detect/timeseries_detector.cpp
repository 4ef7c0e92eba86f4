#include "detect/timeseries_detector.hpp"

#include <algorithm>
#include <deque>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "nn/softmax.hpp"

namespace mlad::detect {
namespace {

nn::SequenceModelConfig model_config(const sig::SignatureDatabase& db,
                                     std::span<const std::size_t> cards,
                                     const TimeSeriesConfig& config) {
  nn::SequenceModelConfig mc;
  std::size_t one_hot = 0;
  for (std::size_t c : cards) one_hot += c;
  mc.input_dim = one_hot + 1;  // +1: the noisy bit c(t)_{o+1}
  mc.num_classes = db.size();
  mc.hidden_dims = config.hidden_dims;
  return mc;
}

}  // namespace

TimeSeriesDetector::TimeSeriesDetector(const sig::SignatureDatabase& db,
                                       std::vector<std::size_t> cardinalities,
                                       const TimeSeriesConfig& config,
                                       Rng& rng)
    : db_(&db),
      cardinalities_(std::move(cardinalities)),
      config_(config),
      model_(model_config(db, cardinalities_, config)) {
  if (config_.max_k == 0) {
    throw std::invalid_argument(
        "TimeSeriesDetector: max_k must be at least 1 (k = 0 flags every "
        "package)");
  }
  model_.init_params(rng);
}

TimeSeriesDetector::TimeSeriesDetector(const sig::SignatureDatabase& db,
                                       std::vector<std::size_t> cardinalities,
                                       const TimeSeriesConfig& config,
                                       nn::SequenceModel model, std::size_t k)
    : db_(&db),
      cardinalities_(std::move(cardinalities)),
      config_(config),
      model_(std::move(model)) {
  set_k(k);
  std::size_t one_hot = 1;  // the noisy bit
  for (std::size_t c : cardinalities_) one_hot += c;
  if (model_.input_dim() != one_hot || model_.num_classes() != db.size()) {
    throw std::invalid_argument(
        "TimeSeriesDetector: model shape does not match database/schema");
  }
}

nn::Fragment TimeSeriesDetector::encode_fragment(const DiscreteFragment& frag,
                                                 bool with_noise,
                                                 Rng* rng) const {
  nn::Fragment out;
  if (frag.size() < 2) return out;
  out.inputs.reserve(frag.size() - 1);
  out.targets.reserve(frag.size() - 1);
  for (std::size_t t = 0; t + 1 < frag.size(); ++t) {
    // Target: the TRUE signature of the next package (never corrupted).
    const auto id = db_->id_of(frag[t + 1]);
    if (!id) {
      throw std::invalid_argument(
          "TimeSeriesDetector: training fragment contains a signature "
          "missing from the database");
    }

    sig::DiscreteRow row = frag[t];
    bool noisy = false;
    bool insert = false;
    if (with_noise && rng != nullptr) {
      noisy = maybe_corrupt(row, cardinalities_, *db_, config_.noise, *rng);
      insert = noisy && rng->bernoulli(config_.noise.insertion_fraction);
    }

    if (insert) {
      // Insertion mode: the clean package first (phase advances as usual)…
      sig::append_one_hot_codes(frag[t], cardinalities_, /*extra_bit=*/false,
                                out.inputs.emplace_back());
      out.targets.push_back(*id);
      // …then the noisy extra packet, after which the SAME real signature
      // is still due — exactly an injected packet's effect on the stream.
      sig::append_one_hot_codes(row, cardinalities_, /*extra_bit=*/true,
                                out.inputs.emplace_back());
      out.targets.push_back(*id);
    } else {
      sig::append_one_hot_codes(row, cardinalities_, noisy,
                                out.inputs.emplace_back());
      out.targets.push_back(*id);
    }
  }
  return out;
}

void TimeSeriesDetector::set_train_config(const TimeSeriesConfig& config) {
  if (config.hidden_dims != config_.hidden_dims) {
    throw std::invalid_argument(
        "set_train_config: hidden_dims cannot change on a built model");
  }
  if (config.max_k == 0) {
    throw std::invalid_argument("set_train_config: max_k must be at least 1");
  }
  config_ = config;
}

void TimeSeriesDetector::set_k(std::size_t k) {
  if (k == 0) {
    throw std::invalid_argument(
        "TimeSeriesDetector: k must be at least 1 (k = 0 flags every "
        "package)");
  }
  k_ = k;
}

std::vector<double> TimeSeriesDetector::train(
    std::span<const DiscreteFragment> fragments, Rng& rng) {
  nn::Adam opt(config_.learning_rate);
  const auto slots = model_.param_slots();
  if (warm_start_) {
    if (!nn::adam_state_matches(*warm_start_, slots)) {
      throw std::invalid_argument(
          "TimeSeriesDetector: Adam warm-start state does not match the "
          "model (refusing mismatched sidecar)");
    }
    opt.restore(std::move(*warm_start_));
    warm_start_.reset();
  }
  const bool batched = config_.batch_size > 1;
  std::optional<nn::MinibatchTrainer> engine;
  if (batched) {
    engine.emplace(model_, config_.micro_batch, config_.threads);
  }

  std::vector<std::size_t> order(fragments.size());
  std::iota(order.begin(), order.end(), 0);

  std::vector<double> epoch_losses;
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t steps = 0;
    if (batched) {
      // Encoding (and its noise draws) happens serially in shuffled order —
      // exactly the sequence the per-window loop would consume — so the Rng
      // stream never depends on the batch/thread configuration. Encoded
      // fragments live only while a pending window still references them
      // (a deque keeps element addresses stable), so peak memory is one
      // minibatch worth of one-hot floats, not the whole epoch's.
      std::deque<nn::Fragment> live;
      std::deque<std::size_t> live_windows;  // pending windows per fragment
      std::vector<nn::WindowRef> pending;
      const auto release = [&](std::size_t consumed) {
        while (consumed > 0) {
          if (live_windows.front() <= consumed) {
            consumed -= live_windows.front();
            live_windows.pop_front();
            live.pop_front();
          } else {
            live_windows.front() -= consumed;
            consumed = 0;
          }
        }
      };
      const auto flush = [&](bool final_flush) {
        std::size_t done = 0;
        while (pending.size() - done >= config_.batch_size ||
               (final_flush && pending.size() > done)) {
          const std::size_t count =
              std::min(config_.batch_size, pending.size() - done);
          loss_sum += engine->step(std::span(pending).subspan(done, count),
                                   slots, config_.grad_clip, opt);
          done += count;
        }
        pending.erase(pending.begin(),
                      pending.begin() + static_cast<std::ptrdiff_t>(done));
        release(done);
      };
      for (std::size_t fi : order) {
        nn::Fragment frag =
            encode_fragment(fragments[fi], config_.noise.enabled, &rng);
        if (frag.steps() == 0) continue;
        live.push_back(std::move(frag));
        const nn::Fragment& f = live.back();
        const std::size_t truncate =
            config_.truncate_steps == 0 ? f.steps() : config_.truncate_steps;
        std::size_t windows = 0;
        for (std::size_t start = 0; start < f.steps(); start += truncate) {
          const std::size_t end = std::min(f.steps(), start + truncate);
          pending.push_back({std::span(f.inputs.data() + start, end - start),
                             std::span(f.targets.data() + start, end - start)});
          steps += end - start;
          ++windows;
        }
        live_windows.push_back(windows);
        flush(false);
      }
      flush(true);
    } else {
      for (std::size_t fi : order) {
        // Noise is re-sampled every epoch (fresh corruption draws).
        const nn::Fragment frag =
            encode_fragment(fragments[fi], config_.noise.enabled, &rng);
        if (frag.steps() == 0) continue;
        const std::size_t truncate =
            config_.truncate_steps == 0 ? frag.steps() : config_.truncate_steps;
        for (std::size_t start = 0; start < frag.steps(); start += truncate) {
          const std::size_t end = std::min(frag.steps(), start + truncate);
          model_.zero_grads();
          loss_sum += model_.train_fragment(
              std::span(frag.inputs.data() + start, end - start),
              std::span(frag.targets.data() + start, end - start));
          steps += end - start;
          nn::clip_global_norm(slots, config_.grad_clip);
          opt.step(slots);
        }
      }
    }
    epoch_losses.push_back(steps ? loss_sum / static_cast<double>(steps) : 0.0);
  }
  adam_state_ = opt.state();
  return epoch_losses;
}

std::vector<double> TimeSeriesDetector::train_sharded(
    std::span<const CaptureShard> captures, std::uint64_t base_seed) {
  // Canonical capture order: ascending key, independent of listing order.
  std::vector<std::size_t> cap_order(captures.size());
  std::iota(cap_order.begin(), cap_order.end(), 0);
  std::sort(cap_order.begin(), cap_order.end(),
            [&](std::size_t a, std::size_t b) {
              return captures[a].key < captures[b].key;
            });
  for (std::size_t i = 0; i + 1 < cap_order.size(); ++i) {
    if (captures[cap_order[i]].key == captures[cap_order[i + 1]].key) {
      throw std::invalid_argument(
          "train_sharded: duplicate capture key '" +
          captures[cap_order[i]].key + "'");
    }
  }

  nn::Adam opt(config_.learning_rate);
  const auto slots = model_.param_slots();
  if (warm_start_) {
    if (!nn::adam_state_matches(*warm_start_, slots)) {
      throw std::invalid_argument(
          "TimeSeriesDetector: Adam warm-start state does not match the "
          "model (refusing mismatched sidecar)");
    }
    opt.restore(std::move(*warm_start_));
    warm_start_.reset();
  }
  nn::MinibatchTrainer engine(model_, config_.micro_batch, config_.threads);

  // One independent Rng stream per capture, derived from (base_seed, key)
  // via FNV-1a: a capture's shuffle and noise draws are a pure function of
  // its own key and data, never of its shard neighbours.
  std::vector<Rng> rngs;
  rngs.reserve(captures.size());
  for (const CaptureShard& cap : captures) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int b = 0; b < 8; ++b) {
      h ^= (base_seed >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
    for (unsigned char ch : cap.key) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
    rngs.emplace_back(h);
  }

  // Per-capture streaming encoder state: like train()'s batched path, a
  // fragment stays live only while one of its windows is still pending, so
  // peak memory is ~one round of one-hot floats per capture.
  struct Feed {
    std::vector<std::size_t> order;        ///< shuffled fragment indices
    std::size_t next = 0;                  ///< next order[] entry to encode
    std::deque<nn::Fragment> live;         ///< encoded, still referenced
    std::deque<std::size_t> live_windows;  ///< pending windows per fragment
    std::vector<nn::WindowRef> pending;    ///< windows not yet consumed
  };
  std::vector<Feed> feeds(captures.size());
  for (std::size_t ci = 0; ci < captures.size(); ++ci) {
    feeds[ci].order.resize(captures[ci].fragments.size());
    std::iota(feeds[ci].order.begin(), feeds[ci].order.end(), 0);
  }

  const std::size_t group_size = std::max<std::size_t>(1, config_.batch_size);
  std::vector<double> epoch_losses;
  std::vector<std::span<const nn::WindowRef>> groups;
  std::vector<std::size_t> took(captures.size());

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t ci = 0; ci < captures.size(); ++ci) {
      feeds[ci].next = 0;
      rngs[ci].shuffle(feeds[ci].order);
    }
    double loss_sum = 0.0;
    std::size_t steps = 0;
    while (true) {
      // Build this round's groups: up to group_size windows from every
      // capture, in canonical order. The partition is a function of the
      // data and group_size alone — never of threads or listing order.
      groups.clear();
      for (std::size_t ci : cap_order) {
        Feed& fd = feeds[ci];
        while (fd.pending.size() < group_size &&
               fd.next < fd.order.size()) {
          nn::Fragment frag =
              encode_fragment(captures[ci].fragments[fd.order[fd.next++]],
                              config_.noise.enabled, &rngs[ci]);
          if (frag.steps() == 0) continue;
          fd.live.push_back(std::move(frag));
          const nn::Fragment& f = fd.live.back();
          const std::size_t truncate = config_.truncate_steps == 0
                                           ? f.steps()
                                           : config_.truncate_steps;
          std::size_t windows = 0;
          for (std::size_t start = 0; start < f.steps(); start += truncate) {
            const std::size_t end = std::min(f.steps(), start + truncate);
            fd.pending.push_back(
                {std::span(f.inputs.data() + start, end - start),
                 std::span(f.targets.data() + start, end - start)});
            steps += end - start;
            ++windows;
          }
          fd.live_windows.push_back(windows);
        }
        took[ci] = std::min(group_size, fd.pending.size());
        if (took[ci] > 0) {
          groups.push_back(std::span(fd.pending).first(took[ci]));
        }
      }
      if (groups.empty()) break;  // epoch exhausted every capture
      loss_sum += engine.step_grouped(groups, slots, config_.grad_clip, opt);
      // Retire the consumed window prefix (and any fragment whose windows
      // are all done) of each capture.
      for (std::size_t ci : cap_order) {
        Feed& fd = feeds[ci];
        std::size_t consumed = took[ci];
        fd.pending.erase(
            fd.pending.begin(),
            fd.pending.begin() + static_cast<std::ptrdiff_t>(consumed));
        while (consumed > 0) {
          if (fd.live_windows.front() <= consumed) {
            consumed -= fd.live_windows.front();
            fd.live_windows.pop_front();
            fd.live.pop_front();
          } else {
            fd.live_windows.front() -= consumed;
            consumed = 0;
          }
        }
      }
    }
    epoch_losses.push_back(steps ? loss_sum / static_cast<double>(steps)
                                 : 0.0);
  }
  adam_state_ = opt.state();
  return epoch_losses;
}

nn::TopKErrorCurve TimeSeriesDetector::rank_pass(
    std::span<const DiscreteFragment> fragments, std::size_t max_k) const {
  // Streamed evaluation rather than encode_fragment: validation fragments
  // may legitimately contain signatures absent from the training database
  // (that's exactly the package-level validation error); such targets can
  // never be inside S(k), so they count as misses at every k.
  nn::TopKErrorCurve curve(max_k);
  nn::CodeRow codes;
  std::vector<float> probs;
  for (const DiscreteFragment& df : fragments) {
    if (df.size() < 2) continue;
    nn::SequenceModel::State state = model_.make_state();
    for (std::size_t t = 0; t + 1 < df.size(); ++t) {
      codes.clear();
      sig::append_one_hot_codes(df[t], cardinalities_, /*extra_bit=*/false,
                                codes);
      model_.predict(state, codes, probs);
      curve.add(probs, db_->id_of(df[t + 1]));
    }
  }
  return curve;
}

std::vector<double> TimeSeriesDetector::top_k_error_curve(
    std::span<const DiscreteFragment> fragments, std::size_t max_k) const {
  return rank_pass(fragments, max_k).errors();
}

double TimeSeriesDetector::top_k_error(
    std::span<const DiscreteFragment> fragments, std::size_t k) const {
  return rank_pass(fragments, k).error(k);
}

std::size_t TimeSeriesDetector::choose_k(
    std::span<const DiscreteFragment> validation) {
  set_k(nn::smallest_k_below(top_k_error_curve(validation, config_.max_k),
                             config_.theta));
  return k_;
}

TimeSeriesDetector::Stream TimeSeriesDetector::make_stream() const {
  Stream s;
  s.model_state = model_.make_state();
  return s;
}

bool TimeSeriesDetector::is_anomalous(
    const Stream& stream, std::optional<std::size_t> signature_id) const {
  return is_anomalous(stream, signature_id, k_);
}

bool TimeSeriesDetector::is_anomalous(const Stream& stream,
                                      std::optional<std::size_t> signature_id,
                                      std::size_t k) const {
  if (!stream.has_prediction) return false;  // no history yet
  return is_anomalous(std::span<const float>(stream.predicted), signature_id,
                      k);
}

bool TimeSeriesDetector::is_anomalous(std::span<const float> predicted,
                                      std::optional<std::size_t> signature_id,
                                      std::size_t k) const {
  if (!signature_id) return true;  // not even in the database
  return !nn::in_top_k(predicted, *signature_id, k);
}

void TimeSeriesDetector::consume(Stream& stream, const sig::DiscreteRow& row,
                                 bool flagged_anomalous) const {
  // The code row lives in the stream so the per-package hot path is
  // allocation-free once the stream has warmed up.
  stream.codes.clear();
  sig::append_one_hot_codes(row, cardinalities_, flagged_anomalous,
                            stream.codes);
  model_.predict(stream.model_state, stream.codes, stream.predicted);
  stream.has_prediction = true;
}

}  // namespace mlad::detect
