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
  // One capture drawing from the caller's rng. At batch_size 1 the step is
  // the per-window reference, not the engine.
  const std::span<const DiscreteFragment> capture[] = {fragments};
  return run_epochs(capture, std::span(&rng, 1), config_.batch_size <= 1);
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

  // One independent Rng stream per capture, derived from (base_seed, key)
  // via FNV-1a: a capture's shuffle and noise draws are a pure function of
  // its own key and data, never of its shard neighbours.
  std::vector<std::span<const DiscreteFragment>> ordered;
  std::vector<Rng> rngs;
  ordered.reserve(captures.size());
  rngs.reserve(captures.size());
  for (std::size_t ci : cap_order) {
    std::uint64_t h = 1469598103934665603ULL;
    for (int b = 0; b < 8; ++b) {
      h ^= (base_seed >> (8 * b)) & 0xffu;
      h *= 1099511628211ULL;
    }
    for (unsigned char ch : captures[ci].key) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
    ordered.push_back(captures[ci].fragments);
    rngs.emplace_back(h);
  }
  return run_epochs(ordered, rngs, /*per_window=*/false);
}

std::vector<double> TimeSeriesDetector::run_epochs(
    std::span<const std::span<const DiscreteFragment>> captures,
    std::span<Rng> rngs, bool per_window) {
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
  std::optional<nn::MinibatchTrainer> engine;
  if (!per_window) engine.emplace(model_, config_.micro_batch, config_.threads);

  // Per-capture streaming encoder state: a fragment stays live only while
  // one of its windows is still pending (a deque keeps element addresses
  // stable), so peak memory is ~one round of code rows per capture.
  struct Feed {
    std::vector<std::size_t> order;        ///< shuffled fragment indices
    std::size_t next = 0;                  ///< next order[] entry to encode
    std::deque<nn::Fragment> live;         ///< encoded, still referenced
    std::deque<std::size_t> live_windows;  ///< pending windows per fragment
    std::vector<nn::WindowRef> pending;    ///< windows not yet consumed
  };
  std::vector<Feed> feeds(captures.size());
  for (std::size_t ci = 0; ci < captures.size(); ++ci) {
    feeds[ci].order.resize(captures[ci].size());
    std::iota(feeds[ci].order.begin(), feeds[ci].order.end(), 0);
  }

  const std::size_t group_size = std::max<std::size_t>(1, config_.batch_size);
  std::vector<double> epoch_losses;
  std::vector<std::span<const nn::WindowRef>> groups(captures.size());

  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    for (std::size_t ci = 0; ci < captures.size(); ++ci) {
      feeds[ci].next = 0;
      rngs[ci].shuffle(feeds[ci].order);
    }
    double loss_sum = 0.0;
    std::size_t steps = 0;
    while (true) {
      // This round's groups: the next up to group_size windows of every
      // capture. Encoding (and its noise draws, re-sampled every epoch) runs
      // serially in each capture's shuffled order, so the partition and the
      // Rng streams are functions of the data and group_size alone — never
      // of micro_batch, threads or listing order.
      bool any = false;
      for (std::size_t ci = 0; ci < captures.size(); ++ci) {
        Feed& fd = feeds[ci];
        while (fd.pending.size() < group_size && fd.next < fd.order.size()) {
          nn::Fragment frag =
              encode_fragment(captures[ci][fd.order[fd.next++]],
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
        groups[ci] = std::span(fd.pending).first(
            std::min(group_size, fd.pending.size()));
        any |= !groups[ci].empty();
      }
      if (!any) break;  // epoch exhausted every capture
      if (engine) {
        // An empty group adds no lane, so it leaves the arithmetic alone.
        loss_sum += engine->step_grouped(groups, slots, config_.grad_clip, opt);
      } else {
        // The per-window reference: one optimizer step per BPTT window.
        for (const std::span<const nn::WindowRef> group : groups) {
          for (const nn::WindowRef& w : group) {
            model_.zero_grads();
            loss_sum += model_.train_fragment(w.inputs, w.targets);
            nn::clip_global_norm(slots, config_.grad_clip);
            opt.step(slots);
          }
        }
      }
      // Retire the consumed window prefix (and any fragment whose windows
      // are all done) of each capture.
      for (std::size_t ci = 0; ci < captures.size(); ++ci) {
        Feed& fd = feeds[ci];
        std::size_t consumed = groups[ci].size();
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
