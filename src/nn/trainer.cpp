#include "nn/trainer.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "common/stopwatch.hpp"

namespace mlad::nn {
namespace {

/// Split a fragment into BPTT windows of at most `truncate` steps.
/// Truncation bounds memory and gradient path length; state is NOT carried
/// across windows (fragments are short in this domain, so this matches the
/// paper's fragment-wise training).
std::vector<std::pair<std::size_t, std::size_t>> windows(std::size_t steps,
                                                         std::size_t truncate) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  if (truncate == 0) truncate = steps;
  for (std::size_t start = 0; start < steps; start += truncate) {
    out.emplace_back(start, std::min(steps, start + truncate));
  }
  return out;
}

}  // namespace

MinibatchTrainer::MinibatchTrainer(SequenceModel& model,
                                   std::size_t micro_batch,
                                   std::size_t threads)
    : model_(&model),
      micro_batch_(micro_batch == 0 ? 1 : micro_batch),
      pool_(threads) {}

double MinibatchTrainer::process(std::span<const WindowRef> windows) {
  // One group ⇒ the same micro-batch partition (and therefore bit-identical
  // results) as the original ungrouped engine.
  const std::span<const WindowRef> group[] = {windows};
  return process_grouped(group);
}

double MinibatchTrainer::process_grouped(
    std::span<const std::span<const WindowRef>> groups) {
  model_->zero_grads();
  // The lane partition depends only on the group sizes and micro_batch_ —
  // never on the pool — so lane contents are reproducible. Lanes never
  // straddle a group boundary: each group (capture) accumulates into its
  // own lanes before the fixed-order merge.
  lane_windows_.clear();
  for (const std::span<const WindowRef>& g : groups) {
    for (std::size_t b = 0; b < g.size(); b += micro_batch_) {
      lane_windows_.push_back(g.subspan(b, std::min(micro_batch_,
                                                    g.size() - b)));
    }
  }
  const std::size_t lanes = lane_windows_.size();
  lane_seconds_.assign(lanes, 0.0);
  if (lanes == 0) return 0.0;
  // Weights are frozen between optimizer steps, so one refresh here serves
  // every lane of every minibatch until the next step (DESIGN.md §11).
  if (!tcache_.valid) model_->refresh_transpose_cache(tcache_);
  while (lanes_.size() < lanes) {
    lanes_.push_back(model_->make_grads());
    ws_.emplace_back();
  }
  lane_loss_.assign(lanes, 0.0);

  const auto run_lane = [&](std::size_t mb) {
    Stopwatch lane_sw;
    lanes_[mb].zero();
    // The inner pool pointer is the same pool; nested parallel_for from a
    // worker runs inline, so kernel-level parallelism only kicks in when
    // there is a single lane to run.
    lane_loss_[mb] = model_->train_window_batch(lane_windows_[mb], lanes_[mb],
                                                ws_[mb], pool_.get(),
                                                &tcache_);
    lane_seconds_[mb] = lane_sw.elapsed_seconds();
  };
  if (pool_.get() == nullptr || lanes == 1) {
    for (std::size_t mb = 0; mb < lanes; ++mb) run_lane(mb);
  } else {
    pool_.get()->parallel_for(0, lanes, run_lane);
  }

  // Fixed-order pairwise tree reduction: lane pairing is a function of the
  // lane count alone, so the float sums never depend on the thread count.
  for (std::size_t stride = 1; stride < lanes; stride *= 2) {
    for (std::size_t i = 0; i + stride < lanes; i += 2 * stride) {
      lanes_[i] += lanes_[i + stride];
    }
  }
  const auto slots = model_->param_slots();
  for (std::size_t k = 0; k < slots.size(); ++k) {
    *slots[k].grad += lanes_[0].g[k];
  }
  double loss = 0.0;
  for (std::size_t mb = 0; mb < lanes; ++mb) loss += lane_loss_[mb];
  return loss;
}

double MinibatchTrainer::step(std::span<const WindowRef> windows,
                              std::span<const ParamSlot> slots,
                              double grad_clip, Optimizer& opt) {
  const std::span<const WindowRef> group[] = {windows};
  return step_grouped(group, slots, grad_clip, opt);
}

double MinibatchTrainer::step_grouped(
    std::span<const std::span<const WindowRef>> groups,
    std::span<const ParamSlot> slots, double grad_clip, Optimizer& opt) {
  const double loss = process_grouped(groups);
  clip_global_norm(slots, grad_clip);
  opt.step(slots);
  tcache_.valid = false;  // parameters just changed
  return loss;
}

namespace {

/// The seed's sequential loop: one optimizer step per BPTT window, exactly
/// as before the batched engine existed — kept as the reference semantics.
void run_epoch_sequential(SequenceModel& model,
                          std::span<const Fragment> fragments,
                          std::span<const std::size_t> order, Optimizer& opt,
                          const TrainerConfig& config,
                          std::span<const ParamSlot> slots, double& loss_sum,
                          std::size_t& steps) {
  for (std::size_t fi : order) {
    const Fragment& frag = fragments[fi];
    if (frag.steps() == 0) continue;
    for (const auto& [start, end] : windows(frag.steps(), config.truncate_steps)) {
      model.zero_grads();
      const std::span<const CodeRow> xs(frag.inputs.data() + start,
                                        end - start);
      const std::span<const std::size_t> ts(frag.targets.data() + start,
                                            end - start);
      loss_sum += model.train_fragment(xs, ts);
      steps += end - start;
      clip_global_norm(slots, config.grad_clip);
      opt.step(slots);
    }
  }
}

/// Minibatch mode: windows are gathered across fragments (in shuffled
/// fragment order) and consumed batch_size at a time, one optimizer step
/// per minibatch, through the data-parallel engine.
void run_epoch_batched(std::span<const Fragment> fragments,
                       std::span<const std::size_t> order, Optimizer& opt,
                       const TrainerConfig& config,
                       std::span<const ParamSlot> slots,
                       MinibatchTrainer& engine,
                       std::vector<WindowRef>& window_list, double& loss_sum,
                       std::size_t& steps) {
  window_list.clear();
  for (std::size_t fi : order) {
    const Fragment& frag = fragments[fi];
    if (frag.steps() == 0) continue;
    for (const auto& [start, end] : windows(frag.steps(), config.truncate_steps)) {
      window_list.push_back(
          {std::span(frag.inputs.data() + start, end - start),
           std::span(frag.targets.data() + start, end - start)});
      steps += end - start;
    }
  }
  for (std::size_t b = 0; b < window_list.size(); b += config.batch_size) {
    const std::size_t count =
        std::min(config.batch_size, window_list.size() - b);
    loss_sum += engine.step(std::span(window_list).subspan(b, count), slots,
                            config.grad_clip, opt);
  }
}

}  // namespace

TrainReport train(SequenceModel& model, std::span<const Fragment> fragments,
                  Optimizer& opt, const TrainerConfig& config, Rng& rng) {
  TrainReport report;
  Stopwatch sw;
  const auto slots = model.param_slots();
  const bool batched = config.batch_size > 1;
  std::optional<MinibatchTrainer> engine;
  if (batched) engine.emplace(model, config.micro_batch, config.threads);
  std::vector<WindowRef> window_list;

  std::vector<std::size_t> order(fragments.size());
  std::iota(order.begin(), order.end(), 0);

  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    if (config.shuffle_fragments) rng.shuffle(order);
    double loss_sum = 0.0;
    std::size_t steps = 0;
    if (batched) {
      run_epoch_batched(fragments, order, opt, config, slots, *engine,
                        window_list, loss_sum, steps);
    } else {
      run_epoch_sequential(model, fragments, order, opt, config, slots,
                           loss_sum, steps);
    }
    const double mean = steps ? loss_sum / static_cast<double>(steps) : 0.0;
    report.epoch_losses.push_back(mean);
    report.total_steps += steps;
    if (config.on_epoch) config.on_epoch(epoch, mean);
  }
  report.seconds = sw.elapsed_seconds();
  return report;
}

double mean_loss(const SequenceModel& model,
                 std::span<const Fragment> fragments) {
  double loss = 0.0;
  std::size_t steps = 0;
  for (const Fragment& frag : fragments) {
    if (frag.steps() == 0) continue;
    loss += model.evaluate_fragment(frag.inputs, frag.targets);
    steps += frag.steps();
  }
  return steps ? loss / static_cast<double>(steps) : 0.0;
}

namespace {

/// One streamed pass over the fragments, recording every step's rank.
TopKErrorCurve rank_pass(const SequenceModel& model,
                         std::span<const Fragment> fragments,
                         std::size_t max_k) {
  TopKErrorCurve curve(max_k);
  std::vector<float> probs;
  for (const Fragment& frag : fragments) {
    if (frag.steps() == 0) continue;
    if (frag.inputs.size() != frag.targets.size()) {
      throw std::invalid_argument("top_k_error_curve: length mismatch");
    }
    SequenceModel::State state = model.make_state();
    for (std::size_t t = 0; t < frag.steps(); ++t) {
      model.predict(state, frag.inputs[t], probs);
      curve.add(probs, frag.targets[t]);
    }
  }
  return curve;
}

}  // namespace

std::vector<double> top_k_error_curve(const SequenceModel& model,
                                      std::span<const Fragment> fragments,
                                      std::size_t max_k) {
  return rank_pass(model, fragments, max_k).errors();
}

double top_k_error(const SequenceModel& model,
                   std::span<const Fragment> fragments, std::size_t k) {
  return rank_pass(model, fragments, k).error(k);
}

std::size_t choose_k(const SequenceModel& model,
                     std::span<const Fragment> fragments, double theta,
                     std::size_t max_k) {
  return smallest_k_below(top_k_error_curve(model, fragments, max_k), theta);
}

}  // namespace mlad::nn
