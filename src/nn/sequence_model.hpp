// The complete model of Fig. 2: stacked LSTM layers + softmax classifier
// over the signature vocabulary. This is the paper's time-series predictor
//   Pr(s | c(t-1), c(t-2), …)  ∀ s ∈ S.
//
// Inputs are the one-hot-encoded discretized feature vectors c(t) (plus the
// extra "noisy" bit of §V-A-3), given as code rows — their active columns
// (nn/codes.hpp); the target at step t is the *next* package's signature
// id. Fragment alignment is the caller's job (see detect/).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/optimizer.hpp"
#include "nn/softmax.hpp"
#include "nn/stacked_lstm.hpp"

namespace mlad::nn {

struct SequenceModelConfig {
  std::size_t input_dim = 0;    ///< one-hot width of c(t) (+1 noisy bit)
  std::size_t num_classes = 0;  ///< |S|, size of the signature database
  std::vector<std::size_t> hidden_dims = {256, 256};  ///< paper default
};

/// A view of one training window: inputs[t] predicts targets[t].
struct WindowRef {
  std::span<const CodeRow> inputs;
  std::span<const std::size_t> targets;

  std::size_t steps() const { return inputs.size(); }
};

/// Caller-owned gradient buffers, one Matrix per param_slots() entry (per
/// layer w, u, b; then softmax w, b). Micro-batches accumulate into their
/// own ModelGrads so the model stays const during the parallel section; the
/// trainer then merges lanes in a fixed order (DESIGN.md §5).
struct ModelGrads {
  std::vector<Matrix> g;

  void zero() {
    for (Matrix& m : g) m.fill(0.0f);
  }
  /// Element-wise accumulate in fixed order (deterministic reduction step).
  ModelGrads& operator+=(const ModelGrads& other);
};

/// Scratch for one batched forward+backward pass (train_window_batch);
/// reusing it across minibatches makes the steady state allocation-free.
struct BatchWorkspace {
  StackedBatchTape tape;
  std::vector<CodeMatrix> xs;     ///< [t] layer-0 code rows, B_t of them
  std::vector<Matrix> dh_top;     ///< [t] ∂L/∂(top h_t)
  Matrix probs;                   ///< B_t × C softmax scratch (then dlogits)
  Matrix softmax_wT;              ///< H_top × C cached transpose
  std::vector<std::size_t> order; ///< windows sorted longest-first
};

/// Per-model cache of every weight transpose the batched forward needs
/// (DESIGN.md §11). Weights only change at optimizer steps, so the trainer
/// refreshes this once per step instead of once per lane per minibatch; the
/// cached copies are exact transposes, so training results are bit-identical
/// to the self-transposing path. Read-only during the parallel lane section
/// — safe to share across concurrent micro-batches.
struct TransposeCache {
  std::vector<Matrix> wT, uT;  ///< [layer] input/recurrent weight transposes
  Matrix softmax_wT;           ///< H_top × C classifier weight transpose
  bool valid = false;          ///< false ⇒ refresh before next use
};

class SequenceModel {
 public:
  explicit SequenceModel(const SequenceModelConfig& config);

  /// Initialize all parameters from `rng` (deterministic given the seed).
  void init_params(Rng& rng);

  const SequenceModelConfig& config() const { return config_; }
  std::size_t input_dim() const { return config_.input_dim; }
  std::size_t num_classes() const { return config_.num_classes; }

  // ---- Training -----------------------------------------------------------

  /// Forward + BPTT over one fragment. `xs[t]` predicts `targets[t]`.
  /// Accumulates gradients (callers zero_grads()/optimizer-step around it)
  /// and returns the summed cross-entropy loss over the fragment.
  double train_fragment(std::span<const CodeRow> xs,
                        std::span<const std::size_t> targets);

  /// Batched forward + BPTT over up to a micro-batch of windows, processed
  /// as (B × dim) matrices per timestep (DESIGN.md §4). The model is const:
  /// gradients accumulate into `grads` (zeroed by the caller), so several
  /// micro-batches can run concurrently. Returns the summed CE loss.
  /// Matches train_fragment's math to float-rounding (parity-tested).
  ///
  /// `tcache`, when non-null and valid, supplies the weight transposes
  /// (refresh_transpose_cache) so none are recomputed here; results are
  /// bit-identical either way (DESIGN.md §11).
  double train_window_batch(std::span<const WindowRef> windows,
                            ModelGrads& grads, BatchWorkspace& ws,
                            ThreadPool* pool = nullptr,
                            const TransposeCache* tcache = nullptr) const;

  /// Recompute `cache` from the CURRENT parameters and mark it valid. The
  /// owner must invalidate after every parameter mutation (optimizer step,
  /// copy_params_from, re-init) — train_window_batch trusts `valid`.
  void refresh_transpose_cache(TransposeCache& cache) const;

  /// Zero-filled gradient buffers shaped like param_slots().
  ModelGrads make_grads() const;

  /// Forward only; returns summed cross-entropy loss (for validation).
  double evaluate_fragment(std::span<const CodeRow> xs,
                           std::span<const std::size_t> targets) const;

  /// Count of targets NOT in the predicted top-k over a fragment — the
  /// numerator of the paper's top-k error err_k.
  std::size_t top_k_misses(std::span<const CodeRow> xs,
                           std::span<const std::size_t> targets,
                           std::size_t k) const;

  void zero_grads();
  /// Slots for the optimizer: every (param, grad) pair in the model.
  std::vector<ParamSlot> param_slots();

  // ---- Streaming inference (detection phase) ------------------------------

  struct State {
    StackedLstmState lstm;
    LstmStepCache scratch;
  };

  State make_state() const;

  /// Consume one package's code row; emit Pr(s | history) in `probs`.
  void predict(State& state, std::span<const std::uint32_t> codes,
               std::vector<float>& probs) const;

  /// Rolling state for S concurrent inference streams advanced in lockstep:
  /// one (S×dim) batched kernel pass per layer per tick (DESIGN.md §4).
  struct BatchState {
    StreamBatchState lstm;
    Matrix probs;       ///< B×C: Pr(s | history) per stream after the tick
    Matrix softmax_wT;  ///< H_top×C cached transpose
  };

  BatchState make_batch_state(std::size_t streams) const;

  /// One batched tick: x holds B code rows, B = current stream count; row s
  /// of state.probs becomes stream s's next-package distribution. Matches
  /// per-stream predict() to float rounding (batched kernels vs per-sample
  /// reference); bit-identical for any `pool`.
  void predict_batch(BatchState& state, const CodeMatrix& x,
                     ThreadPool* pool = nullptr) const;

  /// Keep only the first n streams of the batched state.
  void shrink_batch_state(BatchState& state, std::size_t n) const;

  /// Activate fresh (zero-state) streams at the back so the state covers n
  /// streams; existing streams' state and predictions are preserved
  /// bit-for-bit, and capacity freed by an earlier shrink is recycled.
  void grow_batch_state(BatchState& state, std::size_t n) const;

  /// Swap two streams' rows (state + prediction) — a pure relabeling used
  /// for leave-compaction in the serve engine's link lifecycle.
  void swap_batch_streams(BatchState& state, std::size_t a,
                          std::size_t b) const;

  /// Re-derive the cached weight transposes in `state` from the CURRENT
  /// parameters, leaving every stream's recurrent state and prediction rows
  /// untouched — the hot-swap hook: after copy_params_from publishes new
  /// weights, the serve engine refreshes its batch caches between ticks and
  /// all live streams carry their histories across the swap.
  void refresh_batch_state(BatchState& state) const;

  /// One stream's rows lifted out of a BatchState — the park/unpark
  /// currency of the serve engine's straggler policy.
  struct StreamSnapshot {
    StackedLstmState lstm;
    std::vector<float> probs;  ///< empty if the stream never ticked
  };

  StreamSnapshot extract_batch_stream(const BatchState& state,
                                      std::size_t s) const;
  /// Overwrite stream `s` (which must be active) with a snapshot taken by
  /// extract_batch_stream — possibly in a different BatchState or after
  /// grow/shrink cycles, as long as the model shape is unchanged.
  void restore_batch_stream(BatchState& state, std::size_t s,
                            const StreamSnapshot& snapshot) const;

  // ---- Cloning / parameter adoption ---------------------------------------

  /// Deep copy (the type is a plain value; this spells out the intent): the
  /// online-adaptation trainer clones the serving model once and trains the
  /// clone, so training never touches the weights the engine is serving.
  SequenceModel clone() const { return *this; }

  /// Copy ONLY the parameter tensors from `other` (shapes must match;
  /// throws std::invalid_argument otherwise). Allocation-free after the
  /// first call — the swap-in path the serve engine runs between ticks.
  void copy_params_from(const SequenceModel& other);

  // ---- Introspection ------------------------------------------------------

  std::size_t param_count() const;
  /// Serialized model footprint in bytes (float32 parameters + header),
  /// comparable to the paper's reported 684 KB combined model size.
  std::size_t memory_bytes() const;

  StackedLstm& lstm() { return lstm_; }
  const StackedLstm& lstm() const { return lstm_; }
  SoftmaxLayer& output_layer() { return softmax_; }
  const SoftmaxLayer& output_layer() const { return softmax_; }

 private:
  SequenceModelConfig config_;
  StackedLstm lstm_;
  SoftmaxLayer softmax_;
};

}  // namespace mlad::nn
