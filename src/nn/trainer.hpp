// Training units for the SequenceModel: the encoded fragment (the paper
// removes anomalies from the training split, which cuts the normal traffic
// into fragments; each fragment is cut into BPTT windows) and the
// deterministic minibatch engine that steps the model on them. The epoch
// loop lives in detect::TimeSeriesDetector (DESIGN.md §4).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/thread_pool.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequence_model.hpp"

namespace mlad::nn {

/// One training fragment: encoded inputs (code rows, nn/codes.hpp) and
/// next-signature targets, already aligned (inputs[t] predicts targets[t]).
struct Fragment {
  std::vector<CodeRow> inputs;
  std::vector<std::size_t> targets;

  std::size_t steps() const { return inputs.size(); }
};

/// Deterministic data-parallel minibatch engine (DESIGN.md §4), shared by
/// the detector's training driver and the online trainer.
///
/// One `process()` call handles one minibatch: the windows are cut into
/// micro-batches of a FIXED size, each micro-batch runs through the batched
/// (B × dim) kernels into its own gradient lane on whichever worker is free,
/// and the lanes are then merged by a fixed-order pairwise tree reduction
/// into the model's gradient buffers. The thread count decides scheduling
/// only, never arithmetic order, so losses and gradients are bit-identical
/// for any `threads` value.
class MinibatchTrainer {
 public:
  MinibatchTrainer(SequenceModel& model, std::size_t micro_batch,
                   std::size_t threads);

  /// Forward + backward one minibatch of windows. Leaves the summed
  /// gradients in the model's gradient buffers (zeroing them first) and
  /// returns the summed CE loss; the caller clips and applies the optimizer.
  double process(std::span<const WindowRef> windows);

  /// Grouped minibatch (multi-capture sharded training, DESIGN.md §11):
  /// every group — e.g. one capture's windows for this step — is cut into
  /// micro-batches separately, so no gradient lane ever straddles a group
  /// boundary; the lane list is the concatenation of per-group lanes in
  /// group order and merges through the same fixed-order tree reduction.
  /// Bit-identical for any thread count; callers wanting independence from
  /// capture arrival order must present groups in a canonical order.
  /// process(w) ≡ process_grouped({w}) bit-for-bit.
  double process_grouped(std::span<const std::span<const WindowRef>> groups);

  /// process() + global-norm clip + optimizer step in one call — the unit
  /// every batched training loop is built from. Returns the summed CE loss.
  double step(std::span<const WindowRef> windows,
              std::span<const ParamSlot> slots, double grad_clip,
              Optimizer& opt);

  /// Grouped counterpart of step() (one optimizer step per grouped round).
  double step_grouped(std::span<const std::span<const WindowRef>> groups,
                      std::span<const ParamSlot> slots, double grad_clip,
                      Optimizer& opt);

  /// Mark the internal transposed-weight cache stale. step()/step_grouped()
  /// do this automatically after the optimizer runs; call it yourself only
  /// if you mutate the model's parameters between plain process() calls.
  void invalidate_transpose_cache() { tcache_.valid = false; }

 private:
  SequenceModel* model_;
  std::size_t micro_batch_;
  PoolHandle pool_;
  std::vector<ModelGrads> lanes_;       ///< per micro-batch gradient buffers
  std::vector<BatchWorkspace> ws_;      ///< per micro-batch scratch
  std::vector<double> lane_loss_;
  /// Weight transposes refreshed lazily once per optimizer step instead of
  /// once per lane per minibatch (DESIGN.md §11); shared read-only by lanes.
  TransposeCache tcache_;
  std::vector<std::span<const WindowRef>> lane_windows_;
};

}  // namespace mlad::nn
