// Dense softmax output layer with fused multiclass cross-entropy — the
// "Softmax Activation Layer" of Fig. 2 producing Pr(s_i | c(t-1), c(t-2), …)
// over the |S| signatures, trained with the paper's loss
//   L = -Σ_t Σ_i 1(s(x^(t)) = s_i) ln Pr(s_i | …).
#pragma once

#include <cstddef>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace mlad::nn {

class SoftmaxLayer {
 public:
  SoftmaxLayer(std::size_t input_dim, std::size_t num_classes);

  void init_params(Rng& rng);

  std::size_t input_dim() const { return w_.cols(); }
  std::size_t num_classes() const { return w_.rows(); }

  /// probs = softmax(W h + b). `probs` is resized to num_classes().
  void forward(std::span<const float> h, std::vector<float>& probs) const;

  /// Fused softmax + cross-entropy backward for one timestep.
  ///
  /// Given the forward `probs` and the true class, accumulates parameter
  /// gradients, writes ∂L/∂h into `dh`, and returns -ln probs[target].
  double backward(std::span<const float> h, std::span<const float> probs,
                  std::size_t target, std::span<float> dh);

  void zero_grads();

  Matrix& w() { return w_; }
  Matrix& b() { return b_; }
  const Matrix& w() const { return w_; }
  const Matrix& b() const { return b_; }
  Matrix& grad_w() { return grad_w_; }
  Matrix& grad_b() { return grad_b_; }

  std::size_t param_count() const { return w_.size() + b_.size(); }

 private:
  Matrix w_;       ///< C × H
  Matrix b_;       ///< 1 × C
  Matrix grad_w_;
  Matrix grad_b_;
};

/// Indices of the k largest probabilities, descending. k is clamped to size.
std::vector<std::size_t> top_k_indices(std::span<const float> probs,
                                       std::size_t k);

/// True iff `target` is among the top-k classes of `probs` (the paper's S(k)
/// membership test used by the time-series detection function F_t).
bool in_top_k(std::span<const float> probs, std::size_t target, std::size_t k);

/// The rank in_top_k tests: how many entries it ranks ahead of `target`
/// (a greater probability, or an equal one at a lower index), or kNoRank
/// when target >= probs.size(). For every k,
///   in_top_k(probs, target, k)  ⇔  top_k_rank(probs, target) < k.
inline constexpr std::size_t kNoRank = std::numeric_limits<std::size_t>::max();
std::size_t top_k_rank(std::span<const float> probs, std::size_t target);

/// Paper §V-B top-k error err_k for every k = 1..max_k from ONE pass over
/// the predictions: each step records its target's rank, and err_k is the
/// share of steps whose rank is not below k. The predictions do not depend
/// on k, so one pass replaces max_k replays, with the same err_k bit for
/// bit.
class TopKErrorCurve {
 public:
  explicit TopKErrorCurve(std::size_t max_k) : hits_at_rank_(max_k, 0) {}

  /// One step: `target` is the observed next signature, or nullopt when it
  /// is not in the signature database at all (a miss at every k).
  void add(std::span<const float> probs, std::optional<std::size_t> target);

  /// err_k for one k ≤ max_k (0 over zero steps; S(0) is empty, so err_0
  /// is 1 over any).
  double error(std::size_t k) const;
  /// err_k at index k-1, for k = 1..max_k.
  std::vector<double> errors() const;

 private:
  std::vector<std::size_t> hits_at_rank_;  ///< [r] steps of rank r < max_k
  std::size_t steps_ = 0;
};

/// Paper §V-B rule: the smallest k whose err_k (curve[k-1]) is below θ,
/// else curve.size() (the search bound).
std::size_t smallest_k_below(std::span<const double> curve, double theta);

}  // namespace mlad::nn
