#include "nn/softmax.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "nn/activations.hpp"

namespace mlad::nn {

SoftmaxLayer::SoftmaxLayer(std::size_t input_dim, std::size_t num_classes)
    : w_(num_classes, input_dim),
      b_(1, num_classes),
      grad_w_(num_classes, input_dim),
      grad_b_(1, num_classes) {
  if (input_dim == 0 || num_classes == 0) {
    throw std::invalid_argument("SoftmaxLayer: dimensions must be positive");
  }
}

void SoftmaxLayer::init_params(Rng& rng) {
  const float r = 1.0f / std::sqrt(static_cast<float>(w_.cols()));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-r, r));
  }
  b_.fill(0.0f);
}

void SoftmaxLayer::forward(std::span<const float> h,
                           std::vector<float>& probs) const {
  if (h.size() != w_.cols()) {
    throw std::invalid_argument("SoftmaxLayer::forward: dim mismatch");
  }
  probs.assign(b_.row(0).begin(), b_.row(0).end());
  gemv_add(w_, h, probs);
  softmax_inplace(probs);
}

double SoftmaxLayer::backward(std::span<const float> h,
                              std::span<const float> probs, std::size_t target,
                              std::span<float> dh) {
  if (target >= w_.rows() || probs.size() != w_.rows() ||
      dh.size() != w_.cols()) {
    throw std::invalid_argument("SoftmaxLayer::backward: dim mismatch");
  }
  // dlogits = probs - onehot(target); fused CE+softmax gradient.
  std::vector<float> dlogits(probs.begin(), probs.end());
  dlogits[target] -= 1.0f;

  outer_add(dlogits, h, grad_w_);
  for (std::size_t j = 0; j < dlogits.size(); ++j) grad_b_(0, j) += dlogits[j];

  std::fill(dh.begin(), dh.end(), 0.0f);
  gemv_transposed_add(w_, dlogits, dh);

  const double p = std::max(static_cast<double>(probs[target]), 1e-12);
  return -std::log(p);
}

void SoftmaxLayer::zero_grads() {
  grad_w_.fill(0.0f);
  grad_b_.fill(0.0f);
}

std::vector<std::size_t> top_k_indices(std::span<const float> probs,
                                       std::size_t k) {
  k = std::min(k, probs.size());
  std::vector<std::size_t> idx(probs.size());
  std::iota(idx.begin(), idx.end(), 0);
  std::partial_sort(idx.begin(), idx.begin() + k, idx.end(),
                    [&](std::size_t a, std::size_t b) {
                      if (probs[a] != probs[b]) return probs[a] > probs[b];
                      return a < b;  // deterministic tie-break
                    });
  idx.resize(k);
  return idx;
}

bool in_top_k(std::span<const float> probs, std::size_t target,
              std::size_t k) {
  if (target >= probs.size() || k == 0) return false;
  if (k >= probs.size()) return true;
  const float pt = probs[target];
  // Count entries strictly greater, and ties ranked before `target`.
  std::size_t better = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] > pt || (probs[i] == pt && i < target)) ++better;
    if (better >= k) return false;
  }
  return true;
}

std::size_t top_k_rank(std::span<const float> probs, std::size_t target) {
  if (target >= probs.size()) return kNoRank;
  const float pt = probs[target];
  std::size_t ahead = 0;
  for (std::size_t i = 0; i < probs.size(); ++i) {
    if (probs[i] > pt || (probs[i] == pt && i < target)) ++ahead;
  }
  return ahead;
}

void TopKErrorCurve::add(std::span<const float> probs,
                         std::optional<std::size_t> target) {
  ++steps_;
  if (!target) return;
  const std::size_t rank = top_k_rank(probs, *target);
  if (rank < hits_at_rank_.size()) ++hits_at_rank_[rank];
}

double TopKErrorCurve::error(std::size_t k) const {
  if (k > hits_at_rank_.size()) {
    throw std::invalid_argument("TopKErrorCurve::error: k above max_k");
  }
  if (steps_ == 0) return 0.0;
  // A step of rank r is inside S(k) for every k > r.
  std::size_t hits = 0;
  for (std::size_t r = 0; r < k; ++r) hits += hits_at_rank_[r];
  return static_cast<double>(steps_ - hits) / static_cast<double>(steps_);
}

std::vector<double> TopKErrorCurve::errors() const {
  std::vector<double> err(hits_at_rank_.size());
  for (std::size_t k = 1; k <= err.size(); ++k) err[k - 1] = error(k);
  return err;
}

std::size_t smallest_k_below(std::span<const double> curve, double theta) {
  for (std::size_t k = 1; k <= curve.size(); ++k) {
    if (curve[k - 1] < theta) return k;
  }
  return curve.size();
}

}  // namespace mlad::nn
