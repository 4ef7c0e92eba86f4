#include "nn/lstm_cell.hpp"

#include <cmath>
#include <stdexcept>

#include "nn/activations.hpp"
#include "nn/kernels.hpp"

namespace mlad::nn {

LstmCell::LstmCell(std::size_t input_dim, std::size_t hidden_dim)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(4 * hidden_dim, input_dim),
      u_(4 * hidden_dim, hidden_dim),
      b_(1, 4 * hidden_dim),
      grad_w_(4 * hidden_dim, input_dim),
      grad_u_(4 * hidden_dim, hidden_dim),
      grad_b_(1, 4 * hidden_dim) {
  if (input_dim == 0 || hidden_dim == 0) {
    throw std::invalid_argument("LstmCell: dimensions must be positive");
  }
}

void LstmCell::init_params(Rng& rng) {
  const float rw = 1.0f / std::sqrt(static_cast<float>(input_dim_));
  const float ru = 1.0f / std::sqrt(static_cast<float>(hidden_dim_));
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = static_cast<float>(rng.uniform(-rw, rw));
  }
  for (std::size_t i = 0; i < u_.size(); ++i) {
    u_.data()[i] = static_cast<float>(rng.uniform(-ru, ru));
  }
  b_.fill(0.0f);
  // Forget-gate bias = 1 (gate block order is [i, f, o, g]).
  for (std::size_t j = 0; j < hidden_dim_; ++j) {
    b_(0, hidden_dim_ + j) = 1.0f;
  }
}

void LstmCell::forward(std::span<const float> x, std::span<const float> h_prev,
                       std::span<const float> c_prev,
                       LstmStepCache& cache) const {
  if (x.size() != input_dim_ || h_prev.size() != hidden_dim_ ||
      c_prev.size() != hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward: dim mismatch");
  }
  cache.x.assign(x.begin(), x.end());
  cache.codes.clear();
  cache.h_prev.assign(h_prev.begin(), h_prev.end());
  cache.c_prev.assign(c_prev.begin(), c_prev.end());

  // Pre-activations: a = W x + U h_prev + b, over all four gates at once.
  std::vector<float> a(b_.row(0).begin(), b_.row(0).end());
  gemv_add(w_, x, a);
  gemv_add(u_, h_prev, a);
  finish_forward(a, c_prev, cache);
}

void LstmCell::forward(std::span<const std::uint32_t> codes,
                       std::span<const float> h_prev,
                       std::span<const float> c_prev,
                       LstmStepCache& cache) const {
  check_codes(codes, input_dim_);
  if (h_prev.size() != hidden_dim_ || c_prev.size() != hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward: dim mismatch");
  }
  cache.x.clear();
  cache.codes.assign(codes.begin(), codes.end());
  cache.h_prev.assign(h_prev.begin(), h_prev.end());
  cache.c_prev.assign(c_prev.begin(), c_prev.end());

  // W x over the active columns only: the same ascending sum gemv_add forms
  // over every column, minus the zero terms, which add nothing to an
  // accumulator that starts at +0.
  std::vector<float> a(b_.row(0).begin(), b_.row(0).end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float* w_row = w_.data() + i * input_dim_;
    float acc = 0.0f;
    for (const std::uint32_t c : codes) acc += w_row[c];
    a[i] += acc;
  }
  gemv_add(u_, h_prev, a);
  finish_forward(a, c_prev, cache);
}

void LstmCell::finish_forward(std::span<const float> a,
                              std::span<const float> c_prev,
                              LstmStepCache& cache) const {
  const std::size_t h = hidden_dim_;
  cache.i.resize(h);
  cache.f.resize(h);
  cache.o.resize(h);
  cache.g.resize(h);
  cache.c.resize(h);
  cache.tanh_c.resize(h);
  cache.h.resize(h);
  for (std::size_t j = 0; j < h; ++j) {
    cache.i[j] = sigmoid(a[j]);
    cache.f[j] = sigmoid(a[h + j]);
    cache.o[j] = sigmoid(a[2 * h + j]);
    cache.g[j] = tanh_act(a[3 * h + j]);
    cache.c[j] = cache.f[j] * c_prev[j] + cache.i[j] * cache.g[j];
    cache.tanh_c[j] = tanh_act(cache.c[j]);
    cache.h[j] = cache.o[j] * cache.tanh_c[j];
  }
}

void LstmCell::backward_gates(const LstmStepCache& cache,
                              std::span<const float> dh,
                              std::span<const float> dc_in,
                              std::vector<float>& da,
                              std::span<float> dh_prev,
                              std::span<float> dc_prev) {
  const std::size_t h = hidden_dim_;
  if (dh.size() != h || dc_in.size() != h || dh_prev.size() != h ||
      dc_prev.size() != h) {
    throw std::invalid_argument("LstmCell::backward: dim mismatch");
  }
  // Gate pre-activation gradients, stacked [di, df, do, dg].
  da.resize(4 * h);
  for (std::size_t j = 0; j < h; ++j) {
    // h_t = o_t * tanh(c_t)
    const float do_out = dh[j] * cache.tanh_c[j];
    // dL/dc_t accumulates the output path and the recurrent path.
    const float dc =
        dh[j] * cache.o[j] * tanh_grad_from_output(cache.tanh_c[j]) + dc_in[j];
    // c_t = f⊙c_{t-1} + i⊙g
    const float di_out = dc * cache.g[j];
    const float df_out = dc * cache.c_prev[j];
    const float dg_out = dc * cache.i[j];
    dc_prev[j] = dc * cache.f[j];

    da[j] = di_out * sigmoid_grad_from_output(cache.i[j]);
    da[h + j] = df_out * sigmoid_grad_from_output(cache.f[j]);
    da[2 * h + j] = do_out * sigmoid_grad_from_output(cache.o[j]);
    da[3 * h + j] = dg_out * tanh_grad_from_output(cache.g[j]);
  }

  // grad_U += da ⊗ h_prev, grad_b += da, dh_prev = Uᵀ da.
  outer_add(da, cache.h_prev, grad_u_);
  for (std::size_t j = 0; j < 4 * h; ++j) grad_b_(0, j) += da[j];
  std::fill(dh_prev.begin(), dh_prev.end(), 0.0f);
  gemv_transposed_add(u_, da, dh_prev);
}

void LstmCell::backward(const LstmStepCache& cache, std::span<const float> dh,
                        std::span<const float> dc_in, std::span<float> dx,
                        std::span<float> dh_prev, std::span<float> dc_prev) {
  if (dx.size() != input_dim_) {
    throw std::invalid_argument("LstmCell::backward: dim mismatch");
  }
  std::vector<float> da;
  backward_gates(cache, dh, dc_in, da, dh_prev, dc_prev);
  // grad_W += da ⊗ x, dx = Wᵀ da.
  outer_add(da, cache.x, grad_w_);
  std::fill(dx.begin(), dx.end(), 0.0f);
  gemv_transposed_add(w_, da, dx);
}

void LstmCell::backward(const LstmStepCache& cache, std::span<const float> dh,
                        std::span<const float> dc_in,
                        std::span<float> dh_prev, std::span<float> dc_prev) {
  std::vector<float> da;
  backward_gates(cache, dh, dc_in, da, dh_prev, dc_prev);
  // grad_W += da ⊗ x at the active columns: outer_add's terms elsewhere
  // are da·0 and leave the (never −0) accumulators unchanged.
  for (std::size_t i = 0; i < da.size(); ++i) {
    const float gi = da[i];
    if (gi == 0.0f) continue;
    float* row = grad_w_.data() + i * input_dim_;
    for (const std::uint32_t c : cache.codes) row[c] += gi;
  }
}

void LstmCell::check_batch(std::size_t x_rows, std::size_t x_cols,
                           const Matrix& wT, const Matrix& uT,
                           const LstmBatchCache& cache) const {
  if (x_cols != input_dim_ || cache.h_prev.rows() != x_rows ||
      cache.h_prev.cols() != hidden_dim_ || cache.c_prev.rows() != x_rows ||
      cache.c_prev.cols() != hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward_batch: dim mismatch");
  }
  if (wT.rows() != input_dim_ || wT.cols() != 4 * hidden_dim_ ||
      uT.rows() != hidden_dim_ || uT.cols() != 4 * hidden_dim_) {
    throw std::invalid_argument("LstmCell::forward_batch: stale transposes");
  }
}

void LstmCell::forward_batch(const Matrix& x, const Matrix& wT,
                             const Matrix& uT, LstmBatchCache& cache,
                             Matrix& a_scratch, ThreadPool* pool) const {
  check_batch(x.rows(), x.cols(), wT, uT, cache);
  // A = 1·bᵀ + X Wᵀ + H_prev Uᵀ, all four gates at once.
  broadcast_rows(b_, x.rows(), a_scratch);
  matmul_nn_acc(x, wT, a_scratch, pool);
  matmul_nn_acc(cache.h_prev, uT, a_scratch, pool);
  lstm_gates_forward(a_scratch, cache.c_prev, cache.i, cache.f, cache.o,
                     cache.g, cache.c, cache.tanh_c, cache.h, pool);
}

void LstmCell::forward_batch(const CodeMatrix& x, const Matrix& wT,
                             const Matrix& uT, LstmBatchCache& cache,
                             Matrix& a_scratch, ThreadPool* pool) const {
  check_batch(x.rows(), x.cols(), wT, uT, cache);
  broadcast_rows(b_, x.rows(), a_scratch);
  gather_acc(x, wT, a_scratch, pool);
  matmul_nn_acc(cache.h_prev, uT, a_scratch, pool);
  lstm_gates_forward(a_scratch, cache.c_prev, cache.i, cache.f, cache.o,
                     cache.g, cache.c, cache.tanh_c, cache.h, pool);
}

void LstmCell::backward_batch(const Matrix& x, const LstmBatchCache& cache,
                              const Matrix& dh, const Matrix& dc_in,
                              Matrix& dx, Matrix& dh_prev, Matrix& dc_prev,
                              Matrix& grad_w, Matrix& grad_u, Matrix& grad_b,
                              Matrix& da_scratch, ThreadPool* pool) const {
  const std::size_t B = x.rows();
  if (dh.rows() != B || dh.cols() != hidden_dim_ ||
      cache.i.rows() != B) {
    throw std::invalid_argument("LstmCell::backward_batch: dim mismatch");
  }
  lstm_gates_backward(cache.i, cache.f, cache.o, cache.g, cache.c_prev,
                      cache.tanh_c, dh, dc_in, da_scratch, dc_prev, pool);

  // Parameter gradients: grad_W += dAᵀ X, grad_U += dAᵀ H_prev,
  // grad_b += column sums of dA (row order fixed ⇒ deterministic).
  matmul_tn_acc(da_scratch, x, grad_w, pool);
  matmul_tn_acc(da_scratch, cache.h_prev, grad_u, pool);
  col_sum_acc(da_scratch, grad_b);

  // Input gradients: dX = dA W, dH_prev = dA U.
  matmul_nn(da_scratch, w_, dx, pool);
  matmul_nn(da_scratch, u_, dh_prev, pool);
}

void LstmCell::backward_batch(const CodeMatrix& x, const LstmBatchCache& cache,
                              const Matrix& dh, const Matrix& dc_in,
                              Matrix& dh_prev, Matrix& dc_prev,
                              Matrix& grad_wT, Matrix& grad_u, Matrix& grad_b,
                              Matrix& da_scratch, ThreadPool* pool) const {
  const std::size_t B = x.rows();
  if (dh.rows() != B || dh.cols() != hidden_dim_ ||
      cache.i.rows() != B) {
    throw std::invalid_argument("LstmCell::backward_batch: dim mismatch");
  }
  lstm_gates_backward(cache.i, cache.f, cache.o, cache.g, cache.c_prev,
                      cache.tanh_c, dh, dc_in, da_scratch, dc_prev, pool);
  scatter_acc(da_scratch, x, grad_wT, pool);
  matmul_tn_acc(da_scratch, cache.h_prev, grad_u, pool);
  col_sum_acc(da_scratch, grad_b);
  matmul_nn(da_scratch, u_, dh_prev, pool);
}

void LstmCell::zero_grads() {
  grad_w_.fill(0.0f);
  grad_u_.fill(0.0f);
  grad_b_.fill(0.0f);
}

}  // namespace mlad::nn
