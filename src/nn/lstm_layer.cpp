#include "nn/lstm_layer.hpp"

#include <stdexcept>

#include "nn/kernels.hpp"

namespace mlad::nn {

namespace {

/// dst = srcᵀ. Unlike kernels.hpp transpose() it is not counted in
/// transpose_stats(): it changes the layout of a gradient, it does not
/// refresh a weight cache.
void copy_transposed(const Matrix& src, Matrix& dst) {
  dst.resize(src.cols(), src.rows());
  for (std::size_t i = 0; i < src.rows(); ++i) {
    for (std::size_t j = 0; j < src.cols(); ++j) dst(j, i) = src(i, j);
  }
}

}  // namespace

template <class X>
void LstmLayer::forward_steps(std::span<const X> xs,
                              std::vector<LstmStepCache>& caches,
                              std::vector<std::vector<float>>& outputs) const {
  const std::size_t h = cell_.hidden_dim();
  caches.resize(xs.size());
  outputs.resize(xs.size());
  std::vector<float> h_prev(h, 0.0f);
  std::vector<float> c_prev(h, 0.0f);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    cell_.forward(xs[t], h_prev, c_prev, caches[t]);
    h_prev = caches[t].h;
    c_prev = caches[t].c;
    outputs[t] = caches[t].h;
  }
}

void LstmLayer::forward_sequence(
    std::span<const std::vector<float>> xs, std::vector<LstmStepCache>& caches,
    std::vector<std::vector<float>>& outputs) const {
  forward_steps(xs, caches, outputs);
}

void LstmLayer::forward_sequence(
    std::span<const CodeRow> xs, std::vector<LstmStepCache>& caches,
    std::vector<std::vector<float>>& outputs) const {
  forward_steps(xs, caches, outputs);
}

template <class Step>
void LstmLayer::backward_steps(const std::vector<LstmStepCache>& caches,
                               std::span<const std::vector<float>> dh_out,
                               const Step& step) {
  if (caches.size() != dh_out.size()) {
    throw std::invalid_argument("backward_sequence: cache/grad length mismatch");
  }
  const std::size_t h = cell_.hidden_dim();
  std::vector<float> dh_next(h, 0.0f);  // ∂L/∂h_t from step t+1
  std::vector<float> dc_next(h, 0.0f);  // ∂L/∂c_t from step t+1
  std::vector<float> dh_total(h);
  std::vector<float> dh_prev(h);
  std::vector<float> dc_prev(h);
  for (std::size_t t = caches.size(); t-- > 0;) {
    for (std::size_t j = 0; j < h; ++j) dh_total[j] = dh_out[t][j] + dh_next[j];
    step(t, dh_total, dc_next, dh_prev, dc_prev);
    dh_next = dh_prev;
    dc_next = dc_prev;
  }
}

void LstmLayer::backward_sequence(const std::vector<LstmStepCache>& caches,
                                  std::span<const std::vector<float>> dh_out,
                                  std::vector<std::vector<float>>& dx) {
  dx.assign(caches.size(), std::vector<float>(cell_.input_dim(), 0.0f));
  backward_steps(caches, dh_out,
                 [&](std::size_t t, const std::vector<float>& dh,
                     const std::vector<float>& dc, std::vector<float>& dh_prev,
                     std::vector<float>& dc_prev) {
                   cell_.backward(caches[t], dh, dc, dx[t], dh_prev, dc_prev);
                 });
}

void LstmLayer::backward_sequence(const std::vector<LstmStepCache>& caches,
                                  std::span<const std::vector<float>> dh_out) {
  backward_steps(caches, dh_out,
                 [&](std::size_t t, const std::vector<float>& dh,
                     const std::vector<float>& dc, std::vector<float>& dh_prev,
                     std::vector<float>& dc_prev) {
                   cell_.backward(caches[t], dh, dc, dh_prev, dc_prev);
                 });
}

template <class X>
void LstmLayer::forward_batch_steps(std::span<const X* const> xs,
                                    LayerBatchTape& tape, ThreadPool* pool,
                                    const Matrix* wT, const Matrix* uT) const {
  const std::size_t T = xs.size();
  const std::size_t H = cell_.hidden_dim();
  tape.steps.resize(T);
  if (wT == nullptr || uT == nullptr) {
    // No caller cache: transpose into the tape as before.
    transpose(cell_.w(), tape.wT);
    transpose(cell_.u(), tape.uT);
    wT = &tape.wT;
    uT = &tape.uT;
  }
  for (std::size_t t = 0; t < T; ++t) {
    const X& x = *xs[t];
    const std::size_t bt = x.rows();
    LstmBatchCache& step = tape.steps[t];
    if (t == 0) {
      step.h_prev.resize(bt, H, 0.0f);
      step.c_prev.resize(bt, H, 0.0f);
    } else {
      if (bt > tape.steps[t - 1].h.rows()) {
        throw std::invalid_argument(
            "forward_sequence_batch: batch rows must be non-increasing");
      }
      // Sequences sorted longest-first: the still-active rows at step t are
      // exactly the first bt rows of step t-1's state.
      copy_top_rows(tape.steps[t - 1].h, bt, step.h_prev);
      copy_top_rows(tape.steps[t - 1].c, bt, step.c_prev);
    }
    cell_.forward_batch(x, *wT, *uT, step, tape.a, pool);
  }
}

void LstmLayer::forward_sequence_batch(std::span<const Matrix* const> xs,
                                       LayerBatchTape& tape, ThreadPool* pool,
                                       const Matrix* wT,
                                       const Matrix* uT) const {
  forward_batch_steps(xs, tape, pool, wT, uT);
}

void LstmLayer::forward_sequence_batch(std::span<const CodeMatrix* const> xs,
                                       LayerBatchTape& tape, ThreadPool* pool,
                                       const Matrix* wT,
                                       const Matrix* uT) const {
  forward_batch_steps(xs, tape, pool, wT, uT);
}

template <class Step>
void LstmLayer::backward_batch_steps(std::size_t steps,
                                     std::span<Matrix> dh_out,
                                     LayerBatchTape& tape,
                                     const Step& step) const {
  const std::size_t T = tape.steps.size();
  if (steps != T || dh_out.size() != T) {
    throw std::invalid_argument(
        "backward_sequence_batch: tape/grad length mismatch");
  }
  const Matrix empty;  // zero recurrent carry entering the last step
  std::size_t cur = 0;
  for (std::size_t t = T; t-- > 0;) {
    const bool last = (t + 1 == T);
    Matrix& dh_total = dh_out[t];
    if (!last) {
      // Recurrent gradients from step t+1 touch only its B_{t+1} ≤ B_t rows.
      add_top_rows(dh_total, tape.dh_carry[cur]);
    }
    const Matrix& dc_in = last ? empty : tape.dc_carry[cur];
    const std::size_t nxt = 1 - cur;
    step(t, dh_total, dc_in, tape.dh_carry[nxt], tape.dc_carry[nxt]);
    cur = nxt;
  }
}

void LstmLayer::backward_sequence_batch(std::span<const Matrix* const> xs,
                                        std::span<Matrix> dh_out,
                                        LayerBatchTape& tape, Matrix& grad_w,
                                        Matrix& grad_u, Matrix& grad_b,
                                        ThreadPool* pool) const {
  tape.dx.resize(tape.steps.size());
  backward_batch_steps(
      xs.size(), dh_out, tape,
      [&](std::size_t t, const Matrix& dh, const Matrix& dc_in,
          Matrix& dh_prev, Matrix& dc_prev) {
        cell_.backward_batch(*xs[t], tape.steps[t], dh, dc_in, tape.dx[t],
                             dh_prev, dc_prev, grad_w, grad_u, grad_b,
                             tape.da, pool);
      });
}

void LstmLayer::backward_sequence_batch(std::span<const CodeMatrix* const> xs,
                                        std::span<Matrix> dh_out,
                                        LayerBatchTape& tape, Matrix& grad_w,
                                        Matrix& grad_u, Matrix& grad_b,
                                        ThreadPool* pool) const {
  // grad_wT starts as grad_w's transpose and ends transposed back, so every
  // element continues the same ordered sum it would have in place.
  copy_transposed(grad_w, tape.grad_wT);
  backward_batch_steps(
      xs.size(), dh_out, tape,
      [&](std::size_t t, const Matrix& dh, const Matrix& dc_in,
          Matrix& dh_prev, Matrix& dc_prev) {
        cell_.backward_batch(*xs[t], tape.steps[t], dh, dc_in, dh_prev,
                             dc_prev, tape.grad_wT, grad_u, grad_b, tape.da,
                             pool);
      });
  copy_transposed(tape.grad_wT, grad_w);
}

void LstmLayer::set_state(std::span<const float> h, std::span<const float> c) {
  if (h.size() != h_.size() || c.size() != c_.size()) {
    throw std::invalid_argument("LstmLayer::set_state: dim mismatch");
  }
  h_.assign(h.begin(), h.end());
  c_.assign(c.begin(), c.end());
}

}  // namespace mlad::nn
