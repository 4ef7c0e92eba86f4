// One LSTM layer's cell parameters and the per-timestep forward/backward
// kernels, implementing the exact equations of the paper (§V, Fig. 1):
//
//   i_t = σ(W_i x_t + U_i h_{t-1} + b_i)
//   f_t = σ(W_f x_t + U_f h_{t-1} + b_f)
//   o_t = σ(W_o x_t + U_o h_{t-1} + b_o)
//   g_t = τ(W_g x_t + U_g h_{t-1} + b_g)
//   c_t = f_t ⊙ c_{t-1} + i_t ⊙ g_t
//   h_t = o_t ⊙ τ(c_t)
//
// The four gates are stored stacked in single W (4H×I), U (4H×H) and b (4H)
// buffers, ordered [i, f, o, g], which keeps the forward pass to two GEMVs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "nn/codes.hpp"
#include "nn/matrix.hpp"

namespace mlad::nn {

/// Per-timestep activations cached by the forward pass for BPTT.
struct LstmStepCache {
  std::vector<float> x;       ///< dense input at this step (I); empty for codes
  CodeRow codes;              ///< layer 0's input codes; empty for dense
  std::vector<float> h_prev;  ///< hidden state entering the step (H)
  std::vector<float> c_prev;  ///< cell state entering the step (H)
  std::vector<float> i, f, o, g;  ///< gate activations (H each)
  std::vector<float> c;       ///< new cell state (H)
  std::vector<float> tanh_c;  ///< τ(c_t) (H)
  std::vector<float> h;       ///< new hidden state (H)
};

/// Batched analogue of LstmStepCache: one timestep of B sequences, each
/// buffer a (B × dim) matrix. The input x is NOT copied here — the batched
/// tape (lstm_layer.hpp) already references the per-step inputs.
struct LstmBatchCache {
  Matrix h_prev;  ///< B×H state entering the step (filled by the caller)
  Matrix c_prev;  ///< B×H
  Matrix i, f, o, g;  ///< gate activations, B×H each
  Matrix c;       ///< new cell state
  Matrix tanh_c;  ///< τ(c_t)
  Matrix h;       ///< new hidden state
};

/// Trainable parameters + gradient buffers for one LSTM layer.
class LstmCell {
 public:
  LstmCell(std::size_t input_dim, std::size_t hidden_dim);

  /// Glorot-style uniform init; forget-gate bias starts at 1 (the standard
  /// remedy for early forgetting, per Gers et al. which the paper cites).
  void init_params(Rng& rng);

  std::size_t input_dim() const { return input_dim_; }
  std::size_t hidden_dim() const { return hidden_dim_; }

  /// Run one timestep; fills `cache` and returns spans of h/c inside it.
  void forward(std::span<const float> x, std::span<const float> h_prev,
               std::span<const float> c_prev, LstmStepCache& cache) const;

  /// Layer 0's timestep: the input is a code row (nn/codes.hpp), so W x is a
  /// sum of W's active columns — bit for bit the dense step on the one-hot
  /// row. The codes land in cache.codes.
  void forward(std::span<const std::uint32_t> codes,
               std::span<const float> h_prev, std::span<const float> c_prev,
               LstmStepCache& cache) const;

  /// Back-propagate one timestep.
  ///
  /// `dh` is ∂L/∂h_t (including recurrent contribution), `dc_in` is the
  /// recurrent ∂L/∂c_t flowing from step t+1. Accumulates parameter
  /// gradients and writes ∂L/∂x_t, ∂L/∂h_{t-1}, ∂L/∂c_{t-1}.
  void backward(const LstmStepCache& cache, std::span<const float> dh,
                std::span<const float> dc_in, std::span<float> dx,
                std::span<float> dh_prev, std::span<float> dc_prev);

  /// Backward of a code step: grad_W gains ∂L/∂a at the active columns
  /// only, and no ∂L/∂x is computed (nothing reads layer 0's).
  void backward(const LstmStepCache& cache, std::span<const float> dh,
                std::span<const float> dc_in, std::span<float> dh_prev,
                std::span<float> dc_prev);

  // ---- Batched entry points (DESIGN.md §4) -------------------------------
  //
  // These process one timestep of B sequences as (B × dim) matrices through
  // the kernels in kernels.hpp. They are const: gradients go to caller-owned
  // buffers so independent micro-batches can run concurrently over one cell.

  /// Batched one-timestep forward. The caller fills cache.h_prev /
  /// cache.c_prev (B×H) with the entering state; x is B×I. `wT` / `uT` are
  /// transposes of w() / u() cached by the caller (refresh after each
  /// optimizer step); `a_scratch` holds the B×4H pre-activations.
  void forward_batch(const Matrix& x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// Layer 0's batched forward over code rows: X Wᵀ is a gather-sum of
  /// wT's active rows (gather_acc), bit for bit the dense product.
  void forward_batch(const CodeMatrix& x, const Matrix& wT, const Matrix& uT,
                     LstmBatchCache& cache, Matrix& a_scratch,
                     ThreadPool* pool = nullptr) const;

  /// Batched one-timestep backward. `dh` is ∂L/∂h_t (B×H, recurrent part
  /// included); `dc_in` is the recurrent ∂L/∂c_t from step t+1 and may have
  /// fewer rows than B (ended sequences contribute zero) or be empty.
  /// Parameter gradients accumulate into grad_w/grad_u/grad_b (shaped like
  /// w()/u()/b()); dx (B×I), dh_prev and dc_prev (B×H) are overwritten.
  void backward_batch(const Matrix& x, const LstmBatchCache& cache,
                      const Matrix& dh, const Matrix& dc_in, Matrix& dx,
                      Matrix& dh_prev, Matrix& dc_prev, Matrix& grad_w,
                      Matrix& grad_u, Matrix& grad_b, Matrix& da_scratch,
                      ThreadPool* pool = nullptr) const;

  /// Layer 0's batched backward over code rows. The input-weight gradient
  /// accumulates TRANSPOSED, into grad_wT (I×4H, scatter_acc: one
  /// contiguous row per active column); no dX is computed.
  void backward_batch(const CodeMatrix& x, const LstmBatchCache& cache,
                      const Matrix& dh, const Matrix& dc_in, Matrix& dh_prev,
                      Matrix& dc_prev, Matrix& grad_wT, Matrix& grad_u,
                      Matrix& grad_b, Matrix& da_scratch,
                      ThreadPool* pool = nullptr) const;

  void zero_grads();

  /// Parameter/gradient access (for the optimizers and serialization).
  Matrix& w() { return w_; }
  Matrix& u() { return u_; }
  Matrix& b() { return b_; }
  const Matrix& w() const { return w_; }
  const Matrix& u() const { return u_; }
  const Matrix& b() const { return b_; }
  Matrix& grad_w() { return grad_w_; }
  Matrix& grad_u() { return grad_u_; }
  Matrix& grad_b() { return grad_b_; }

  /// Total number of scalar parameters.
  std::size_t param_count() const { return w_.size() + u_.size() + b_.size(); }

 private:
  /// The gate activations and cell update from pre-activations `a` (4H).
  void finish_forward(std::span<const float> a, std::span<const float> c_prev,
                      LstmStepCache& cache) const;
  /// Gate backward: fills da (4H) and dc_prev, and accumulates grad_U (with
  /// h_prev) and grad_b; dh_prev = Uᵀ da.
  void backward_gates(const LstmStepCache& cache, std::span<const float> dh,
                      std::span<const float> dc_in, std::vector<float>& da,
                      std::span<float> dh_prev, std::span<float> dc_prev);
  /// Shape checks shared by both forward_batch overloads.
  void check_batch(std::size_t x_rows, std::size_t x_cols, const Matrix& wT,
                   const Matrix& uT, const LstmBatchCache& cache) const;

  std::size_t input_dim_;
  std::size_t hidden_dim_;
  Matrix w_;       ///< 4H × I, gate order [i,f,o,g]
  Matrix u_;       ///< 4H × H
  Matrix b_;       ///< 1 × 4H
  Matrix grad_w_;
  Matrix grad_u_;
  Matrix grad_b_;
};

}  // namespace mlad::nn
