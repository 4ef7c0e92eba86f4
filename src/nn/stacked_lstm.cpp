#include "nn/stacked_lstm.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/kernels.hpp"

namespace mlad::nn {

StackedLstm::StackedLstm(std::size_t input_dim,
                         std::span<const std::size_t> hidden_dims)
    : input_dim_(input_dim) {
  if (hidden_dims.empty()) {
    throw std::invalid_argument("StackedLstm: need at least one layer");
  }
  std::size_t in = input_dim;
  layers_.reserve(hidden_dims.size());
  for (std::size_t hd : hidden_dims) {
    layers_.emplace_back(in, hd);
    in = hd;
  }
}

void StackedLstm::init_params(Rng& rng) {
  for (auto& l : layers_) l.init_params(rng);
}

StackedLstmState StackedLstm::make_state() const {
  StackedLstmState s;
  s.h.reserve(layers_.size());
  s.c.reserve(layers_.size());
  for (const auto& l : layers_) {
    s.h.emplace_back(l.hidden_dim(), 0.0f);
    s.c.emplace_back(l.hidden_dim(), 0.0f);
  }
  return s;
}

std::span<const float> StackedLstm::step(std::span<const std::uint32_t> codes,
                                         StackedLstmState& state,
                                         LstmStepCache& scratch) const {
  if (state.h.size() != layers_.size()) {
    throw std::invalid_argument("StackedLstm::step: state layer mismatch");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmCell& cell = layers_[li].cell();
    if (li == 0) {
      cell.forward(codes, state.h[0], state.c[0], scratch);
    } else {
      cell.forward(state.h[li - 1], state.h[li], state.c[li], scratch);
    }
    state.h[li] = scratch.h;
    state.c[li] = scratch.c;
  }
  return state.h.back();
}

std::vector<std::vector<float>> StackedLstm::forward_sequence(
    std::span<const CodeRow> xs, StackedLstmCache& cache) const {
  cache.caches.assign(layers_.size(), {});
  cache.outputs.assign(layers_.size(), {});
  layers_[0].forward_sequence(xs, cache.caches[0], cache.outputs[0]);
  for (std::size_t li = 1; li < layers_.size(); ++li) {
    layers_[li].forward_sequence(cache.outputs[li - 1], cache.caches[li],
                                 cache.outputs[li]);
  }
  return cache.outputs.back();  // top layer outputs
}

void StackedLstm::backward_sequence(const StackedLstmCache& cache,
                                    std::span<const std::vector<float>> dh_top) {
  if (cache.caches.size() != layers_.size()) {
    throw std::invalid_argument("StackedLstm::backward_sequence: bad cache");
  }
  std::vector<std::vector<float>> dh(dh_top.begin(), dh_top.end());
  std::vector<std::vector<float>> dx;
  for (std::size_t li = layers_.size(); li-- > 1;) {
    layers_[li].backward_sequence(cache.caches[li], dh, dx);
    dh = dx;  // gradient w.r.t. the layer's inputs = grads for layer below
  }
  layers_[0].backward_sequence(cache.caches[0], dh);  // no ∂L/∂codes
}

void StackedLstm::forward_sequence_batch(std::span<const CodeMatrix> xs,
                                         StackedBatchTape& tape,
                                         ThreadPool* pool,
                                         std::span<const Matrix> wT,
                                         std::span<const Matrix> uT) const {
  const std::size_t T = xs.size();
  if ((!wT.empty() && wT.size() != layers_.size()) ||
      (!uT.empty() && uT.size() != layers_.size())) {
    throw std::invalid_argument(
        "forward_sequence_batch: transpose cache size mismatch");
  }
  tape.layers.resize(layers_.size());
  tape.inputs.resize(layers_.size());
  // Layer 0 reads the caller's code rows (which must stay alive through
  // the matching backward pass); layer l reads layer l-1's hidden outputs,
  // already sized B_t.
  tape.codes.resize(T);
  for (std::size_t t = 0; t < T; ++t) tape.codes[t] = &xs[t];
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const Matrix* wT_l = wT.empty() ? nullptr : &wT[li];
    const Matrix* uT_l = uT.empty() ? nullptr : &uT[li];
    if (li == 0) {
      layers_[0].forward_sequence_batch(tape.codes, tape.layers[0], pool,
                                        wT_l, uT_l);
      continue;
    }
    auto& in = tape.inputs[li];
    in.resize(T);
    for (std::size_t t = 0; t < T; ++t) {
      in[t] = &tape.layers[li - 1].steps[t].h;
    }
    layers_[li].forward_sequence_batch(in, tape.layers[li], pool, wT_l, uT_l);
  }
}

void StackedLstm::backward_sequence_batch(StackedBatchTape& tape,
                                          std::span<Matrix> dh_top,
                                          std::span<Matrix> grads,
                                          ThreadPool* pool) const {
  if (tape.layers.size() != layers_.size() ||
      grads.size() != 3 * layers_.size()) {
    throw std::invalid_argument("backward_sequence_batch: bad tape/grads");
  }
  std::span<Matrix> dh = dh_top;
  for (std::size_t li = layers_.size(); li-- > 1;) {
    layers_[li].backward_sequence_batch(tape.inputs[li], dh, tape.layers[li],
                                        grads[3 * li], grads[3 * li + 1],
                                        grads[3 * li + 2], pool);
    dh = tape.layers[li].dx;  // input grads = dh_out of the layer below
  }
  layers_[0].backward_sequence_batch(tape.codes, dh, tape.layers[0], grads[0],
                                     grads[1], grads[2], pool);
}

void StackedLstm::begin_stream_batch(std::size_t streams,
                                     StreamBatchState& sb) const {
  sb.layers.resize(layers_.size());
  sb.wT.resize(layers_.size());
  sb.uT.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmCell& cell = layers_[li].cell();
    sb.layers[li].h_prev.resize(streams, cell.hidden_dim());
    sb.layers[li].c_prev.resize(streams, cell.hidden_dim());
    transpose(cell.w(), sb.wT[li]);
    transpose(cell.u(), sb.uT[li]);
  }
}

const Matrix& StackedLstm::step_stream_batch(const CodeMatrix& x,
                                             StreamBatchState& sb,
                                             ThreadPool* pool) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("step_stream_batch: uninitialized state");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    LstmBatchCache& cache = sb.layers[li];
    const LstmCell& cell = layers_[li].cell();
    if (li == 0) {
      cell.forward_batch(x, sb.wT[0], sb.uT[0], cache, sb.a, pool);
    } else {
      cell.forward_batch(sb.layers[li - 1].h_prev, sb.wT[li], sb.uT[li],
                         cache, sb.a, pool);
    }
    // The fresh h/c become the entering state of the next tick; after the
    // swap they also double as the input block of the layer above.
    std::swap(cache.h, cache.h_prev);
    std::swap(cache.c, cache.c_prev);
  }
  return sb.layers.back().h_prev;
}

void StackedLstm::shrink_stream_batch(std::size_t n,
                                      StreamBatchState& sb) const {
  for (LstmBatchCache& cache : sb.layers) {
    if (n > cache.h_prev.rows()) {
      throw std::invalid_argument("shrink_stream_batch: n exceeds streams");
    }
    copy_top_rows(cache.h_prev, n, sb.shrink_tmp);
    std::swap(cache.h_prev, sb.shrink_tmp);
    copy_top_rows(cache.c_prev, n, sb.shrink_tmp);
    std::swap(cache.c_prev, sb.shrink_tmp);
  }
}

void StackedLstm::grow_stream_batch(std::size_t n,
                                    StreamBatchState& sb) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("grow_stream_batch: uninitialized state");
  }
  for (LstmBatchCache& cache : sb.layers) {
    if (n < cache.h_prev.rows()) {
      throw std::invalid_argument("grow_stream_batch: n below active streams");
    }
    cache.h_prev.resize_rows(n);
    cache.c_prev.resize_rows(n);
  }
}

void StackedLstm::swap_stream_rows(std::size_t a, std::size_t b,
                                   StreamBatchState& sb) const {
  for (LstmBatchCache& cache : sb.layers) {
    swap_rows(cache.h_prev, a, b);
    swap_rows(cache.c_prev, a, b);
  }
}

void StackedLstm::refresh_stream_batch(StreamBatchState& sb) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("refresh_stream_batch: uninitialized state");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmCell& cell = layers_[li].cell();
    transpose(cell.w(), sb.wT[li]);
    transpose(cell.u(), sb.uT[li]);
  }
}

void StackedLstm::extract_stream_state(const StreamBatchState& sb,
                                       std::size_t s,
                                       StackedLstmState& out) const {
  if (sb.layers.size() != layers_.size()) {
    throw std::invalid_argument("extract_stream_state: uninitialized state");
  }
  out.h.resize(layers_.size());
  out.c.resize(layers_.size());
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    const LstmBatchCache& cache = sb.layers[li];
    if (s >= cache.h_prev.rows()) {
      throw std::invalid_argument("extract_stream_state: stream out of range");
    }
    const auto h = cache.h_prev.row(s);
    const auto c = cache.c_prev.row(s);
    out.h[li].assign(h.begin(), h.end());
    out.c[li].assign(c.begin(), c.end());
  }
}

void StackedLstm::restore_stream_state(StreamBatchState& sb, std::size_t s,
                                       const StackedLstmState& state) const {
  if (sb.layers.size() != layers_.size() ||
      state.h.size() != layers_.size() || state.c.size() != layers_.size()) {
    throw std::invalid_argument("restore_stream_state: layer mismatch");
  }
  for (std::size_t li = 0; li < layers_.size(); ++li) {
    LstmBatchCache& cache = sb.layers[li];
    if (s >= cache.h_prev.rows() ||
        state.h[li].size() != cache.h_prev.cols() ||
        state.c[li].size() != cache.c_prev.cols()) {
      throw std::invalid_argument("restore_stream_state: shape mismatch");
    }
    std::copy(state.h[li].begin(), state.h[li].end(),
              cache.h_prev.row(s).data());
    std::copy(state.c[li].begin(), state.c[li].end(),
              cache.c_prev.row(s).data());
  }
}

void StackedLstm::zero_grads() {
  for (auto& l : layers_) l.cell().zero_grads();
}

std::size_t StackedLstm::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.cell().param_count();
  return n;
}

}  // namespace mlad::nn
