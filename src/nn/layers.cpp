#include "nn/layer.hpp"

#include <algorithm>
#include <cmath>
#include <initializer_list>

#include "util/error.hpp"
#include "util/lanes.hpp"

namespace xlds::nn {

// The training kernels keep independent accumulators side by side in
// util::Lanes registers.  Every accumulator takes exactly the terms of the
// one-accumulator loop, in the same order, so trained weights are
// bit-identical to it; each kernel's comment says why its order holds
// (tests/test_nn.cpp keeps those loops and compares bytes).  Block widths:
//   kRowBlock      outputs along a conv row or a dense layer,
//   kChannelBlock  conv output channels that share each input load,
//   kTapBlock      taps along a kernel row of the weight gradient,
//   kKernelRows    kernel rows of the weight gradient per pass over the taps.
// A ragged tail runs through the same kernel at a smaller width.
constexpr std::size_t kRowBlock = 4;
constexpr std::size_t kChannelBlock = 4;
constexpr std::size_t kTapBlock = 4;
constexpr std::size_t kKernelRows = 4;
using util::for_each_block;
using util::Lanes;

// ---- DenseLayer -----------------------------------------------------------

DenseLayer::DenseLayer(std::size_t in, std::size_t out, Rng& rng)
    : in_(in),
      out_(out),
      w_(in, out),
      b_(out, 0.0),
      gw_(in, out),
      gb_(out, 0.0),
      vw_(in, out),
      vb_(out, 0.0) {
  XLDS_REQUIRE(in >= 1 && out >= 1);
  // He initialisation, appropriate for the ReLU nets we build.
  const double scale = std::sqrt(2.0 / static_cast<double>(in));
  for (double& w : w_.data()) w = rng.normal(0.0, scale);
}

std::vector<double> DenseLayer::forward(const std::vector<double>& input) {
  XLDS_REQUIRE_MSG(input.size() == in_, "dense: input " << input.size() << " != " << in_);
  last_input_ = input;
  // out[j] = (+0 + the w(i, j) * x[i] terms in ascending i) + b[j]; lanes run
  // along j.
  std::vector<double> out(out_);
  for_each_block<kRowBlock>(0, out_, [&]<std::size_t W>(std::size_t j) {
    using L = Lanes<W>;
    L acc = L::splat(0.0);
    for (std::size_t i = 0; i < in_; ++i) acc.add_mul(L::load(w_.row_data(i) + j), input[i]);
    acc.add(L::load(b_.data() + j));
    acc.store(out.data() + j);
  });
  return out;
}

std::vector<double> DenseLayer::backward(const std::vector<double>& grad_output,
                                         bool input_grad) {
  XLDS_REQUIRE(grad_output.size() == out_);
  XLDS_REQUIRE_MSG(!last_input_.empty(), "backward before forward");
  const double* go = grad_output.data();
  // Each gw(i, j) and gb[j] receives one term per call.
  for (std::size_t i = 0; i < in_; ++i) {
    const double x = last_input_[i];
    double* grow = gw_.row_data(i);
    for_each_block<kRowBlock>(0, out_, [&]<std::size_t W>(std::size_t j) {
      using L = Lanes<W>;
      L g = L::load(grow + j);
      g.add_mul(x, L::load(go + j));
      g.store(grow + j);
    });
  }
  for (std::size_t j = 0; j < out_; ++j) gb_[j] += go[j];
  if (!input_grad) return {};
  // grad_in[i] = +0 + the w(i, j) * go[j] terms in ascending j; lanes run
  // along i.
  std::vector<double> grad_in(in_);
  for_each_block<kRowBlock>(0, in_, [&]<std::size_t W>(std::size_t i) {
    using L = Lanes<W>;
    L acc = L::splat(0.0);
    for (std::size_t j = 0; j < out_; ++j) acc.add_mul(L::load(w_.row_data(i) + j, out_), go[j]);
    acc.store(grad_in.data() + i);
  });
  return grad_in;
}

void DenseLayer::update(double learning_rate, double momentum, double weight_decay) {
  for (std::size_t i = 0; i < w_.size(); ++i) {
    const double grad = gw_.data()[i] + weight_decay * w_.data()[i];
    vw_.data()[i] = momentum * vw_.data()[i] - learning_rate * grad;
    w_.data()[i] += vw_.data()[i];
    gw_.data()[i] = 0.0;
  }
  for (std::size_t j = 0; j < out_; ++j) {
    vb_[j] = momentum * vb_[j] - learning_rate * gb_[j];
    b_[j] += vb_[j];
    gb_[j] = 0.0;
  }
}

LayerCounts DenseLayer::counts() const { return {in_ * out_, in_ * out_ + out_}; }

// ---- ReluLayer ------------------------------------------------------------

std::vector<double> ReluLayer::forward(const std::vector<double>& input) {
  XLDS_REQUIRE(input.size() == size_);
  last_input_ = input;
  std::vector<double> out(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) out[i] = std::max(0.0, input[i]);
  return out;
}

std::vector<double> ReluLayer::backward(const std::vector<double>& grad_output,
                                        bool input_grad) {
  XLDS_REQUIRE(grad_output.size() == size_);
  if (!input_grad) return {};
  std::vector<double> grad(grad_output.size());
  // The unconditional load lets the compiler select without a branch.
  for (std::size_t i = 0; i < grad.size(); ++i) {
    const double g = grad_output[i];
    grad[i] = last_input_[i] > 0.0 ? g : 0.0;
  }
  return grad;
}

// ---- Conv2dLayer ----------------------------------------------------------

Conv2dLayer::Conv2dLayer(std::size_t in_c, std::size_t in_h, std::size_t in_w, std::size_t out_c,
                         std::size_t kernel, Rng& rng)
    : in_c_(in_c), in_h_(in_h), in_w_(in_w), out_c_(out_c), k_(kernel) {
  XLDS_REQUIRE(in_h >= kernel && in_w >= kernel && kernel >= 1);
  out_h_ = in_h_ - k_ + 1;
  out_w_ = in_w_ - k_ + 1;
  const std::size_t n_w = out_c_ * in_c_ * k_ * k_;
  w_.resize(n_w);
  b_.assign(out_c_, 0.0);
  gw_.assign(n_w, 0.0);
  gb_.assign(out_c_, 0.0);
  vw_.assign(n_w, 0.0);
  vb_.assign(out_c_, 0.0);
  taps_.resize(out_h_ * out_w_);
  for (std::size_t ic = 0; ic < in_c_; ++ic)
    for (std::size_t ky = 0; ky < k_; ++ky) row_offset_.push_back(ic * in_h_ * in_w_ + ky * in_w_);
  const double scale = std::sqrt(2.0 / static_cast<double>(in_c_ * k_ * k_));
  for (double& w : w_) w = rng.normal(0.0, scale);
}

std::vector<double> Conv2dLayer::forward(const std::vector<double>& input) {
  XLDS_REQUIRE_MSG(input.size() == in_c_ * in_h_ * in_w_,
                   "conv: input " << input.size() << " != " << in_c_ * in_h_ * in_w_);
  last_input_ = input;
  // out(oc, oy, ox) = b[oc] + the w * x terms in (ic, ky, kx) order.  Lanes
  // run along ox; C output channels side by side share each input load.
  std::vector<double> out(output_size());
  const std::size_t per_oc = in_c_ * k_ * k_;
  for_each_block<kChannelBlock>(0, out_c_, [&]<std::size_t C>(std::size_t oc) {
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      for_each_block<kRowBlock>(0, out_w_, [&]<std::size_t W>(std::size_t ox) {
        using L = Lanes<W>;
        L acc[C];
#pragma GCC unroll 8
        for (std::size_t c = 0; c < C; ++c) acc[c] = L::splat(b_[oc + c]);
        for (std::size_t ic = 0; ic < in_c_; ++ic) {
          for (std::size_t ky = 0; ky < k_; ++ky) {
            const double* x = last_input_.data() + (ic * in_h_ + oy + ky) * in_w_ + ox;
            const double* w = w_.data() + oc * per_oc + (ic * k_ + ky) * k_;
            for (std::size_t kx = 0; kx < k_; ++kx) {
              const L xv = L::load(x + kx);
#pragma GCC unroll 8
              for (std::size_t c = 0; c < C; ++c) acc[c].add_mul(w[c * per_oc + kx], xv);
            }
          }
        }
#pragma GCC unroll 8
        for (std::size_t c = 0; c < C; ++c)
          acc[c].store(out.data() + ((oc + c) * out_h_ + oy) * out_w_ + ox);
      });
    }
  });
  return out;
}

std::vector<double> Conv2dLayer::backward(const std::vector<double>& grad_output,
                                          bool input_grad) {
  XLDS_REQUIRE(grad_output.size() == output_size());
  XLDS_REQUIRE_MSG(!last_input_.empty(), "backward before forward");
  std::vector<double> grad_in(input_grad ? last_input_.size() : 0, 0.0);
  for (std::size_t oc = 0; oc < out_c_; ++oc) {
    // A zero output gradient adds no term anywhere, so compact the channel's
    // nonzero ones, in (oy, ox) order and without a branch per pixel.
    const double* go = grad_output.data() + oc * out_h_ * out_w_;
    std::size_t n_taps = 0;
    for (std::size_t oy = 0; oy < out_h_; ++oy) {
      for (std::size_t ox = 0; ox < out_w_; ++ox) {
        const double g = go[oy * out_w_ + ox];
        taps_[n_taps] = {oy * in_w_ + ox, g};
        n_taps += g != 0.0;
      }
    }
    // gw(oc, ic, ky, kx) += g * x over the taps in order.  Lanes run along
    // kx, and R kernel rows, counted in (ic, ky) order, ride side by side.
    for (std::size_t t = 0; t < n_taps; ++t) gb_[oc] += taps_[t].grad;
    const std::size_t rows = row_offset_.size();
    for_each_block<kKernelRows>(0, rows, [&]<std::size_t R>(std::size_t q) {
      const double* x[R];
#pragma GCC unroll 8
      for (std::size_t r = 0; r < R; ++r) x[r] = last_input_.data() + row_offset_[q + r];
      double* dw = gw_.data() + (oc * rows + q) * k_;
      for_each_block<kTapBlock>(0, k_, [&]<std::size_t W>(std::size_t kx) {
        using L = Lanes<W>;
        L acc[R];
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) acc[r] = L::load(dw + r * k_ + kx);
        for (std::size_t t = 0; t < n_taps; ++t) {
          const std::size_t at = taps_[t].offset + kx;
          const double g = taps_[t].grad;
#pragma GCC unroll 8
          for (std::size_t r = 0; r < R; ++r) acc[r].add_mul(g, L::load(x[r] + at));
        }
#pragma GCC unroll 8
        for (std::size_t r = 0; r < R; ++r) acc[r].store(dw + r * k_ + kx);
      });
    });
    if (!input_grad) continue;
    // grad_in(ic, y, x) += g * w tap by tap, so each element takes its terms
    // in (oc, oy, ox) order.  One element at a time: the next tap rereads
    // what this one stored, shifted by a column, and a two-wide reread of
    // two one-wide stores cannot be forwarded (measured slower).
    for (std::size_t t = 0; t < n_taps; ++t) {
      const double g = taps_[t].grad;
      for (std::size_t q = 0; q < rows; ++q) {
        const double* w = w_.data() + (oc * rows + q) * k_;
        double* dx = grad_in.data() + row_offset_[q] + taps_[t].offset;
        for (std::size_t kx = 0; kx < k_; ++kx) dx[kx] += g * w[kx];
      }
    }
  }
  return grad_in;
}

void Conv2dLayer::update(double learning_rate, double momentum, double weight_decay) {
  for (std::size_t i = 0; i < w_.size(); ++i) {
    vw_[i] = momentum * vw_[i] - learning_rate * (gw_[i] + weight_decay * w_[i]);
    w_[i] += vw_[i];
    gw_[i] = 0.0;
  }
  for (std::size_t j = 0; j < out_c_; ++j) {
    vb_[j] = momentum * vb_[j] - learning_rate * gb_[j];
    b_[j] += vb_[j];
    gb_[j] = 0.0;
  }
}

LayerCounts Conv2dLayer::counts() const {
  LayerCounts c;
  c.params = w_.size() + b_.size();
  c.macs = out_c_ * out_h_ * out_w_ * in_c_ * k_ * k_;
  return c;
}

// ---- MaxPoolLayer ---------------------------------------------------------

MaxPoolLayer::MaxPoolLayer(std::size_t channels, std::size_t in_h, std::size_t in_w)
    : c_(channels), in_h_(in_h), in_w_(in_w), out_h_(in_h / 2), out_w_(in_w / 2) {
  XLDS_REQUIRE(in_h >= 2 && in_w >= 2);
}

std::vector<double> MaxPoolLayer::forward(const std::vector<double>& input) {
  XLDS_REQUIRE(input.size() == c_ * in_h_ * in_w_);
  std::vector<double> out(output_size());
  argmax_.resize(output_size());
  // Locals: the argmax stores would otherwise force the sizes to reload.
  const std::size_t in_h = in_h_, in_w = in_w_, out_h = out_h_, out_w = out_w_;
  std::size_t* argmax = argmax_.data();
  for (std::size_t ch = 0; ch < c_; ++ch) {
    for (std::size_t oy = 0; oy < out_h; ++oy) {
      for (std::size_t ox = 0; ox < out_w; ++ox) {
        // Each window starts from its own first element, and a later one
        // takes over only if strictly greater: the first maximum wins.  The
        // selects are arithmetic so that no data-dependent branch is left.
        const std::size_t first = (ch * in_h + 2 * oy) * in_w + 2 * ox;
        double best = input[first];
        std::size_t best_idx = first;
        for (const std::size_t idx : {first + 1, first + in_w, first + in_w + 1}) {
          const double v = input[idx];
          const std::size_t greater = v > best;
          best_idx += greater * (idx - best_idx);
          best = std::max(best, v);
        }
        const std::size_t out_idx = (ch * out_h + oy) * out_w + ox;
        out[out_idx] = best;
        argmax[out_idx] = best_idx;
      }
    }
  }
  return out;
}

std::vector<double> MaxPoolLayer::backward(const std::vector<double>& grad_output,
                                           bool input_grad) {
  XLDS_REQUIRE(grad_output.size() == output_size());
  XLDS_REQUIRE_MSG(!argmax_.empty(), "backward before forward");
  if (!input_grad) return {};
  std::vector<double> grad_in(c_ * in_h_ * in_w_, 0.0);
  for (std::size_t i = 0; i < grad_output.size(); ++i) grad_in[argmax_[i]] += grad_output[i];
  return grad_in;
}

}  // namespace xlds::nn
