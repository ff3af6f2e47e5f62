// Minimal trainable neural-network substrate.
//
// The paper's case studies need small nets, trained from scratch on synthetic
// data: MLP baselines for Fig. 3H, and the CNN feature extractor of the MANN
// pipeline (Sec. IV).  The substrate is a classic layer stack with explicit
// forward/backward; no autograd, no BLAS — network sizes here are tiny and
// the priority is dependable, inspectable numerics.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "util/matrix.hpp"
#include "util/rng.hpp"

namespace xlds::nn {

/// Static cost of a layer, consumed by the architecture models (Sec. V/VI
/// need MAC counts and parameter counts to estimate platform latencies).
struct LayerCounts {
  std::size_t macs = 0;
  std::size_t params = 0;
};

class Layer {
 public:
  virtual ~Layer() = default;

  /// Forward pass; implementations cache what backward() needs.
  virtual std::vector<double> forward(const std::vector<double>& input) = 0;

  /// Backward pass: accumulates parameter gradients internally and returns
  /// the gradient wrt input given the gradient wrt output.  With
  /// `input_grad` false the input gradient is not computed (a network's first
  /// layer has nobody to pass it to) and the result is empty.
  virtual std::vector<double> backward(const std::vector<double>& grad_output,
                                       bool input_grad) = 0;

  /// Apply accumulated gradients (SGD + momentum + L2 weight decay) and
  /// clear them.
  virtual void update(double learning_rate, double momentum, double weight_decay) = 0;

  virtual LayerCounts counts() const = 0;
  virtual std::size_t output_size() const = 0;

  /// Visit every trainable weight (not biases) — the hook fault-injection
  /// and weight-export tooling (the NVMExplorer lane) uses.
  virtual void visit_weights(const std::function<void(double&)>& fn) { (void)fn; }
};

class DenseLayer final : public Layer {
 public:
  DenseLayer(std::size_t in, std::size_t out, Rng& rng);

  std::vector<double> forward(const std::vector<double>& input) override;
  std::vector<double> backward(const std::vector<double>& grad_output, bool input_grad) override;
  void update(double learning_rate, double momentum, double weight_decay) override;
  LayerCounts counts() const override;
  std::size_t output_size() const override { return out_; }

  const MatrixD& weights() const noexcept { return w_; }
  MatrixD& mutable_weights() noexcept { return w_; }
  /// Parameter gradients accumulated since the last update().
  const MatrixD& weight_grad() const noexcept { return gw_; }
  const std::vector<double>& bias_grad() const noexcept { return gb_; }

  void visit_weights(const std::function<void(double&)>& fn) override {
    for (double& w : w_.data()) fn(w);
  }

 private:
  std::size_t in_, out_;
  MatrixD w_;   ///< [in x out]
  std::vector<double> b_;
  MatrixD gw_;
  std::vector<double> gb_;
  MatrixD vw_;  ///< momentum buffers
  std::vector<double> vb_;
  std::vector<double> last_input_;
};

class ReluLayer final : public Layer {
 public:
  explicit ReluLayer(std::size_t size) : size_(size) {}

  std::vector<double> forward(const std::vector<double>& input) override;
  std::vector<double> backward(const std::vector<double>& grad_output, bool input_grad) override;
  void update(double, double, double) override {}
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return size_; }

 private:
  std::size_t size_;
  std::vector<double> last_input_;
};

/// 2-D convolution over [channels x height x width] flattened input, valid
/// padding, square kernel, stride 1.
class Conv2dLayer final : public Layer {
 public:
  Conv2dLayer(std::size_t in_c, std::size_t in_h, std::size_t in_w, std::size_t out_c,
              std::size_t kernel, Rng& rng);

  std::vector<double> forward(const std::vector<double>& input) override;
  std::vector<double> backward(const std::vector<double>& grad_output, bool input_grad) override;
  void update(double learning_rate, double momentum, double weight_decay) override;
  LayerCounts counts() const override;
  std::size_t output_size() const override { return out_c_ * out_h_ * out_w_; }

  std::size_t out_h() const noexcept { return out_h_; }
  std::size_t out_w() const noexcept { return out_w_; }
  std::size_t out_c() const noexcept { return out_c_; }
  /// Parameter gradients accumulated since the last update().
  const std::vector<double>& weight_grad() const noexcept { return gw_; }
  const std::vector<double>& bias_grad() const noexcept { return gb_; }

  void visit_weights(const std::function<void(double&)>& fn) override {
    for (double& w : w_) fn(w);
  }

 private:
  /// One nonzero output gradient of a channel: its value and the offset of
  /// its receptive field's top-left input pixel within an input channel.
  struct Tap {
    std::size_t offset;
    double grad;
  };

  std::size_t in_c_, in_h_, in_w_, out_c_, k_;
  std::size_t out_h_, out_w_;
  std::vector<double> w_;  ///< [out_c][in_c][k][k]
  std::vector<double> b_;
  std::vector<double> gw_, gb_, vw_, vb_;
  std::vector<double> last_input_;
  std::vector<Tap> taps_;  ///< backward scratch, one slot per output pixel
  /// Input offset of kernel row (ic, ky) at tap offset 0, in (ic, ky) order.
  std::vector<std::size_t> row_offset_;
};

/// 2x2 max pooling, stride 2, over [channels x height x width].
class MaxPoolLayer final : public Layer {
 public:
  MaxPoolLayer(std::size_t channels, std::size_t in_h, std::size_t in_w);

  std::vector<double> forward(const std::vector<double>& input) override;
  std::vector<double> backward(const std::vector<double>& grad_output, bool input_grad) override;
  void update(double, double, double) override {}
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return c_ * out_h_ * out_w_; }

 private:
  std::size_t c_, in_h_, in_w_, out_h_, out_w_;
  std::vector<std::size_t> argmax_;
};

}  // namespace xlds::nn
