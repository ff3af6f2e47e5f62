// Unit tests for the NN substrate: layer numerics (including numerical
// gradient checks), the network container and the builders, plus the
// bit-identity oracle for the register-blocked training kernels.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <string>

#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace xlds::nn {
namespace {

// ---- DenseLayer ---------------------------------------------------------

TEST(Dense, ForwardKnownValues) {
  Rng rng(1);
  DenseLayer d(2, 2, rng);
  auto& w = d.mutable_weights();
  w(0, 0) = 1.0;
  w(0, 1) = 2.0;
  w(1, 0) = 3.0;
  w(1, 1) = 4.0;
  const auto y = d.forward({1.0, 2.0});
  EXPECT_DOUBLE_EQ(y[0], 7.0);   // 1*1 + 2*3
  EXPECT_DOUBLE_EQ(y[1], 10.0);  // 1*2 + 2*4
}

TEST(Dense, CountsMacsAndParams) {
  Rng rng(2);
  DenseLayer d(10, 5, rng);
  EXPECT_EQ(d.counts().macs, 50u);
  EXPECT_EQ(d.counts().params, 55u);
}

// Numerical gradient check: perturb each weight, compare loss delta with the
// analytic gradient accumulated by backward().
TEST(Dense, GradientMatchesNumerical) {
  Rng rng(3);
  DenseLayer d(3, 2, rng);
  const std::vector<double> x = {0.5, -0.2, 0.8};
  const std::vector<double> grad_out = {1.0, -0.5};  // dL/dy

  auto loss = [&](DenseLayer& layer) {
    const auto y = layer.forward(x);
    return grad_out[0] * y[0] + grad_out[1] * y[1];  // linear functional
  };

  d.forward(x);
  const auto grad_in = d.backward(grad_out, true);

  // Input gradient check.
  constexpr double kEps = 1e-6;
  for (std::size_t i = 0; i < 3; ++i) {
    std::vector<double> xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    const auto yp = d.forward(xp);
    const auto ym = d.forward(xm);
    const double num = ((grad_out[0] * yp[0] + grad_out[1] * yp[1]) -
                        (grad_out[0] * ym[0] + grad_out[1] * ym[1])) /
                       (2 * kEps);
    EXPECT_NEAR(grad_in[i], num, 1e-6);
  }

  // Weight gradient check: apply update with lr=1, momentum=0; the weight
  // moves by -grad, so loss must decrease to first order.
  const double before = loss(d);
  d.forward(x);
  d.backward(grad_out, true);
  d.update(1e-3, 0.0, 0.0);
  const double after = loss(d);
  EXPECT_LT(after, before);
}

// ---- ReluLayer --------------------------------------------------------

TEST(Relu, ForwardAndBackwardMask) {
  ReluLayer r(4);
  const auto y = r.forward({-1.0, 2.0, 0.0, 3.0});
  EXPECT_EQ(y, (std::vector<double>{0.0, 2.0, 0.0, 3.0}));
  const auto g = r.backward({1.0, 1.0, 1.0, 1.0}, true);
  EXPECT_EQ(g, (std::vector<double>{0.0, 1.0, 0.0, 1.0}));
}

// ---- Conv2dLayer --------------------------------------------------------

TEST(Conv, OutputShapeAndIdentityKernel) {
  Rng rng(4);
  Conv2dLayer conv(1, 4, 4, 1, 3, rng);
  EXPECT_EQ(conv.out_h(), 2u);
  EXPECT_EQ(conv.out_w(), 2u);
  EXPECT_EQ(conv.output_size(), 4u);
  EXPECT_EQ(conv.counts().macs, 2u * 2u * 9u);
}

TEST(Conv, GradientDecreasesLoss) {
  Rng rng(5);
  Conv2dLayer conv(1, 6, 6, 2, 3, rng);
  Rng data(6);
  std::vector<double> x(36);
  for (double& v : x) v = data.uniform();
  std::vector<double> grad_out(conv.output_size(), 1.0);

  auto loss = [&] {
    double s = 0.0;
    for (double v : conv.forward(x)) s += v;
    return s;
  };
  const double before = loss();
  conv.forward(x);
  conv.backward(grad_out, true);
  conv.update(1e-3, 0.0, 0.0);
  EXPECT_LT(loss(), before);
}

TEST(Conv, InputGradientMatchesNumerical) {
  Rng rng(7);
  Conv2dLayer conv(1, 5, 5, 1, 3, rng);
  Rng data(8);
  std::vector<double> x(25);
  for (double& v : x) v = data.uniform();
  conv.forward(x);
  std::vector<double> grad_out(conv.output_size(), 1.0);
  const auto grad_in = conv.backward(grad_out, true);

  constexpr double kEps = 1e-6;
  for (std::size_t i : {0u, 7u, 12u, 24u}) {
    std::vector<double> xp = x, xm = x;
    xp[i] += kEps;
    xm[i] -= kEps;
    double sp = 0.0, sm = 0.0;
    for (double v : conv.forward(xp)) sp += v;
    for (double v : conv.forward(xm)) sm += v;
    EXPECT_NEAR(grad_in[i], (sp - sm) / (2 * kEps), 1e-5) << "pixel " << i;
  }
}

// ---- MaxPoolLayer -------------------------------------------------------

TEST(MaxPool, SelectsMaximaAndRoutesGradient) {
  MaxPoolLayer pool(1, 4, 4);
  std::vector<double> x(16, 0.0);
  x[5] = 3.0;   // (1,1) in the top-left window? window (0..1, 0..1) has idx 0,1,4,5
  x[10] = 7.0;  // (2,2) in the bottom-right-ish window
  const auto y = pool.forward(x);
  ASSERT_EQ(y.size(), 4u);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
  EXPECT_DOUBLE_EQ(y[3], 7.0);
  const auto g = pool.backward({1.0, 2.0, 3.0, 4.0}, true);
  EXPECT_DOUBLE_EQ(g[5], 1.0);
  EXPECT_DOUBLE_EQ(g[10], 4.0);
}

// A window with no element above -inf used to keep the index of channel 0's
// first pixel, so its gradient landed in another channel.
TEST(MaxPool, NegativeInfinityWindowRoutesGradientWithinItsChannel) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  MaxPoolLayer pool(2, 2, 2);
  const auto y = pool.forward({1.0, 2.0, 4.0, 3.0, -kInf, -kInf, -kInf, -kInf});
  EXPECT_EQ(y[0], 4.0);
  EXPECT_EQ(y[1], -kInf);
  const auto g = pool.backward({10.0, 20.0}, true);
  EXPECT_EQ(g, (std::vector<double>{0.0, 0.0, 10.0, 0.0, 20.0, 0.0, 0.0, 0.0}));
}

// An all-NaN window used to output -inf, silently dropping the NaN.
TEST(MaxPool, NaNWindowPropagatesNaN) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  MaxPoolLayer pool(1, 2, 4);
  const auto y = pool.forward({kNaN, kNaN, 1.0, 5.0, kNaN, kNaN, 5.0, 2.0});
  EXPECT_TRUE(std::isnan(y[0]));
  EXPECT_EQ(y[1], 5.0);  // tie: the first maximum wins
  const auto g = pool.backward({7.0, 9.0}, true);
  EXPECT_EQ(g, (std::vector<double>{7.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0, 0.0}));
}

// ---- Bit identity with the one-accumulator loops ------------------------
//
// The layers run independent accumulators side by side in vector registers
// and must produce exactly the bytes of the plain loops below, which are the
// pre-blocking kernels kept verbatim as the oracle.

class RefDense final : public Layer {
 public:
  RefDense(std::size_t in, std::size_t out, Rng& rng)
      : in_(in), out_(out), w_(in, out), b_(out, 0.0), gw_(in, out), gb_(out, 0.0),
        vw_(in, out), vb_(out, 0.0) {
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (double& w : w_.data()) w = rng.normal(0.0, scale);
  }
  std::vector<double> forward(const std::vector<double>& input) override {
    last_input_ = input;
    std::vector<double> out(out_, 0.0);
    for (std::size_t i = 0; i < in_; ++i)
      for (std::size_t j = 0; j < out_; ++j) out[j] += w_(i, j) * input[i];
    for (std::size_t j = 0; j < out_; ++j) out[j] += b_[j];
    return out;
  }
  std::vector<double> backward(const std::vector<double>& grad_output, bool) override {
    for (std::size_t i = 0; i < in_; ++i)
      for (std::size_t j = 0; j < out_; ++j) gw_(i, j) += last_input_[i] * grad_output[j];
    for (std::size_t j = 0; j < out_; ++j) gb_[j] += grad_output[j];
    std::vector<double> grad_in(in_, 0.0);
    for (std::size_t i = 0; i < in_; ++i) {
      double acc = 0.0;
      for (std::size_t j = 0; j < out_; ++j) acc += w_(i, j) * grad_output[j];
      grad_in[i] = acc;
    }
    return grad_in;
  }
  void update(double learning_rate, double momentum, double weight_decay) override {
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
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return out_; }
  void visit_weights(const std::function<void(double&)>& fn) override {
    for (double& w : w_.data()) fn(w);
  }
  const MatrixD& weight_grad() const { return gw_; }
  const std::vector<double>& bias_grad() const { return gb_; }

 private:
  std::size_t in_, out_;
  MatrixD w_;
  std::vector<double> b_;
  MatrixD gw_;
  std::vector<double> gb_;
  MatrixD vw_;
  std::vector<double> vb_;
  std::vector<double> last_input_;
};

class RefRelu final : public Layer {
 public:
  explicit RefRelu(std::size_t size) : size_(size) {}
  std::vector<double> forward(const std::vector<double>& input) override {
    last_input_ = input;
    std::vector<double> out(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) out[i] = std::max(0.0, input[i]);
    return out;
  }
  std::vector<double> backward(const std::vector<double>& grad_output, bool) override {
    std::vector<double> grad(grad_output.size());
    for (std::size_t i = 0; i < grad.size(); ++i)
      grad[i] = last_input_[i] > 0.0 ? grad_output[i] : 0.0;
    return grad;
  }
  void update(double, double, double) override {}
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return size_; }

 private:
  std::size_t size_;
  std::vector<double> last_input_;
};

class RefConv final : public Layer {
 public:
  RefConv(std::size_t in_c, std::size_t in_h, std::size_t in_w, std::size_t out_c,
          std::size_t k, Rng& rng)
      : in_c_(in_c), in_h_(in_h), in_w_(in_w), out_c_(out_c), k_(k),
        out_h_(in_h - k + 1), out_w_(in_w - k + 1) {
    const std::size_t n_w = out_c_ * in_c_ * k_ * k_;
    w_.resize(n_w);
    b_.assign(out_c_, 0.0);
    gw_.assign(n_w, 0.0);
    gb_.assign(out_c_, 0.0);
    vw_.assign(n_w, 0.0);
    vb_.assign(out_c_, 0.0);
    const double scale = std::sqrt(2.0 / static_cast<double>(in_c_ * k_ * k_));
    for (double& w : w_) w = rng.normal(0.0, scale);
  }
  std::vector<double> forward(const std::vector<double>& input) override {
    last_input_ = input;
    std::vector<double> out(output_size(), 0.0);
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox) {
          double acc = b_[oc];
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            for (std::size_t ky = 0; ky < k_; ++ky) {
              for (std::size_t kx = 0; kx < k_; ++kx) {
                acc += kernel_at(oc, ic, ky, kx) *
                       input[(ic * in_h_ + oy + ky) * in_w_ + ox + kx];
              }
            }
          }
          out[(oc * out_h_ + oy) * out_w_ + ox] = acc;
        }
      }
    }
    return out;
  }
  std::vector<double> backward(const std::vector<double>& grad_output, bool) override {
    std::vector<double> grad_in(last_input_.size(), 0.0);
    for (std::size_t oc = 0; oc < out_c_; ++oc) {
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox) {
          const double go = grad_output[(oc * out_h_ + oy) * out_w_ + ox];
          if (go == 0.0) continue;
          gb_[oc] += go;
          for (std::size_t ic = 0; ic < in_c_; ++ic) {
            for (std::size_t ky = 0; ky < k_; ++ky) {
              for (std::size_t kx = 0; kx < k_; ++kx) {
                const std::size_t in_idx = (ic * in_h_ + oy + ky) * in_w_ + ox + kx;
                gw_[((oc * in_c_ + ic) * k_ + ky) * k_ + kx] += go * last_input_[in_idx];
                grad_in[in_idx] += go * kernel_at(oc, ic, ky, kx);
              }
            }
          }
        }
      }
    }
    return grad_in;
  }
  void update(double learning_rate, double momentum, double weight_decay) override {
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
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return out_c_ * out_h_ * out_w_; }
  void visit_weights(const std::function<void(double&)>& fn) override {
    for (double& w : w_) fn(w);
  }
  const std::vector<double>& weight_grad() const { return gw_; }
  const std::vector<double>& bias_grad() const { return gb_; }

 private:
  double kernel_at(std::size_t oc, std::size_t ic, std::size_t ky, std::size_t kx) const {
    return w_[((oc * in_c_ + ic) * k_ + ky) * k_ + kx];
  }

  std::size_t in_c_, in_h_, in_w_, out_c_, k_, out_h_, out_w_;
  std::vector<double> w_, b_, gw_, gb_, vw_, vb_;
  std::vector<double> last_input_;
};

class RefMaxPool final : public Layer {
 public:
  RefMaxPool(std::size_t channels, std::size_t in_h, std::size_t in_w)
      : c_(channels), in_h_(in_h), in_w_(in_w), out_h_(in_h / 2), out_w_(in_w / 2) {}
  std::vector<double> forward(const std::vector<double>& input) override {
    std::vector<double> out(output_size());
    argmax_.assign(output_size(), 0);
    for (std::size_t ch = 0; ch < c_; ++ch) {
      for (std::size_t oy = 0; oy < out_h_; ++oy) {
        for (std::size_t ox = 0; ox < out_w_; ++ox) {
          double best = -HUGE_VAL;
          std::size_t best_idx = 0;
          for (std::size_t dy = 0; dy < 2; ++dy) {
            for (std::size_t dx = 0; dx < 2; ++dx) {
              const std::size_t idx = (ch * in_h_ + 2 * oy + dy) * in_w_ + 2 * ox + dx;
              if (input[idx] > best) {
                best = input[idx];
                best_idx = idx;
              }
            }
          }
          const std::size_t out_idx = (ch * out_h_ + oy) * out_w_ + ox;
          out[out_idx] = best;
          argmax_[out_idx] = best_idx;
        }
      }
    }
    return out;
  }
  std::vector<double> backward(const std::vector<double>& grad_output, bool) override {
    std::vector<double> grad_in(c_ * in_h_ * in_w_, 0.0);
    for (std::size_t i = 0; i < grad_output.size(); ++i) grad_in[argmax_[i]] += grad_output[i];
    return grad_in;
  }
  void update(double, double, double) override {}
  LayerCounts counts() const override { return {}; }
  std::size_t output_size() const override { return c_ * out_h_ * out_w_; }

 private:
  std::size_t c_, in_h_, in_w_, out_h_, out_w_;
  std::vector<std::size_t> argmax_;
};

/// make_small_cnn built from the reference layers; draws the same weights.
Network make_reference_cnn(std::size_t side, std::size_t classes, std::size_t embedding,
                           Rng& rng) {
  Network net;
  const std::size_t h1 = side - 4, h1p = h1 / 2, h2 = h1p - 2, flat = 8 * (h2 / 2) * (h2 / 2);
  net.add(std::make_unique<RefConv>(1, side, side, 4, 5, rng));
  net.add(std::make_unique<RefRelu>(4 * h1 * h1));
  net.add(std::make_unique<RefMaxPool>(4, h1, h1));
  net.add(std::make_unique<RefConv>(4, h1p, h1p, 8, 3, rng));
  net.add(std::make_unique<RefRelu>(8 * h2 * h2));
  net.add(std::make_unique<RefMaxPool>(8, h2, h2));
  net.add(std::make_unique<RefDense>(flat, embedding, rng));
  net.add(std::make_unique<RefRelu>(embedding));
  net.add(std::make_unique<RefDense>(embedding, classes, rng));
  return net;
}

/// make_mlp({hidden}) built from the reference layers.
Network make_reference_mlp(std::size_t input, std::size_t hidden, std::size_t classes, Rng& rng) {
  Network net;
  net.add(std::make_unique<RefDense>(input, hidden, rng));
  net.add(std::make_unique<RefRelu>(hidden));
  net.add(std::make_unique<RefDense>(hidden, classes, rng));
  return net;
}

::testing::AssertionResult same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "sizes " << a.size() << " vs " << b.size();
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
      return ::testing::AssertionFailure()
             << "element " << i << ": " << a[i] << " vs " << b[i] << " (bits differ)";
  }
  return ::testing::AssertionSuccess();
}

std::vector<double> weights_of(Network& net) {
  std::vector<double> out;
  net.visit_weights([&](double& w) { out.push_back(w); });
  return out;
}

void copy_weights(Layer& from, Layer& to) {
  std::vector<double> w;
  from.visit_weights([&](double& v) { w.push_back(v); });
  std::size_t i = 0;
  to.visit_weights([&](double& v) { v = w.at(i++); });
  ASSERT_EQ(i, w.size());
}

/// Gaussian values with plain zeros, negative zeros and, when there is more
/// than one channel, an all-zero last channel: the blocked backward compacts
/// the nonzero output gradients, so all three must drop out exactly as the
/// scalar loop's `go == 0` skip drops them.
std::vector<double> sparse_grad(std::size_t channels, std::size_t per_channel, Rng& rng) {
  std::vector<double> g(channels * per_channel);
  for (double& v : g) {
    const double r = rng.uniform();
    v = r < 0.4 ? 0.0 : r < 0.5 ? -0.0 : rng.normal(0.0, 1.0);
  }
  if (channels > 1)
    std::fill(g.end() - static_cast<std::ptrdiff_t>(per_channel), g.end(), 0.0);
  return g;
}

struct ConvShape {
  std::size_t in_c, in_h, in_w, out_c, k;
};

std::string conv_shape_name(const ConvShape& s) {
  return "c" + std::to_string(s.in_c) + "_" + std::to_string(s.in_h) + "x" +
         std::to_string(s.in_w) + "_to" + std::to_string(s.out_c) + "_k" + std::to_string(s.k);
}

void PrintTo(const ConvShape& s, std::ostream* os) { *os << conv_shape_name(s); }

class ConvBitIdentity : public ::testing::TestWithParam<ConvShape> {};

TEST_P(ConvBitIdentity, MatchesScalarLoops) {
  const ConvShape s = GetParam();
  Rng init(41);
  Conv2dLayer conv(s.in_c, s.in_h, s.in_w, s.out_c, s.k, init);
  RefConv ref(s.in_c, s.in_h, s.in_w, s.out_c, s.k, init);
  copy_weights(conv, ref);
  Rng data(43);
  const std::size_t out_plane = conv.out_h() * conv.out_w();
  // Round 1 runs on the updated weights and nonzero biases of round 0.
  for (int round = 0; round < 2; ++round) {
    for (int call = 0; call < 2; ++call) {  // gradients accumulate across calls
      std::vector<double> x(s.in_c * s.in_h * s.in_w);
      for (double& v : x) v = data.normal(0.0, 1.0);
      x[0] = -0.0;
      const std::vector<double> g = sparse_grad(s.out_c, out_plane, data);
      EXPECT_TRUE(same_bytes(conv.forward(x), ref.forward(x)));
      EXPECT_TRUE(same_bytes(conv.backward(g, true), ref.backward(g, true)));
    }
    EXPECT_TRUE(same_bytes(conv.weight_grad(), ref.weight_grad()));
    EXPECT_TRUE(same_bytes(conv.bias_grad(), ref.bias_grad()));
    conv.update(0.05, 0.9, 1e-3);
    ref.update(0.05, 0.9, 1e-3);
  }
  // Without the input gradient the parameter gradients are unchanged.
  std::vector<double> x(s.in_c * s.in_h * s.in_w);
  for (double& v : x) v = data.normal(0.0, 1.0);
  const std::vector<double> g = sparse_grad(s.out_c, out_plane, data);
  conv.forward(x);
  ref.forward(x);
  EXPECT_TRUE(conv.backward(g, false).empty());
  ref.backward(g, true);
  EXPECT_TRUE(same_bytes(conv.weight_grad(), ref.weight_grad()));
  EXPECT_TRUE(same_bytes(conv.bias_grad(), ref.bias_grad()));
}

// The probe CNN's two layers, then ragged shapes: output widths and channel
// counts that are not whole blocks, k in {1, 2, 3, 5, 7}, in_c > 1.
INSTANTIATE_TEST_SUITE_P(Shapes, ConvBitIdentity,
                         ::testing::Values(ConvShape{1, 16, 16, 4, 5}, ConvShape{4, 6, 6, 8, 3},
                                           ConvShape{2, 9, 11, 3, 1}, ConvShape{3, 7, 10, 5, 2},
                                           ConvShape{2, 12, 13, 6, 7}, ConvShape{1, 5, 5, 2, 5},
                                           ConvShape{3, 8, 9, 7, 3}),
                         [](const auto& info) { return conv_shape_name(info.param); });

class DenseBitIdentity
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(DenseBitIdentity, MatchesScalarLoops) {
  const auto [in, out] = GetParam();
  Rng init(47);
  DenseLayer dense(in, out, init);
  RefDense ref(in, out, init);
  copy_weights(dense, ref);
  Rng data(53);
  for (int round = 0; round < 2; ++round) {
    for (int call = 0; call < 2; ++call) {
      std::vector<double> x(in);
      for (double& v : x) v = data.normal(0.0, 1.0);
      const std::vector<double> g = sparse_grad(1, out, data);
      EXPECT_TRUE(same_bytes(dense.forward(x), ref.forward(x)));
      EXPECT_TRUE(same_bytes(dense.backward(g, true), ref.backward(g, true)));
    }
    EXPECT_TRUE(same_bytes(dense.weight_grad().data(), ref.weight_grad().data()));
    EXPECT_TRUE(same_bytes(dense.bias_grad(), ref.bias_grad()));
    dense.update(0.05, 0.9, 1e-3);
    ref.update(0.05, 0.9, 1e-3);
  }
  EXPECT_TRUE(dense.backward(std::vector<double>(out, 1.0), false).empty());
}

INSTANTIATE_TEST_SUITE_P(Shapes, DenseBitIdentity,
                         ::testing::Values(std::pair<std::size_t, std::size_t>{32, 32},
                                           std::pair<std::size_t, std::size_t>{32, 16},
                                           std::pair<std::size_t, std::size_t>{7, 5},
                                           std::pair<std::size_t, std::size_t>{1, 3},
                                           std::pair<std::size_t, std::size_t>{13, 9}),
                         [](const auto& info) {
                           return std::to_string(info.param.first) + "x" +
                                  std::to_string(info.param.second);
                         });

TEST(PoolBitIdentity, MatchesScalarLoopOnTiesAndOddSizes) {
  MaxPoolLayer pool(3, 7, 9);
  RefMaxPool ref(3, 7, 9);
  Rng data(59);
  for (int call = 0; call < 3; ++call) {
    // Few distinct values, signed zeros among them: many ties to break.
    std::vector<double> x(3 * 7 * 9);
    for (double& v : x) v = std::array{-1.0, -0.0, 0.0, 2.0}[data.uniform_u32(4)];
    std::vector<double> g(pool.output_size());
    for (double& v : g) v = data.normal(0.0, 1.0);
    EXPECT_TRUE(same_bytes(pool.forward(x), ref.forward(x)));
    EXPECT_TRUE(same_bytes(pool.backward(g, true), ref.backward(g, true)));
  }
}

TEST(ReluBitIdentity, MatchesScalarLoop) {
  ReluLayer relu(64);
  RefRelu ref(64);
  Rng data(61);
  std::vector<double> x(64), g(64);
  for (double& v : x) v = data.normal(0.0, 1.0);
  for (double& v : g) v = data.normal(0.0, 1.0);
  x[0] = -0.0;
  x[1] = 0.0;
  EXPECT_TRUE(same_bytes(relu.forward(x), ref.forward(x)));
  EXPECT_TRUE(same_bytes(relu.backward(g, true), ref.backward(g, true)));
}

std::vector<std::vector<double>> random_images(std::size_t n, std::size_t size, Rng& rng) {
  std::vector<std::vector<double>> xs(n, std::vector<double>(size));
  for (auto& x : xs)
    for (double& v : x) v = rng.uniform();
  return xs;
}

TEST(NetworkBitIdentity, SmallCnnTrainsToTheReferenceBytes) {
  Rng data(67);
  const auto xs = random_images(24, 16 * 16, data);
  std::vector<std::size_t> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(i % 4);
  Rng rng_a(71), rng_b(71);
  Network net = make_small_cnn(16, 4, 32, rng_a);
  Network ref = make_reference_cnn(16, 4, 32, rng_b);
  ASSERT_TRUE(same_bytes(weights_of(net), weights_of(ref)));
  for (int epoch = 0; epoch < 2; ++epoch) {
    EXPECT_EQ(net.train_epoch(xs, ys, 0.01, rng_a, 0.9, 1e-3),
              ref.train_epoch(xs, ys, 0.01, rng_b, 0.9, 1e-3));
  }
  EXPECT_TRUE(same_bytes(weights_of(net), weights_of(ref)));
  for (const auto& x : xs) {
    EXPECT_TRUE(same_bytes(net.forward(x), ref.forward(x)));
    EXPECT_TRUE(same_bytes(net.forward_until(x, 1), ref.forward_until(x, 1)));
  }
}

TEST(NetworkBitIdentity, MlpTrainsToTheReferenceBytes) {
  Rng data(73);
  const auto xs = random_images(40, 12, data);
  std::vector<std::size_t> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(i % 3);
  Rng rng_a(79), rng_b(79);
  Network net = make_mlp(12, {10}, 3, rng_a);
  Network ref = make_reference_mlp(12, 10, 3, rng_b);
  for (int epoch = 0; epoch < 2; ++epoch) {
    net.train_epoch(xs, ys, 0.05, rng_a, 0.9, 1e-3);
    ref.train_epoch(xs, ys, 0.05, rng_b, 0.9, 1e-3);
  }
  EXPECT_TRUE(same_bytes(weights_of(net), weights_of(ref)));
  for (const auto& x : xs) EXPECT_TRUE(same_bytes(net.forward(x), ref.forward(x)));
}

// Network::train_step skips the first layer's input gradient; a step that
// computes it (and throws it away) must leave the same weights.
TEST(NetworkBitIdentity, SkippingTheFirstInputGradientChangesNoWeight) {
  Rng data(83);
  const auto xs = random_images(16, 16 * 16, data);
  std::vector<std::size_t> ys;
  for (std::size_t i = 0; i < xs.size(); ++i) ys.push_back(i % 4);
  Rng rng_a(89), rng_b(89);
  Network skipping = make_small_cnn(16, 4, 32, rng_a);
  Network full = make_small_cnn(16, 4, 32, rng_b);
  for (int epoch = 0; epoch < 2; ++epoch) {
    skipping.train_epoch(xs, ys, 0.01, rng_a);
    for (std::size_t idx : rng_b.permutation(xs.size())) {
      std::vector<double> grad = softmax(full.forward(xs[idx]));
      grad[ys[idx]] -= 1.0;
      for (std::size_t i = full.layer_count(); i-- > 0;) grad = full.layer(i).backward(grad, true);
      ASSERT_EQ(grad.size(), xs[idx].size());
      for (std::size_t i = 0; i < full.layer_count(); ++i) full.layer(i).update(0.01, 0.9, 0.0);
    }
  }
  EXPECT_TRUE(same_bytes(weights_of(skipping), weights_of(full)));
  for (const auto& x : xs) EXPECT_TRUE(same_bytes(skipping.forward(x), full.forward(x)));
}

// ---- Network -----------------------------------------------------------

TEST(Network, SoftmaxNormalises) {
  const auto p = softmax({1.0, 2.0, 3.0});
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_GT(p[2], p[1]);
  EXPECT_GT(p[1], p[0]);
}

TEST(Network, TrainsLinearlySeparableProblem) {
  Rng rng(9);
  Network net = make_mlp(2, {16}, 2, rng);
  // Class 0: x0 > x1; class 1 otherwise.
  std::vector<std::vector<double>> xs;
  std::vector<std::size_t> ys;
  Rng data(10);
  for (int i = 0; i < 200; ++i) {
    const double a = data.uniform(), b = data.uniform();
    xs.push_back({a, b});
    ys.push_back(a > b ? 0 : 1);
  }
  for (int e = 0; e < 30; ++e) net.train_epoch(xs, ys, 0.05, rng);
  EXPECT_GT(net.accuracy(xs, ys), 0.95);
}

TEST(Network, TrainStepReducesLossOnAverage) {
  Rng rng(11);
  Network net = make_mlp(4, {8}, 3, rng);
  const std::vector<double> x = {0.1, 0.9, 0.4, 0.2};
  double first = 0.0, last = 0.0;
  for (int i = 0; i < 50; ++i) {
    const double loss = net.train_step(x, 1, 0.05);
    if (i == 0) first = loss;
    last = loss;
  }
  EXPECT_LT(last, first);
}

TEST(Network, ForwardUntilSkipsHead) {
  Rng rng(12);
  Network net = make_mlp(4, {8}, 3, rng);
  // Dropping the final Dense leaves the 8-wide hidden activation.
  EXPECT_EQ(net.forward_until({0.1, 0.2, 0.3, 0.4}, 1).size(), 8u);
  EXPECT_EQ(net.forward({0.1, 0.2, 0.3, 0.4}).size(), 3u);
}

TEST(Network, SmallCnnShapesAndTrains) {
  Rng rng(13);
  Network net = make_small_cnn(16, 4, 32, rng);
  std::vector<double> img(256, 0.5);
  EXPECT_EQ(net.forward(img).size(), 4u);
  EXPECT_EQ(net.forward_until(img, 1).size(), 32u);
  EXPECT_GT(net.total_counts().macs, 10000u);
  EXPECT_NO_THROW(net.train_step(img, 2, 0.01));
}

TEST(Network, EmptyNetworkThrows) {
  Network net;
  EXPECT_THROW(net.forward({1.0}), PreconditionError);
}

TEST(Network, WeightDecayShrinksWeights) {
  Rng rng(14);
  DenseLayer d(4, 4, rng);
  const std::vector<double> zero_grad(4, 0.0);
  double norm_before = 0.0;
  for (double w : d.weights().data()) norm_before += w * w;
  // No data gradient, only decay: weights must shrink toward zero.
  d.forward({0.0, 0.0, 0.0, 0.0});
  d.backward(zero_grad, true);
  d.update(0.1, 0.0, 0.5);
  double norm_after = 0.0;
  for (double w : d.weights().data()) norm_after += w * w;
  EXPECT_LT(norm_after, norm_before);
}

}  // namespace
}  // namespace xlds::nn
