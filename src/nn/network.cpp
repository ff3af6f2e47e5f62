#include "nn/network.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace xlds::nn {

std::vector<double> softmax(const std::vector<double>& logits) {
  XLDS_REQUIRE(!logits.empty());
  const double m = *std::max_element(logits.begin(), logits.end());
  std::vector<double> p(logits.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    p[i] = std::exp(logits[i] - m);
    sum += p[i];
  }
  for (double& x : p) x /= sum;
  return p;
}

Network& Network::add(std::unique_ptr<Layer> layer) {
  XLDS_REQUIRE(layer != nullptr);
  layers_.push_back(std::move(layer));
  return *this;
}

std::vector<double> Network::forward(const std::vector<double>& input) {
  XLDS_REQUIRE_MSG(!layers_.empty(), "empty network");
  std::vector<double> x = input;
  for (auto& layer : layers_) x = layer->forward(x);
  return x;
}

std::vector<double> Network::forward_until(const std::vector<double>& input, std::size_t n_last) {
  XLDS_REQUIRE_MSG(n_last < layers_.size(), "cannot drop " << n_last << " of " << layers_.size());
  std::vector<double> x = input;
  for (std::size_t i = 0; i + n_last < layers_.size(); ++i) x = layers_[i]->forward(x);
  return x;
}

std::size_t Network::predict(const std::vector<double>& input) {
  const std::vector<double> logits = forward(input);
  return static_cast<std::size_t>(std::max_element(logits.begin(), logits.end()) -
                                  logits.begin());
}

double Network::train_step(const std::vector<double>& input, std::size_t label,
                           double learning_rate, double momentum, double weight_decay) {
  const std::vector<double> logits = forward(input);
  XLDS_REQUIRE(label < logits.size());
  const std::vector<double> p = softmax(logits);
  const double loss = -std::log(std::max(p[label], 1e-12));
  std::vector<double> grad = p;
  grad[label] -= 1.0;
  // The first layer's input gradient would be thrown away: skip it.
  for (std::size_t i = layers_.size(); i-- > 0;) grad = layers_[i]->backward(grad, i > 0);
  for (auto& layer : layers_) layer->update(learning_rate, momentum, weight_decay);
  return loss;
}

double Network::train_epoch(const std::vector<std::vector<double>>& inputs,
                            const std::vector<std::size_t>& labels, double learning_rate,
                            Rng& rng, double momentum, double weight_decay) {
  XLDS_REQUIRE(inputs.size() == labels.size());
  XLDS_REQUIRE(!inputs.empty());
  const std::vector<std::size_t> order = rng.permutation(inputs.size());
  double total = 0.0;
  for (std::size_t idx : order)
    total += train_step(inputs[idx], labels[idx], learning_rate, momentum, weight_decay);
  return total / static_cast<double>(inputs.size());
}

double Network::accuracy(const std::vector<std::vector<double>>& inputs,
                         const std::vector<std::size_t>& labels) {
  XLDS_REQUIRE(inputs.size() == labels.size());
  XLDS_REQUIRE(!inputs.empty());
  std::size_t correct = 0;
  for (std::size_t i = 0; i < inputs.size(); ++i)
    if (predict(inputs[i]) == labels[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(inputs.size());
}

void Network::visit_weights(const std::function<void(double&)>& fn) {
  for (auto& layer : layers_) layer->visit_weights(fn);
}

LayerCounts Network::total_counts() const {
  LayerCounts total;
  for (const auto& layer : layers_) {
    const LayerCounts c = layer->counts();
    total.macs += c.macs;
    total.params += c.params;
  }
  return total;
}

Network make_mlp(std::size_t input, const std::vector<std::size_t>& hidden, std::size_t classes,
                 Rng& rng) {
  Network net;
  std::size_t prev = input;
  for (std::size_t h : hidden) {
    net.add(std::make_unique<DenseLayer>(prev, h, rng));
    net.add(std::make_unique<ReluLayer>(h));
    prev = h;
  }
  net.add(std::make_unique<DenseLayer>(prev, classes, rng));
  return net;
}

Network make_small_cnn(std::size_t side, std::size_t classes, std::size_t embedding, Rng& rng) {
  XLDS_REQUIRE(side >= 12);
  Network net;
  auto conv1 = std::make_unique<Conv2dLayer>(1, side, side, 4, 5, rng);
  const std::size_t h1 = conv1->out_h(), w1 = conv1->out_w();
  net.add(std::move(conv1));
  net.add(std::make_unique<ReluLayer>(4 * h1 * w1));
  net.add(std::make_unique<MaxPoolLayer>(4, h1, w1));
  const std::size_t h1p = h1 / 2, w1p = w1 / 2;
  auto conv2 = std::make_unique<Conv2dLayer>(4, h1p, w1p, 8, 3, rng);
  const std::size_t h2 = conv2->out_h(), w2 = conv2->out_w();
  net.add(std::move(conv2));
  net.add(std::make_unique<ReluLayer>(8 * h2 * w2));
  net.add(std::make_unique<MaxPoolLayer>(8, h2, w2));
  const std::size_t flat = 8 * (h2 / 2) * (w2 / 2);
  net.add(std::make_unique<DenseLayer>(flat, embedding, rng));
  net.add(std::make_unique<ReluLayer>(embedding));
  net.add(std::make_unique<DenseLayer>(embedding, classes, rng));
  return net;
}

}  // namespace xlds::nn
