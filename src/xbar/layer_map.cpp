#include "xbar/layer_map.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/mvm.hpp"
#include "util/error.hpp"

namespace xlds::xbar {

MappedLayer::MappedLayer(LayerMapConfig config, const MatrixD& weights, Rng& rng)
    : config_(config), in_dim_(weights.rows()), out_dim_(weights.cols()) {
  XLDS_REQUIRE(in_dim_ >= 1 && out_dim_ >= 1);
  XLDS_REQUIRE(config_.weight_bits >= 1 && config_.weight_bits <= 16);
  XLDS_REQUIRE(config_.slice_bits >= 1 && config_.slice_bits <= config_.weight_bits);

  for (double w : weights.data()) scale_ = std::max(scale_, std::abs(w));

  const std::size_t n_slices =
      (config_.weight_bits + config_.slice_bits - 1) / config_.slice_bits;
  const std::uint64_t q_max = (1ull << config_.weight_bits) - 1;  // magnitude levels
  const std::uint64_t radix = 1ull << config_.slice_bits;         // digit base
  const double digit_max = static_cast<double>(radix - 1);

  // Quantise: signed magnitude, round-to-nearest on |w| / scale.
  Matrix<std::uint64_t> q(in_dim_, out_dim_, 0);
  Matrix<std::int8_t> sign(in_dim_, out_dim_, 1);
  q_weights_ = MatrixD(in_dim_, out_dim_, 0.0);
  if (scale_ > 0.0) {
    for (std::size_t r = 0; r < in_dim_; ++r) {
      for (std::size_t c = 0; c < out_dim_; ++c) {
        const double w = weights(r, c);
        const auto mag = static_cast<std::uint64_t>(
            std::llround(std::abs(w) / scale_ * static_cast<double>(q_max)));
        q(r, c) = std::min(mag, q_max);
        sign(r, c) = w < 0.0 ? -1 : 1;
        q_weights_(r, c) = (w < 0.0 ? -1.0 : 1.0) * static_cast<double>(q(r, c)) /
                           static_cast<double>(q_max) * scale_;
      }
    }
  }

  // Program one tiled fleet per digit plane.  Slice s holds digit d_s of the
  // magnitude (base 2^slice_bits), carried as a signed weight d_s/(2^b - 1)
  // in [-1, 1] so the differential-pair convention applies unchanged; the
  // reconstruction multiplies the positional value back in:
  //   W = scale / q_max * sum_s (2^b - 1) * radix^s * W_s.
  slices_.reserve(n_slices);
  slice_coeff_.reserve(n_slices);
  double positional = 1.0;  // radix^s
  for (std::size_t s = 0; s < n_slices; ++s) {
    MatrixD plane(in_dim_, out_dim_, 0.0);
    for (std::size_t r = 0; r < in_dim_; ++r)
      for (std::size_t c = 0; c < out_dim_; ++c) {
        const std::uint64_t digit = (q(r, c) >> (s * config_.slice_bits)) & (radix - 1);
        plane(r, c) = static_cast<double>(sign(r, c)) * static_cast<double>(digit) / digit_max;
      }
    slices_.emplace_back(config_.tiled, in_dim_, out_dim_, rng);
    slices_.back().program_weights(plane);
    slice_coeff_.push_back(scale_ > 0.0 ? scale_ / static_cast<double>(q_max) * digit_max *
                                              positional
                                        : 0.0);
    positional *= static_cast<double>(radix);
  }
}

MappedLayer MappedLayer::from_dense(LayerMapConfig config, const nn::DenseLayer& layer,
                                    Rng& rng) {
  return MappedLayer(std::move(config), layer.weights(), rng);
}

std::size_t MappedLayer::tile_count() const noexcept {
  std::size_t n = 0;
  for (const TiledCrossbar& s : slices_) n += s.tile_count();
  return n;
}

std::vector<double> MappedLayer::forward(const std::vector<double>& input) const {
  XLDS_REQUIRE_MSG(input.size() == in_dim_, "input " << input.size() << " != " << in_dim_);
  return forward_batch(MatrixD::one_row(input)).row(0);
}

MatrixD MappedLayer::forward_batch(const MatrixD& inputs) const {
  XLDS_REQUIRE_MSG(inputs.cols() == in_dim_,
                   "batch inputs have " << inputs.cols() << " columns, need " << in_dim_);
  const std::size_t batch = inputs.rows();
  MatrixD out(batch, out_dim_, 0.0);
  // Slices run in fixed order; the tile-fleet parallelism lives inside each
  // slice's mvm_batch.  The shift-and-add reduction is fixed-order
  // arithmetic.
  for (std::size_t s = 0; s < slices_.size(); ++s) {
    const MatrixD y = slices_[s].mvm_batch(inputs);
    const double coeff = slice_coeff_[s];
    for (std::size_t b = 0; b < batch; ++b) {
      const double* yb = y.row_data(b);
      double* ob = out.row_data(b);
      for (std::size_t j = 0; j < out_dim_; ++j) ob[j] += coeff * yb[j];
    }
  }
  return out;
}

std::vector<double> MappedLayer::ideal(const std::vector<double>& input) const {
  XLDS_REQUIRE(input.size() == in_dim_);
  std::vector<double> out(out_dim_, 0.0);
  kernels::matvec_t(q_weights_.data().data(), in_dim_, out_dim_, input.data(), out.data());
  return out;
}

MvmCost MappedLayer::mvm_cost() const {
  XLDS_ASSERT(!slices_.empty());
  // Physically separate slice fleets fire in parallel; merging n slices adds
  // ceil(log2 n) shift-and-add stages and one accumulation per slice column.
  const MvmCost fleet = slices_.front().mvm_cost();
  const auto n_slices = static_cast<double>(slices_.size());
  const double merge_stages =
      slices_.size() > 1 ? std::ceil(std::log2(n_slices)) : 0.0;
  MvmCost cost;
  cost.latency = fleet.latency + config_.tiled.adder_latency * merge_stages;
  cost.energy = fleet.energy * n_slices +
                config_.tiled.adder_energy * n_slices * static_cast<double>(out_dim_);
  return cost;
}

std::size_t MappedLayer::device_count() const {
  std::size_t n = 0;
  for (const TiledCrossbar& s : slices_) n += s.device_count();
  return n;
}

}  // namespace xlds::xbar
