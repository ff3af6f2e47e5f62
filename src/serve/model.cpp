#include "serve/model.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace xlds::serve {

namespace {

constexpr std::uint64_t kDatasetSalt = 0x9E3779B97F4A7C15ull;

hdc::HdcModel make_trained(const ServedModelConfig& config, const workload::Dataset& ds,
                           Rng& rng) {
  hdc::HdcModel m(config.model, ds.dim, ds.n_classes, rng);
  m.train(ds.train_x, ds.train_y);
  return m;
}

hdc::CamInferenceConfig make_infer_config(const ServedModelConfig& config) {
  hdc::CamInferenceConfig ic;
  ic.subarray = config.subarray;
  ic.analog_encode = config.analog_encode;
  ic.encoder_tiles = config.encoder_tiles;
  return ic;
}

}  // namespace

ServedHdcModel::ServedHdcModel(const ServedModelConfig& config, std::uint64_t seed)
    : config_(config),
      rng_(seed),
      ds_(workload::make_gaussian_clusters(config.data, seed ^ kDatasetSalt)),
      model_(make_trained(config_, ds_, rng_)),
      infer_(model_, make_infer_config(config_), rng_) {
  if (infer_.analog_encode()) {
    const xbar::TiledCrossbar& tiles = infer_.encoder_tiles();
    golden_.reserve(tiles.tile_count());
    for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
      const xbar::Crossbar& t = tiles.tile(i);
      MatrixD g(t.rows(), t.cols(), 0.0);
      for (std::size_t r = 0; r < t.rows(); ++r)
        for (std::size_t c = 0; c < t.cols(); ++c) g(r, c) = t.conductance(r, c);
      golden_.push_back(std::move(g));
    }
  }
  // Measured once: both consume the instance RNGs (the search drives the CAM
  // sense amps), and the serving run's draw sequence must not depend on when
  // a caller happens to ask for a cost.
  search_cost_ = infer_.search_cost();
  encode_cost_ = infer_.encode_cost();
}

std::vector<std::size_t> ServedHdcModel::classify_batch(const std::vector<std::size_t>& ids,
                                                        std::size_t votes) const {
  if (ids.empty()) return {};
  MatrixD xs(ids.size(), ds_.dim, 0.0);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    XLDS_REQUIRE_MSG(ids[i] < ds_.test_x.size(), "request id out of pool");
    std::copy(ds_.test_x[ids[i]].begin(), ds_.test_x[ids[i]].end(), xs.row_data(i));
  }
  return infer_.classify_digits_batch(infer_.query_digits_batch(xs), votes);
}

void ServedHdcModel::age(double dt) {
  if (dt <= 0.0) return;
  device_age_ += dt;
  infer_.age(dt);
}

std::size_t ServedHdcModel::refresh_cam() { return infer_.rewrite_class_words(); }

std::size_t ServedHdcModel::repair_encoder(double threshold_fraction) {
  if (!infer_.analog_encode()) return 0;
  xbar::TiledCrossbar& tiles = infer_.encoder_tiles();
  const device::RramParams& p = config_.encoder_tiles.tile.rram;
  const double threshold = threshold_fraction * (p.g_max - p.g_min);
  std::size_t repaired = 0;
  for (std::size_t i = 0; i < tiles.tile_count(); ++i) {
    xbar::Crossbar& t = tiles.tile(i);
    const MatrixD& g0 = golden_[i];
    std::vector<xbar::CellDelta> patch;
    for (std::size_t r = 0; r < t.rows(); ++r)
      for (std::size_t c = 0; c < t.cols(); ++c)
        if (std::abs(t.conductance(r, c) - g0(r, c)) > threshold)
          patch.push_back(xbar::CellDelta{r, c, g0(r, c)});
    t.program_cells(patch);
    repaired += patch.size();
  }
  return repaired;
}

double ServedHdcModel::pool_accuracy(std::size_t votes) const {
  std::vector<std::size_t> ids(pool_size());
  std::iota(ids.begin(), ids.end(), std::size_t{0});
  const std::vector<std::size_t> preds = classify_batch(ids, votes);
  std::size_t correct = 0;
  for (std::size_t i = 0; i < ids.size(); ++i)
    if (preds[i] == ds_.test_y[i]) ++correct;
  return static_cast<double>(correct) / static_cast<double>(ids.size());
}

}  // namespace xlds::serve
