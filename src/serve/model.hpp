// The served model: a trained HDC classifier mapped onto FeFET CAM
// subarrays (associative search) and, by default, RRAM crossbar tiles (the
// analog random-projection encode) — with the handles a serving loop needs
// to keep it alive under its own device physics:
//
//   * age(dt)            — FeFET retention drift in the CAM words plus RRAM
//                          conductance relaxation in the encoder tiles.
//   * refresh_cam()      — rewrite every class hypervector (programming
//                          resets retention drift).
//   * repair_encoder()   — diff each tile's conductances against the golden
//                          programming captured at construction and
//                          re-program only the drifted cells, with one
//                          Crossbar::program_cells call per tile (the next
//                          readout refactorizes a tile the repair changed).
//   * classify_batch()   — batched analog encode through the tile fleet
//                          (bit-identical at any thread count), then
//                          per-request CAM searches in request order (the
//                          sense-noise RNG must advance sequentially).
//
// Search and encode costs are measured once at construction — search_cost()
// consumes the CAM sense RNG, so sampling it lazily would perturb the
// deterministic draw sequence of the serving run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cam/fefet_cam.hpp"
#include "hdc/cam_inference.hpp"
#include "hdc/model.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "workload/dataset.hpp"
#include "xbar/tiled.hpp"

namespace xlds::serve {

struct ServedModelConfig {
  workload::GaussianClustersSpec data;  ///< synthetic request distribution
  hdc::HdcConfig model;                 ///< classifier hyper-parameters
  cam::FeFetCamConfig subarray;         ///< per-segment CAM geometry
  bool analog_encode = true;            ///< encode on RRAM crossbar tiles
  xbar::TiledConfig encoder_tiles;      ///< tile geometry/non-idealities

  ServedModelConfig() {
    // Resilience-evaluator scale: small enough that a sustained-load run
    // takes milliseconds, separable enough that drift-induced degradation
    // is the dominant error source.
    data.n_classes = 8;
    data.dim = 32;
    data.train_per_class = 30;
    data.test_per_class = 16;
    // Separable enough that the *healthy* model sits comfortably above any
    // reasonable accuracy floor; drift, not Bayes error, drives violations.
    data.separation = 8.0;
    model.hv_dim = 256;
    model.element_bits = 3;
    model.retrain_epochs = 2;
    subarray.cols = 64;
    // Nodal IR drop with the cached direct solver: each tile factorizes once
    // per programming state, so aging and repairs pay a refactorization.
    encoder_tiles.tile.ir_drop = xbar::IrDropMode::kNodal;
  }
};

class ServedHdcModel {
 public:
  ServedHdcModel(const ServedModelConfig& config, std::uint64_t seed);

  /// Number of distinct requests in the pool (the dataset's test split).
  std::size_t pool_size() const noexcept { return ds_.test_x.size(); }
  std::size_t label(std::size_t id) const { return ds_.test_y[id]; }

  /// Classify a batch of pool ids with `votes` CAM searches per request.
  /// Encode is batched (and internally parallel); searches run in request
  /// order.  Results are bit-identical at any thread count.
  std::vector<std::size_t> classify_batch(const std::vector<std::size_t>& ids,
                                          std::size_t votes) const;

  /// Apply `dt` device-seconds of aging to CAM words and encoder tiles.
  void age(double dt);
  double device_age() const noexcept { return device_age_; }

  /// Rewrite every class hypervector into the CAM; returns cells written.
  std::size_t refresh_cam();

  /// Re-program encoder-tile cells whose conductance drifted more than
  /// `threshold_fraction` of the device range away from the golden
  /// programming, one program_cells call per tile.  Returns cells
  /// re-programmed (0 without the analog encoder).
  std::size_t repair_encoder(double threshold_fraction);

  /// Offline accuracy over the whole pool (diagnostics/tests; consumes the
  /// CAM sense RNG like any other query stream).
  double pool_accuracy(std::size_t votes = 1) const;

  cam::SearchCost search_cost() const noexcept { return search_cost_; }
  xbar::MvmCost encode_cost() const noexcept { return encode_cost_; }
  bool analog_encode() const noexcept { return infer_.analog_encode(); }
  std::size_t cam_word_count() const noexcept { return model_.n_classes(); }
  const hdc::HdcCamInference& inference() const noexcept { return infer_; }

 private:
  ServedModelConfig config_;
  Rng rng_;
  workload::Dataset ds_;
  hdc::HdcModel model_;
  hdc::HdcCamInference infer_;
  std::vector<MatrixD> golden_;  ///< per-tile conductances at construction
  double device_age_ = 0.0;
  cam::SearchCost search_cost_;
  xbar::MvmCost encode_cost_;
};

}  // namespace xlds::serve
