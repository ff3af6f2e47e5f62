// Hardware-mapped HDC inference: the associative-search stage of a trained
// HdcModel executed on the FeFET MCAM simulator (Sec. III).
//
// Class hypervectors are written into a subarray-partitioned CAM; queries
// are quantised to CAM digits and searched.  All the hardware effects the
// paper studies flow through here: programming variation (Fig. 3G-ii),
// subarray aggregation error (Fig. 3F), sensing quantisation, and the
// search latency/energy that feed the platform comparison (Fig. 3H).
#pragma once

#include <cstddef>
#include <vector>

#include <optional>

#include "cam/partitioned.hpp"
#include "hdc/model.hpp"
#include "util/rng.hpp"
#include "xbar/tiled.hpp"

namespace xlds::hdc {

struct CamInferenceConfig {
  cam::FeFetCamConfig subarray;  ///< per-subarray geometry; fefet.bits must
                                 ///< match the model's element_bits
  cam::Aggregation aggregation = cam::Aggregation::kVote;
  /// Encode on analog crossbar tiles instead of in software (the Fig. 2D
  /// path): the bipolar projection is programmed onto differential tiles;
  /// the mean-projection offset is subtracted digitally.  Requires the
  /// model's encoder to be the random-projection kind.
  bool analog_encode = false;
  xbar::TiledConfig encoder_tiles;  ///< tile geometry/non-idealities
};

class HdcCamInference {
 public:
  /// Builds the partitioned CAM and programs every class hypervector.
  HdcCamInference(const HdcModel& model, CamInferenceConfig config, Rng& rng);

  /// Classify an input end-to-end (encode, CAM search), by majority of
  /// `votes` searches (odd; 1 = single search) — the match-line re-query
  /// degradation policy.  Ties break toward the lowest class index.
  std::size_t classify(const std::vector<double>& x, std::size_t votes = 1) const;

  /// Fraction of `xs` classified as `ys`, by majority of `votes` searches:
  /// one batched encode, then one batched search (classify_digits_batch).
  double accuracy(const std::vector<std::vector<double>>& xs,
                  const std::vector<std::size_t>& ys, std::size_t votes = 1) const;

  /// Quantised query digits for a batch of inputs [batch x input_dim], the
  /// one encode path.  With the analog encoder the projections run through
  /// the tile fleet's batched MVM — parallel across tiles, and a batch reads
  /// exactly what its rows read one at a time, at any thread count.  The
  /// tiles draw read noise from their own streams, which no CAM search
  /// touches, so encoding a batch before searching it changes no byte.
  std::vector<std::vector<int>> query_digits_batch(const MatrixD& xs) const;

  /// One input's query digits: a one-row query_digits_batch.
  std::vector<int> query_digits(const std::vector<double>& x) const;

  /// Associative search over a batch of pre-encoded query digits, each
  /// classified by majority of `votes` searches (odd; ties break toward the
  /// lowest class index) — lets a serving loop split the batched encode from
  /// the search stage.  The whole batch goes through one
  /// cam::PartitionedCam::search_batch: segments side by side, each drawing
  /// sense noise in (query, vote, row) order, so the predictions equal
  /// query-by-query classification in batch order at any thread count.
  std::vector<std::size_t> classify_digits_batch(const std::vector<std::vector<int>>& qs,
                                                 std::size_t votes = 1) const;

  /// One query's classification: a one-row classify_digits_batch.
  std::size_t classify_digits(const std::vector<int>& q, std::size_t votes = 1) const;

  /// Re-program every class hypervector into the CAM from the trained model
  /// (the recalibration refresh: programming resets retention drift).
  /// Returns the number of CAM cells rewritten.
  std::size_t rewrite_class_words();

  /// Inject defects into the underlying partitioned CAM (see
  /// cam::PartitionedCam::inject_faults).
  fault::FaultInjectionStats inject_faults(const fault::FaultSpec& spec,
                                           const fault::GracefulPolicies& policies, Rng& rng);

  /// Apply `dt` seconds of device aging: FeFET retention loss in the CAM
  /// arrays, plus RRAM conductance relaxation in the analog encoder tiles
  /// when the analog path is enabled.
  void age(double dt);

  /// Circuit cost of one query's associative search.
  cam::SearchCost search_cost() const;

  /// Cost of one analog encode (zero-cost when encoding in software —
  /// callers then use the platform models for the digital encode).
  xbar::MvmCost encode_cost() const;

  std::size_t segments() const noexcept { return cam_.segments(); }
  bool analog_encode() const noexcept { return encoder_.has_value(); }

  /// The analog encoder tile fleet (only valid when analog_encode() is true)
  /// — recalibration controllers diff its conductances against a golden
  /// snapshot and re-program drifted cells via Crossbar::program_cells.
  xbar::TiledCrossbar& encoder_tiles() { return *encoder_; }
  const xbar::TiledCrossbar& encoder_tiles() const { return *encoder_; }

 private:
  const HdcModel& model_;
  CamInferenceConfig config_;
  cam::PartitionedCam cam_;
  std::optional<xbar::TiledCrossbar> encoder_;
  std::vector<double> encode_bias_;  ///< projection of the feature mean
};

}  // namespace xlds::hdc
