// Bit-sliced mapping of a DNN layer onto a tiled-crossbar fleet (Sec. V:
// the architecture rung where a real network layer, not a synthetic weight
// block, drives the analog datapath).
//
// A trained dense layer holds float weights; a crosspoint holds one analog
// conductance with a few reliably distinguishable levels.  The standard IMC
// answer (ISAAC/NeuroSim lineage) is weight slicing: quantise each weight to
// `weight_bits` signed magnitude levels, split the magnitude into base-2^
// `slice_bits` digits, and program each digit plane onto its own tiled
// crossbar.  One logical MVM then runs every slice fleet over the same
// input and reduces the per-slice column sums digitally with the positional
// weight (2^slice_bits)^s — the same shift-and-add the ADC already implies
// for multi-bit inputs, applied across arrays instead of across cycles.
//
// The mapper deliberately reuses the differential-pair convention of
// Crossbar::program_weights (a signed digit plane in [-1, 1] per slice)
// rather than inventing a new conductance code: every non-ideality the
// single-array model carries (programming variation, IR drop, ADC
// quantisation, read noise, faults, aging) applies to each slice unchanged.
#pragma once

#include <cstddef>
#include <vector>

#include "nn/layer.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "xbar/tiled.hpp"

namespace xlds::xbar {

struct LayerMapConfig {
  TiledConfig tiled;            ///< tile geometry/non-idealities per slice fleet
  std::size_t weight_bits = 4;  ///< signed-magnitude weight resolution
  std::size_t slice_bits = 2;   ///< bits per crossbar slice (<= weight_bits)
};

/// One DNN layer sharded onto ceil(weight_bits / slice_bits) tiled-crossbar
/// fleets, one per weight-magnitude digit plane.
class MappedLayer {
 public:
  /// Map an explicit [in_dim x out_dim] float weight matrix.
  MappedLayer(LayerMapConfig config, const MatrixD& weights, Rng& rng);

  /// Map a trained dense layer (its current weights; biases stay digital).
  static MappedLayer from_dense(LayerMapConfig config, const nn::DenseLayer& layer, Rng& rng);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t slice_count() const noexcept { return slices_.size(); }
  std::size_t tile_count() const noexcept;

  /// Largest |weight| of the mapped matrix — the scale the reconstruction
  /// multiplies back in (0 collapses to an all-zero layer).
  double scale() const noexcept { return scale_; }

  /// Analog forward, the one readout path: [batch x in_dim] (entries in
  /// [0, 1]) -> W^T x per row with the quantised weights, [batch x out_dim],
  /// through every slice fleet plus the digital shift-and-add
  /// reconstruction.  Slices run in fixed order and each slice's tile fleet
  /// parallelises internally through TiledCrossbar::mvm_batch, so a batch
  /// reads exactly what its rows read one at a time, at any thread count.
  MatrixD forward_batch(const MatrixD& inputs) const;

  /// One input's analog forward: a one-row forward_batch.
  std::vector<double> forward(const std::vector<double>& input) const;

  /// Software W^T x with the quantised (bit-sliced) weights — the digital
  /// reference the analog path is compared against.
  std::vector<double> ideal(const std::vector<double>& input) const;

  /// The weight matrix the slices actually encode (quantisation applied);
  /// ideal() is exactly this matrix's transpose product.
  const MatrixD& quantised_weights() const noexcept { return q_weights_; }

  /// One logical MVM through the mapped layer: slices fire concurrently
  /// (physically separate arrays), the slice reduction adds its own
  /// shift-and-add stages.
  MvmCost mvm_cost() const;

  /// RRAM devices consumed across every slice fleet.
  std::size_t device_count() const;

 private:
  LayerMapConfig config_;
  std::size_t in_dim_ = 0;
  std::size_t out_dim_ = 0;
  double scale_ = 0.0;
  std::vector<double> slice_coeff_;   ///< reconstruction weight per slice
  std::vector<TiledCrossbar> slices_; ///< one fleet per digit plane
  MatrixD q_weights_;                 ///< quantised logical weights
};

}  // namespace xlds::xbar
