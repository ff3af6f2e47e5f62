// Tiled crossbar: maps a logical weight matrix larger than one physical
// array onto a grid of crossbar tiles.  Partial sums along the input
// dimension are accumulated digitally after the per-tile ADCs (the standard
// IMC macro organisation NeuroSim-class tools assume).
#pragma once

#include <cstddef>
#include <vector>

#include "xbar/crossbar.hpp"

namespace xlds::xbar {

struct TiledConfig {
  CrossbarConfig tile;          ///< geometry/non-idealities of each tile
  double adder_energy = 5e-15;  ///< J per digital partial-sum accumulation
  double adder_latency = 0.1e-9;  ///< s per accumulation stage
};

class TiledCrossbar {
 public:
  /// Build for a logical matrix of shape [in_dim x out_dim] (signed weights).
  TiledCrossbar(TiledConfig config, std::size_t in_dim, std::size_t out_dim, Rng& rng);

  std::size_t in_dim() const noexcept { return in_dim_; }
  std::size_t out_dim() const noexcept { return out_dim_; }
  std::size_t tile_count() const noexcept { return tiles_.size(); }

  /// Direct access to one physical tile (row-major over the tile grid) —
  /// recalibration controllers diff and re-program per-tile conductances.
  Crossbar& tile(std::size_t i) { return tiles_[i]; }
  const Crossbar& tile(std::size_t i) const { return tiles_[i]; }

  /// Apply `dt` seconds of conductance relaxation to every tile, in tile
  /// order (each tile consumes its own RNG stream — deterministic and
  /// independent of thread count).
  void age(double dt) {
    for (Crossbar& t : tiles_) t.age(dt);
  }

  /// Program the full logical weight matrix (in_dim x out_dim, in [-1, 1]).
  void program_weights(const MatrixD& weights);

  /// Analog MVM, the one readout path: inputs [batch x in_dim] (entries in
  /// [0, 1]) -> W^T x per row, [batch x out_dim].  Each tile consumes its RNG
  /// in batch order, so a batch reads exactly what its rows read one at a
  /// time, and in kNodal mode every tile amortises one cached factorization
  /// across the whole batch.  The tile fleet runs concurrently through the
  /// shared util::parallel pool — each tile's state is private and the
  /// partial-sum reduction is fixed-order, so results are invariant to the
  /// thread count.
  MatrixD mvm_batch(const MatrixD& inputs) const;

  /// One input's analog MVM: a one-row mvm_batch.
  std::vector<double> mvm(const std::vector<double>& input) const;

  /// Ideal (software) result for comparison.
  std::vector<double> ideal_mvm(const std::vector<double>& input) const;

  /// Cost of one logical MVM: tiles fire in parallel, partial sums are
  /// reduced in a log-depth adder tree.
  MvmCost mvm_cost() const;

  /// Number of RRAM devices used (2 per logical weight).
  std::size_t device_count() const;

 private:
  TiledConfig config_;
  std::size_t in_dim_;
  std::size_t out_dim_;
  std::size_t row_tiles_;
  std::size_t col_tiles_;
  std::size_t logical_cols_per_tile_;
  std::vector<Crossbar> tiles_;  ///< row-major [row_tiles_ x col_tiles_]
};

}  // namespace xlds::xbar
