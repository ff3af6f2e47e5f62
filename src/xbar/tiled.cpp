#include "xbar/tiled.hpp"

#include <algorithm>
#include <cmath>

#include "kernels/mvm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::xbar {

TiledCrossbar::TiledCrossbar(TiledConfig config, std::size_t in_dim, std::size_t out_dim, Rng& rng)
    : config_(config), in_dim_(in_dim), out_dim_(out_dim) {
  XLDS_REQUIRE(in_dim >= 1 && out_dim >= 1);
  XLDS_REQUIRE_MSG(config_.tile.cols % 2 == 0, "differential tiles need an even column count");
  logical_cols_per_tile_ = config_.tile.cols / 2;
  row_tiles_ = (in_dim + config_.tile.rows - 1) / config_.tile.rows;
  col_tiles_ = (out_dim + logical_cols_per_tile_ - 1) / logical_cols_per_tile_;
  tiles_.reserve(row_tiles_ * col_tiles_);
  for (std::size_t t = 0; t < row_tiles_ * col_tiles_; ++t) tiles_.emplace_back(config_.tile, rng);
}

void TiledCrossbar::program_weights(const MatrixD& weights) {
  XLDS_REQUIRE_MSG(weights.rows() == in_dim_ && weights.cols() == out_dim_,
                   "weights " << weights.rows() << 'x' << weights.cols() << " != logical "
                              << in_dim_ << 'x' << out_dim_);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      MatrixD sub(config_.tile.rows, logical_cols_per_tile_, 0.0);
      for (std::size_t r = 0; r < config_.tile.rows; ++r) {
        const std::size_t gr = rt * config_.tile.rows + r;
        if (gr >= in_dim_) break;
        for (std::size_t c = 0; c < logical_cols_per_tile_; ++c) {
          const std::size_t gc = ct * logical_cols_per_tile_ + c;
          if (gc >= out_dim_) break;
          sub(r, c) = weights(gr, gc);
        }
      }
      tiles_[rt * col_tiles_ + ct].program_weights(sub);
    }
  }
}

std::vector<double> TiledCrossbar::mvm(const std::vector<double>& input) const {
  XLDS_REQUIRE_MSG(input.size() == in_dim_, "input " << input.size() << " != " << in_dim_);
  return mvm_batch(MatrixD::one_row(input)).row(0);
}

MatrixD TiledCrossbar::mvm_batch(const MatrixD& inputs) const {
  XLDS_REQUIRE_MSG(inputs.cols() == in_dim_,
                   "batch inputs have " << inputs.cols() << " columns, need " << in_dim_);
  const std::size_t batch = inputs.rows();
  MatrixD out(batch, out_dim_, 0.0);

  // Stage 1: input slices, one [batch x tile.rows] block per tile row.  Pure
  // data movement, computed once and shared read-only by every tile in the
  // row (the old per-row-tile rebuild allocated the same block col_tiles_
  // times over the sweep).
  std::vector<MatrixD> slices(row_tiles_);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    slices[rt] = MatrixD(batch, config_.tile.rows, 0.0);
    for (std::size_t b = 0; b < batch; ++b) {
      const double* in = inputs.row_data(b);
      double* s = slices[rt].row_data(b);
      for (std::size_t r = 0; r < config_.tile.rows; ++r) {
        const std::size_t gr = rt * config_.tile.rows + r;
        if (gr < in_dim_) s[r] = in[gr];
      }
    }
  }

  // Stage 2: every tile runs the whole batch against its own cached nodal
  // factorization, all tiles concurrently through the shared util::parallel
  // pool.  Each tile owns its RNG and conductance state and sees the batch
  // in index order, so every partial is bit-identical to running the tiles
  // one after another, at any thread count.  (A tile's inner batch
  // parallelism cooperates with the pool inside this nested region — the
  // worker running a tile submits the inner tasks to the shared deques and
  // helps drain them — so a fleet narrower than the pool still fills it.)
  std::vector<MatrixD> partials(tiles_.size());
  parallel_for(tiles_.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t t = begin; t < end; ++t)
      partials[t] = tiles_[t].mvm_batch(slices[t / col_tiles_]);
  });

  // Stage 3: digital partial-sum reduction in fixed tile order (the adder
  // tree), independent of which thread produced what when.
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const MatrixD& partial = partials[rt * col_tiles_ + ct];
      const std::size_t gc0 = ct * logical_cols_per_tile_;
      const std::size_t n = std::min(partial.cols(), out_dim_ - gc0);
      for (std::size_t b = 0; b < batch; ++b)
        kernels::accumulate(partial.row_data(b), out.row_data(b) + gc0, n);
    }
  }
  return out;
}

std::vector<double> TiledCrossbar::ideal_mvm(const std::vector<double>& input) const {
  XLDS_REQUIRE(input.size() == in_dim_);
  std::vector<double> out(out_dim_, 0.0);
  for (std::size_t rt = 0; rt < row_tiles_; ++rt) {
    std::vector<double> slice(config_.tile.rows, 0.0);
    for (std::size_t r = 0; r < config_.tile.rows; ++r) {
      const std::size_t gr = rt * config_.tile.rows + r;
      if (gr < in_dim_) slice[r] = input[gr];
    }
    for (std::size_t ct = 0; ct < col_tiles_; ++ct) {
      const std::vector<double> partial = tiles_[rt * col_tiles_ + ct].ideal_mvm(slice);
      const std::size_t gc0 = ct * logical_cols_per_tile_;
      kernels::accumulate(partial.data(), out.data() + gc0,
                          std::min(partial.size(), out_dim_ - gc0));
    }
  }
  return out;
}

MvmCost TiledCrossbar::mvm_cost() const {
  XLDS_ASSERT(!tiles_.empty());
  const MvmCost tile_cost = tiles_.front().mvm_cost();
  MvmCost cost;
  const double reduce_stages = std::ceil(std::log2(std::max<double>(2.0, static_cast<double>(row_tiles_))));
  cost.latency = tile_cost.latency + config_.adder_latency * reduce_stages;
  cost.energy = tile_cost.energy * static_cast<double>(tiles_.size()) +
                config_.adder_energy * static_cast<double>(tiles_.size()) *
                    static_cast<double>(logical_cols_per_tile_);
  return cost;
}

std::size_t TiledCrossbar::device_count() const {
  return tiles_.size() * config_.tile.rows * config_.tile.cols;
}

}  // namespace xlds::xbar
