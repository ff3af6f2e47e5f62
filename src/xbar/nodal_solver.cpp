#include "xbar/nodal_solver.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "core/counters.hpp"
#include "util/error.hpp"
#include "util/lanes.hpp"
#include "xbar/nodal_kernels.hpp"

namespace xlds::xbar {

namespace nodal {

const Kernels& portable_kernels() { return XLDS_LANES_NS::kernels; }

const Kernels* avx2_kernels() {
#if defined(XLDS_NODAL_AVX2)
  // __builtin_cpu_init: a static initializer may get here before libgcc's
  // own constructor has read the CPU features.
  static const bool supported = (__builtin_cpu_init(), __builtin_cpu_supports("avx2"));
  return supported ? &vec4::kernels : nullptr;
#else
  return nullptr;
#endif
}

const Kernels& active_kernels() {
  static const Kernels& chosen = avx2_kernels() != nullptr ? *avx2_kernels() : portable_kernels();
  return chosen;
}

}  // namespace nodal

NodalSolver::NodalSolver() : kernels_(&nodal::active_kernels()) {}

nodal::Network NodalSolver::network() const noexcept {
  return {rows_, cols_, row_major_, g_wire_, g_.data().data(), adiag_.data(), start_.data(),
          off_.data()};
}

bool NodalSolver::factorize(const MatrixD& g, double g_wire, std::size_t max_bytes) {
  // Every field is overwritten below and every vector is assign()ed, which
  // keeps its capacity: refactorizing a same-shape array allocates nothing.
  // Only a failure path calls the shrinking reset().
  ready_ = false;
  if (!(g_wire > 0.0) || !std::isfinite(g_wire) || g.empty()) {
    reset();
    return false;
  }
  rows_ = g.rows();
  cols_ = g.cols();
  n_ = 2 * rows_ * cols_;
  // Order cells along the shorter dimension: the only long-range coupling is
  // between wire neighbours across consecutive cells of the *other*
  // dimension, so this bounds the profile width at 2*min(rows, cols).
  row_major_ = cols_ <= rows_;
  g_wire_ = g_wire;
  g_ = g;

  // --- profile of the lower triangle ---------------------------------------
  // Row v(r,c): couples below-diagonal only to v(r,c-1); row u(r,c): to
  // v(r,c) (distance 1) and u(r-1,c).  The envelope factor keeps exactly
  // this row profile, so the v rows stay a few entries wide no matter the
  // bandwidth.
  start_.assign(n_, 0);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      start_[iv] = c > 0 ? node_v(r, c - 1) : iv;
      start_[iu] = r > 0 ? std::min(iu - 1, node_u(r - 1, c)) : iu - 1;
    }
  }
  off_.assign(n_ + 1, 0);
  bw_ = 0;
  for (std::size_t i = 0; i < n_; ++i) {
    off_[i + 1] = off_[i] + (i - start_[i] + 1);
    bw_ = std::max(bw_, i - start_[i]);
  }
  if (off_[n_] * sizeof(double) > max_bytes) {
    reset();
    return false;
  }
  // The shape the kernels assume (they check nothing themselves): past the
  // first grid line each cell's wide-parity row spans the full band, so a
  // panel's wide rows start two columns apart; every other row is narrow,
  // at most two entries left of the diagonal.
  const std::size_t line = row_major_ ? cols_ : rows_;  // cells per grid line
  const std::size_t wide = row_major_ ? 1 : 0;
  for (std::size_t i = 0; i < n_; ++i)
    XLDS_ASSERT((i >= 2 * line && (i & 1) == wide) ? i - start_[i] == bw_ : i - start_[i] <= 2);

  // --- assembly -------------------------------------------------------------
  vals_.assign(off_[n_], 0.0);
  adiag_.assign(n_, 0.0);
  const auto entry = [&](std::size_t i, std::size_t j) -> double& {
    XLDS_ASSERT(j >= start_[i] && j <= i);
    return vals_[off_[i] + (j - start_[i])];
  };
  const double gw = g_wire_;
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      const double gc = g_(r, c);
      // Row node: cell to u, one segment left (to the driver when c == 0),
      // one segment right when a right neighbour exists.
      const double dv = gc + gw + (c + 1 < cols_ ? gw : 0.0);
      // Column node: cell to v, one segment down (to the ADC virtual ground
      // at the bottom edge), one segment up when an upper neighbour exists.
      const double du = gc + gw + (r > 0 ? gw : 0.0);
      entry(iv, iv) = dv;
      entry(iu, iu) = du;
      adiag_[iv] = dv;
      adiag_[iu] = du;
      entry(iu, iv) = -gc;
      if (c > 0) entry(iv, node_v(r, c - 1)) = -gw;
      if (r > 0) entry(iu, node_u(r - 1, c)) = -gw;
    }
  }

  // --- profile LDL^T, in place, in panels of wide rows ----------------------
  panel_t_.assign((bw_ + 2 * kPanel) * kPanel, 0.0);
  panel_l_.assign(panel_t_.size(), 0.0);
  // SPD by construction (a connected resistor network with every node tied
  // to the driver or ground); a non-positive pivot means numeric breakdown
  // — decline.
  if (!kernels_->factorize(network(), vals_.data(), panel_t_.data(), panel_l_.data())) {
    reset();
    return false;
  }
  ready_ = true;
  core::Profiler::count_factorization();
  return true;
}

void NodalSolver::reset() noexcept {
  ready_ = false;
  rows_ = cols_ = n_ = 0;
  g_wire_ = 0.0;
  bw_ = 0;
  g_ = MatrixD{};
  adiag_.clear();
  adiag_.shrink_to_fit();
  start_.clear();
  start_.shrink_to_fit();
  off_.clear();
  off_.shrink_to_fit();
  vals_.clear();
  vals_.shrink_to_fit();
  panel_t_.clear();
  panel_t_.shrink_to_fit();
  panel_l_.clear();
  panel_l_.shrink_to_fit();
}

void NodalSolver::substitute(std::size_t width, const double* v_in, std::size_t v_stride,
                             double* i_col, std::size_t i_stride, Result* res,
                             Workspace& ws) const {
  XLDS_REQUIRE_MSG(ready_, "NodalSolver::solve before a successful factorize");
  for (std::size_t k = 0; k < width; ++k) core::Profiler::count_direct_solve();
  ws.y.assign(n_ * width, 0.0);
  kernels_->substitute[std::countr_zero(width)](network(), vals_.data(), v_in, v_stride, i_col,
                                                i_stride, res, ws.y.data());
}

NodalSolver::Result NodalSolver::solve(const double* v_in, double* i_col,
                                       Workspace& ws) const {
  Result res;
  solve_block<1>(v_in, 0, i_col, 0, &res, ws);
  return res;
}

}  // namespace xlds::xbar
