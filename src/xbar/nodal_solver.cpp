#include "xbar/nodal_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/counters.hpp"
#include "util/error.hpp"
#include "util/lanes.hpp"

namespace xlds::xbar {

// One panel of the left-looking profile LDL^T: the rows of cells
// [cell0, cell0 + W).  Lane q carries the row i0 + 2q of cell cell0 + q that
// has the wire-neighbour coupling to the previous grid line — the wide rows
// (column-wire rows in row-major order, row-wire rows otherwise), each
// spanning the full band from start_[i] = i - bw.  The sweep walks the
// columns j of the panel's union profile once, left to right.  At column j
// every lane's entry L(i_q, j) runs its own subtract chain side by side in
// Lanes<W> over the node-major scratch t (t holds D(k) * L(i_q, k), the value
// of the numerator at column k), so each factor entry L(j, k) is loaded once
// per panel, not once per row; the lanes' diagonals fold in the same column
// step from t and the L values in l.  Inside the panel a column's row must be
// final before its column runs: a lane row takes its diagonal from d and
// copies its L values back into vals_, a narrow row (at most two entries)
// runs one row at a time in factor_narrow_row.
//
// Byte-identity with the one-row-at-a-time sweep.  Each entry keeps that
// sweep's exact sequence: start at A(i, j), subtract t_k * L(j, k) for
// ascending k from max(start_[i], start_[j]), divide by D(j); the diagonal
// subtracts t_k * L(i, k) for ascending k from A(i, i).  Lanes never mix.
// The one difference is padding: the wide rows start two columns apart, so
// the column loop runs from the panel's first start s0 and lane q meets
// terms k < start_[i_q] that its own row does not have.  There t_k = +0
// (zero-filled, and a column left of a lane's profile stays +0: +0 minus
// +-0 is +0), so a padded term subtracts +-0.  That is exact, because every
// padded term comes before the lane's first real term, while the running sum
// still equals A(i_q, j): -g_wire at the lane's first column, else +0.0 — a
// wide row's only other entry is an open cell's -g_c = -0.0 between v and u
// of one cell, which lies inside the panel and has no padded terms (its
// column's own profile starts at or right of start_[i_q]).  The product
// +0 * L(j, k) is +-0 only for finite L(j, k): row j is final before its
// column runs, and a non-finite entry of row j fails row j's own pivot
// (its terms t_k * L(j, k) = D(k) * L(j, k)^2 are non-negative), so the
// factorization declines before the padding could see it.  Lanes whose row
// already ended (i_q <= j) compute values nobody reads.  The first grid line
// runs at W == 1, where there is no padding at all: its wide-parity rows are
// narrow, and an open cell's -0.0 there would meet padded terms.
template <std::size_t W>
bool NodalSolver::factor_panel(std::size_t cell0, double* t, double* l) {
  using L = util::Lanes<W>;
  const std::size_t p0 = 2 * cell0, p1 = p0 + 2 * W;
  const std::size_t i0 = p0 + (row_major_ ? 1 : 0);  // lane q factorizes row i0 + 2q
  const std::size_t ilast = i0 + 2 * (W - 1);
  const std::size_t s0 = start_[i0];
  XLDS_ASSERT(start_[ilast] - s0 == ilast - i0);  // lane starts 2 columns apart
  // Scratch column j of lane q lives at (j - s0) * W + q; it starts as A.
  std::fill(t, t + (ilast - s0) * W, 0.0);
  for (std::size_t q = 0; q < W; ++q) {
    const std::size_t i = i0 + 2 * q;
    for (std::size_t j = start_[i]; j < i; ++j)
      t[(j - s0) * W + q] = vals_[off_[i] + (j - start_[i])];
  }
  L d = L::load(adiag_.data() + i0, 2);
  for (std::size_t j = s0; j < p1; ++j) {
    if (j >= p0 && (j & 1) == (i0 & 1)) {
      const std::size_t q = (j - i0) / 2;
      double dq[W];
      d.store(dq);
      if (!(dq[q] > 0.0) || !std::isfinite(dq[q])) return false;
      double* rj = vals_.data() + off_[j];
      for (std::size_t k = start_[j]; k < j; ++k) rj[k - start_[j]] = l[(k - s0) * W + q];
      rj[j - start_[j]] = dq[q];
    } else if (j >= p0 && !factor_narrow_row(j)) {
      return false;
    }
    if (j >= ilast) continue;
    const std::size_t sj = start_[j], k0 = std::max(s0, sj);
    const double* lj = vals_.data() + off_[j] + (k0 - sj);
    const double* tk = t + (k0 - s0) * W;
    L s = L::load(t + (j - s0) * W);
    for (std::size_t k = 0; k < j - k0; ++k) s.sub_mul(lj[k], L::load(tk + k * W));
    s.store(t + (j - s0) * W);
    L lv = s;
    lv.div(vals_[off_[j + 1] - 1]);
    lv.store(l + (j - s0) * W);
    d.sub_mul(s, lv);
  }
  return true;
}

bool NodalSolver::factor_narrow_row(std::size_t i) {
  const std::size_t si = start_[i];
  XLDS_ASSERT(i - si <= 2);
  double* ri = vals_.data() + off_[i];
  double t[2];
  for (std::size_t j = si; j < i; ++j) {
    const std::size_t sj = start_[j], k0 = std::max(si, sj);
    double s = ri[j - si];
    for (std::size_t k = k0; k < j; ++k) s -= t[k - si] * vals_[off_[j] + (k - sj)];
    t[j - si] = s;
    ri[j - si] = s / vals_[off_[j + 1] - 1];
  }
  double d = ri[i - si];
  for (std::size_t k = 0; k < i - si; ++k) d -= t[k] * ri[k];
  if (!(d > 0.0) || !std::isfinite(d)) return false;
  ri[i - si] = d;
  return true;
}

bool NodalSolver::factorize(const MatrixD& g, double g_wire, std::size_t max_bytes) {
  reset();
  if (!(g_wire > 0.0) || !std::isfinite(g_wire) || g.empty()) return false;
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
  // The first grid line's rows are all narrow, so its cells go one at a time;
  // every later cell's wide row spans the full band (see factor_panel).
  const std::size_t line = row_major_ ? cols_ : rows_;  // cells per grid line
  std::vector<double> t((bw_ + 2 * kPanel) * kPanel), l(t.size());
  bool ok = true;
  for (std::size_t c = 0; c < line && ok; ++c) ok = factor_panel<1>(c, t.data(), l.data());
  util::for_each_block<kPanel>(line, rows_ * cols_, [&]<std::size_t W>(std::size_t c) {
    if (ok) ok = factor_panel<W>(c, t.data(), l.data());
  });
  // SPD by construction (a connected resistor network with every node tied
  // to the driver or ground); a non-positive pivot means numeric breakdown
  // — decline and let the caller use Gauss-Seidel.
  if (!ok) {
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
}

template <std::size_t W>
void NodalSolver::substitute(const double* v_in, std::size_t v_stride, double* i_col,
                             std::size_t i_stride, Result* res, Workspace& ws) const {
  XLDS_REQUIRE_MSG(ready_, "NodalSolver::solve before a successful factorize");
  // The W queries in flight sit side by side in registers; lane k computes
  // exactly what a one-query solve computes (util/lanes.hpp).
  using L = util::Lanes<W>;
  const double gw = g_wire_;
  for (std::size_t k = 0; k < W; ++k) core::Profiler::count_direct_solve();

  // Node-major scratch: node i's value for query k lives at y[i * W + k].
  // RHS: the driver ties inject gw * v_in[r] at each row's first node.
  ws.y.assign(n_ * W, 0.0);
  double* y = ws.y.data();
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t k = 0; k < W; ++k)
      y[node_v(r, 0) * W + k] = gw * v_in[k * v_stride + r];

  // Forward substitution L y = b (unit lower triangle, in place).
  for (std::size_t i = 0; i < n_; ++i) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    const double* ys = y + si * W;
    L s = L::load(y + i * W);
    const std::size_t len = i - si;
    for (std::size_t t = 0; t < len; ++t) s.sub_mul(ri[t], L::load(ys + t * W));
    s.store(y + i * W);
  }

  // Diagonal scaling, then back substitution L^T x = y (row-saxpy form:
  // contiguous profile rows, unit diagonal), both in place: y becomes x.
  double* x = y;
  for (std::size_t i = 0; i < n_; ++i) {
    L xi = L::load(x + i * W);
    xi.div(vals_[off_[i + 1] - 1]);
    xi.store(x + i * W);
  }
  for (std::size_t i = n_; i-- > 0;) {
    const std::size_t si = start_[i];
    const double* ri = vals_.data() + off_[i];
    const L xi = L::load(x + i * W);
    double* xs = x + si * W;
    const std::size_t len = i - si;
    for (std::size_t t = 0; t < len; ++t) {
      L xt = L::load(xs + t * W);
      xt.sub_mul(ri[t], xi);
      xt.store(xs + t * W);
    }
  }

  // Residual in Gauss-Seidel units (largest Jacobi node update the iterative
  // solver would still make), and the column currents as the sum of cell
  // currents — same well-conditioned readout the iterative path uses.
  for (std::size_t k = 0; k < W; ++k) {
    res[k] = Result{};
    std::fill(i_col + k * i_stride, i_col + k * i_stride + cols_, 0.0);
  }
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t c = 0; c < cols_; ++c) {
      const std::size_t iv = node_v(r, c), iu = node_u(r, c);
      const double gc = g_(r, c);
      for (std::size_t k = 0; k < W; ++k) {
        const double xv = x[iv * W + k], xu = x[iu * W + k];
        double ax_v = adiag_[iv] * xv - gc * xu;
        if (c > 0) ax_v -= gw * x[node_v(r, c - 1) * W + k];
        if (c + 1 < cols_) ax_v -= gw * x[node_v(r, c + 1) * W + k];
        const double b_v = c == 0 ? gw * v_in[k * v_stride + r] : 0.0;
        double ax_u = adiag_[iu] * xu - gc * xv;
        if (r > 0) ax_u -= gw * x[node_u(r - 1, c) * W + k];
        if (r + 1 < rows_) ax_u -= gw * x[node_u(r + 1, c) * W + k];
        double& rk = res[k].residual;
        rk = std::max(rk, std::abs(b_v - ax_v) / adiag_[iv]);
        rk = std::max(rk, std::abs(0.0 - ax_u) / adiag_[iu]);
        i_col[k * i_stride + c] += gc * (xv - xu);
      }
    }
  }
}

NodalSolver::Result NodalSolver::solve(const double* v_in, double* i_col,
                                       Workspace& ws) const {
  Result res;
  substitute<1>(v_in, 0, i_col, 0, &res, ws);
  return res;
}

void NodalSolver::solve_block(const double* v_in, std::size_t v_stride, double* i_col,
                              std::size_t i_stride, Result* res, Workspace& ws) const {
  substitute<kBlock>(v_in, v_stride, i_col, i_stride, res, ws);
}

}  // namespace xlds::xbar
