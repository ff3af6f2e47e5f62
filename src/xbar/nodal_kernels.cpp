// The nodal solver's kernels: the panel LDL^T and the blocked substitution.
//
// This file is compiled twice (nodal_kernels.hpp, src/xbar/CMakeLists.txt),
// so it must not define anything the two objects could share.  Every
// function is in an anonymous namespace, the one exported table is in the
// per-build namespace util/lanes.hpp names, and the code calls no inline
// library or project function (std::max, std::abs, std::isfinite, container
// or Matrix members, XLDS_ASSERT's string building): an unoptimised build
// emits those out of line as weak symbols, and the linker may keep the AVX2
// object's copy for a portable caller.  Plain loops and compiler builtins
// stand in.  NodalSolver checks the profile shape these kernels assume
// before it calls them.
#include "xbar/nodal_kernels.hpp"

#include "util/lanes.hpp"

namespace xlds::xbar::nodal::XLDS_LANES_NS {
namespace {

std::size_t node_v(const Network& net, std::size_t r, std::size_t c) {
  return 2 * (net.row_major ? r * net.cols + c : c * net.rows + r);
}
std::size_t node_u(const Network& net, std::size_t r, std::size_t c) {
  return node_v(net, r, c) + 1;
}

bool pivot_ok(double d) { return d > 0.0 && __builtin_isfinite(d); }

/// One narrow row (at most two entries left of the diagonal) of a panel.
bool factor_narrow_row(const Network& net, double* vals, std::size_t i) {
  const std::size_t* start = net.start;
  const std::size_t* off = net.off;
  const std::size_t si = start[i];
  double* ri = vals + off[i];
  double t[2];
  for (std::size_t j = si; j < i; ++j) {
    const std::size_t sj = start[j], k0 = si > sj ? si : sj;
    double s = ri[j - si];
    for (std::size_t k = k0; k < j; ++k) s -= t[k - si] * vals[off[j] + (k - sj)];
    t[j - si] = s;
    ri[j - si] = s / vals[off[j + 1] - 1];
  }
  double d = ri[i - si];
  for (std::size_t k = 0; k < i - si; ++k) d -= t[k] * ri[k];
  if (!pivot_ok(d)) return false;
  ri[i - si] = d;
  return true;
}

// One panel of the left-looking profile LDL^T: the rows of cells
// [cell0, cell0 + W).  Lane q carries the row i0 + 2q of cell cell0 + q that
// has the wire-neighbour coupling to the previous grid line — the wide rows
// (column-wire rows in row-major order, row-wire rows otherwise), each
// spanning the full band from start[i] = i - bw.  The sweep walks the
// columns j of the panel's union profile once, left to right.  At column j
// every lane's entry L(i_q, j) runs its own subtract chain side by side in
// Lanes<W> over the node-major scratch t (t holds D(k) * L(i_q, k), the value
// of the numerator at column k), so each factor entry L(j, k) is loaded once
// per panel, not once per row; the lanes' diagonals fold in the same column
// step from t and the L values in l.  Inside the panel a column's row must be
// final before its column runs: a lane row takes its diagonal from d and
// copies its L values back into vals, a narrow row (at most two entries)
// runs one row at a time in factor_narrow_row.
//
// Byte-identity with the one-row-at-a-time sweep.  Each entry keeps that
// sweep's exact sequence: start at A(i, j), subtract t_k * L(j, k) for
// ascending k from max(start[i], start[j]), divide by D(j); the diagonal
// subtracts t_k * L(i, k) for ascending k from A(i, i).  Lanes never mix.
// The one difference is padding: the wide rows start two columns apart, so
// the column loop runs from the panel's first start s0 and lane q meets
// terms k < start[i_q] that its own row does not have.  There t_k = +0
// (zero-filled, and a column left of a lane's profile stays +0: +0 minus
// +-0 is +0), so a padded term subtracts +-0.  That is exact, because every
// padded term comes before the lane's first real term, while the running sum
// still equals A(i_q, j): -g_wire at the lane's first column, else +0.0 — a
// wide row's only other entry is an open cell's -g_c = -0.0 between v and u
// of one cell, which lies inside the panel and has no padded terms (its
// column's own profile starts at or right of start[i_q]).  The product
// +0 * L(j, k) is +-0 only for finite L(j, k): row j is final before its
// column runs, and a non-finite entry of row j fails row j's own pivot
// (its terms t_k * L(j, k) = D(k) * L(j, k)^2 are non-negative), so the
// factorization declines before the padding could see it.  Lanes whose row
// already ended (i_q <= j) compute values nobody reads.  The first grid line
// runs at W == 1, where there is no padding at all: its wide-parity rows are
// narrow, and an open cell's -0.0 there would meet padded terms.
template <std::size_t W>
bool factor_panel(const Network& net, double* vals, std::size_t cell0, double* t, double* l) {
  using L = util::Lanes<W>;
  const std::size_t* start = net.start;
  const std::size_t* off = net.off;
  const std::size_t p0 = 2 * cell0, p1 = p0 + 2 * W;
  const std::size_t i0 = p0 + (net.row_major ? 1 : 0);  // lane q factorizes row i0 + 2q
  const std::size_t ilast = i0 + 2 * (W - 1);
  const std::size_t s0 = start[i0];
  // Scratch column j of lane q lives at (j - s0) * W + q; it starts as A.
  for (std::size_t k = 0; k < (ilast - s0) * W; ++k) t[k] = 0.0;
  for (std::size_t q = 0; q < W; ++q) {
    const std::size_t i = i0 + 2 * q;
    for (std::size_t j = start[i]; j < i; ++j) t[(j - s0) * W + q] = vals[off[i] + (j - start[i])];
  }
  L d = L::load(net.adiag + i0, 2);
  for (std::size_t j = s0; j < p1; ++j) {
    if (j >= p0 && (j & 1) == (i0 & 1)) {
      const std::size_t q = (j - i0) / 2;
      double dq[W];
      d.store(dq);
      if (!pivot_ok(dq[q])) return false;
      double* rj = vals + off[j];
      for (std::size_t k = start[j]; k < j; ++k) rj[k - start[j]] = l[(k - s0) * W + q];
      rj[j - start[j]] = dq[q];
    } else if (j >= p0 && !factor_narrow_row(net, vals, j)) {
      return false;
    }
    if (j >= ilast) continue;
    const std::size_t sj = start[j], k0 = s0 > sj ? s0 : sj;
    const double* lj = vals + off[j] + (k0 - sj);
    const double* tk = t + (k0 - s0) * W;
    L s = L::load(t + (j - s0) * W);
    for (std::size_t k = 0; k < j - k0; ++k) s.sub_mul(lj[k], L::load(tk + k * W));
    s.store(t + (j - s0) * W);
    L lv = s;
    lv.div(vals[off[j + 1] - 1]);
    lv.store(l + (j - s0) * W);
    d.sub_mul(s, lv);
  }
  return true;
}

// The first grid line's rows are all narrow, so its cells go one at a time;
// every later cell's wide row spans the full band (see factor_panel).
bool factorize(const Network& net, double* vals, double* t, double* l) {
  const std::size_t line = net.row_major ? net.cols : net.rows;  // cells per grid line
  bool ok = true;
  for (std::size_t c = 0; c < line && ok; ++c) ok = factor_panel<1>(net, vals, c, t, l);
  util::for_each_block<NodalSolver::kPanel>(
      line, net.rows * net.cols, [&]<std::size_t W>(std::size_t c) {
        if (ok) ok = factor_panel<W>(net, vals, c, t, l);
      });
  return ok;
}

// The W queries in flight sit side by side in registers; lane k computes
// exactly what a one-query solve computes (util/lanes.hpp).
template <std::size_t W>
void substitute(const Network& net, const double* vals, const double* v_in, std::size_t v_stride,
                double* i_col, std::size_t i_stride, NodalSolver::Result* res, double* y) {
  using L = util::Lanes<W>;
  const std::size_t* start = net.start;
  const std::size_t* off = net.off;
  const std::size_t rows = net.rows, cols = net.cols, n = 2 * rows * cols;
  const double gw = net.g_wire;

  // Node-major scratch: node i's value for query k lives at y[i * W + k].
  // RHS: the driver ties inject gw * v_in[r] at each row's first node.
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t k = 0; k < W; ++k) y[node_v(net, r, 0) * W + k] = gw * v_in[k * v_stride + r];

  // Forward substitution L y = b (unit lower triangle, in place).
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t si = start[i];
    const double* ri = vals + off[i];
    const double* ys = y + si * W;
    L s = L::load(y + i * W);
    const std::size_t len = i - si;
    for (std::size_t t = 0; t < len; ++t) s.sub_mul(ri[t], L::load(ys + t * W));
    s.store(y + i * W);
  }

  // Diagonal scaling, then back substitution L^T x = y (row-saxpy form:
  // contiguous profile rows, unit diagonal), both in place: y becomes x.
  double* x = y;
  for (std::size_t i = 0; i < n; ++i) {
    L xi = L::load(x + i * W);
    xi.div(vals[off[i + 1] - 1]);
    xi.store(x + i * W);
  }
  for (std::size_t i = n; i-- > 0;) {
    const std::size_t si = start[i];
    const double* ri = vals + off[i];
    const L xi = L::load(x + i * W);
    double* xs = x + si * W;
    const std::size_t len = i - si;
    for (std::size_t t = 0; t < len; ++t) {
      L xt = L::load(xs + t * W);
      xt.sub_mul(ri[t], xi);
      xt.store(xs + t * W);
    }
  }

  // Residual as the largest Jacobi node update a sweep would still make, and
  // the column currents as the sum of cell currents (better conditioned than
  // the bottom segment's tiny voltage times a huge wire conductance).  A
  // residual keeps the larger of itself and the new term, as std::max does.
  for (std::size_t k = 0; k < W; ++k) {
    res[k].residual = 0.0;
    for (std::size_t c = 0; c < cols; ++c) i_col[k * i_stride + c] = 0.0;
  }
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t iv = node_v(net, r, c), iu = node_u(net, r, c);
      const double gc = net.g[r * cols + c];
      for (std::size_t k = 0; k < W; ++k) {
        const double xv = x[iv * W + k], xu = x[iu * W + k];
        double ax_v = net.adiag[iv] * xv - gc * xu;
        if (c > 0) ax_v -= gw * x[node_v(net, r, c - 1) * W + k];
        if (c + 1 < cols) ax_v -= gw * x[node_v(net, r, c + 1) * W + k];
        const double b_v = c == 0 ? gw * v_in[k * v_stride + r] : 0.0;
        double ax_u = net.adiag[iu] * xu - gc * xv;
        if (r > 0) ax_u -= gw * x[node_u(net, r - 1, c) * W + k];
        if (r + 1 < rows) ax_u -= gw * x[node_u(net, r + 1, c) * W + k];
        double& rk = res[k].residual;
        const double ev = __builtin_fabs(b_v - ax_v) / net.adiag[iv];
        if (rk < ev) rk = ev;
        const double eu = __builtin_fabs(0.0 - ax_u) / net.adiag[iu];
        if (rk < eu) rk = eu;
        i_col[k * i_stride + c] += gc * (xv - xu);
      }
    }
  }
}

}  // namespace

static_assert(NodalSolver::kBlock == 16, "one substitution per power of two up to kBlock");

const Kernels kernels = {
#if defined(__AVX2__)
    "avx2",
#else
    "portable",
#endif
    &factorize,
    {&substitute<1>, &substitute<2>, &substitute<4>, &substitute<8>, &substitute<16>},
};

}  // namespace xlds::xbar::nodal::XLDS_LANES_NS
