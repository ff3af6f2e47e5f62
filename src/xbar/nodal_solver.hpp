// Cached sparse direct solver for the crossbar nodal IR-drop system.
//
// The two-wire-layer resistive network of an R x C crossbar has 2*R*C
// unknowns: a row-wire node voltage v(r,c) and a column-wire node voltage
// u(r,c) per crosspoint.  Each cell conductance g(r,c) ties v to u, each
// wire segment (conductance g_wire) ties a node to its neighbour along the
// wire, the c == 0 row node ties to the ideal driver, and the bottom column
// node ties to the ADC virtual ground.  The resulting conductance matrix is
// symmetric positive definite, and — crucially — depends only on the
// programmed conductances and the wire resistance, never on the query
// voltages.  So a repeated-readout workload (LSH hashing, MANN episodes,
// MVM sweeps, the DSE nodal rung) can assemble and factorize the matrix
// once per programming state and answer every subsequent input vector with
// a forward/back substitution: orders of magnitude cheaper than re-running
// Gauss-Seidel from a cold start per query (the XbarSim decomposition
// observation).
//
// Ordering and storage.  Nodes are interleaved (v, u) per cell and laid out
// along the shorter array dimension, which bounds the matrix half-bandwidth
// at 2*min(R, C).  The factorization is an envelope (skyline) LDL^T: the
// unit lower factor retains exactly the row profile of A (the textbook
// no-fill property of profile methods), so the row-wire rows — whose lower
// profile is only two entries wide — stay two entries wide, halving both
// memory and flops against a plain banded factorization.  The diagonal slot
// of each packed row stores D(i).  Assembly, factorization and each
// triangular solve run in a fixed order on one thread: results are
// bit-identical regardless of thread count, and concurrent solves against
// one factorization are read-only and race-free (each solve uses
// caller-provided scratch).
//
// Panel factorization.  Every cell past the first grid line has one wide row
// whose profile spans the full band, and each entry of the left-looking
// sweep is one serial dot product over it.  factorize() takes the wide rows
// of kPanel consecutive cells as one panel: their subtract chains run side
// by side in SIMD registers over node-major scratch, so each factor entry is
// read once per panel instead of once per row.  Every entry keeps the
// one-row sweep's exact operation sequence, so the factor is byte-identical
// to it (the argument is at factor_panel()).
//
// Blocked substitutions.  At 64x64 the packed factor (~4 MB) outgrows L2, so
// one query's substitution streams it from memory.  solve_block() carries
// kBlock queries through each pass side by side — node-major scratch, the
// queries' values in SIMD registers — and reads the factor once per block.
// Queries never mix: each sees the multiply, subtract and divide sequence of
// solve(), in the same order, so results stay bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "util/matrix.hpp"

namespace xlds::xbar {

class NodalSolver {
 public:
  NodalSolver() = default;

  /// Assemble the nodal conductance matrix for programmed conductances
  /// `g` (R x C, siemens) and per-segment wire conductance `g_wire`, then
  /// factorize it.  Returns false — leaving the solver not ready — if the
  /// factor would exceed `max_bytes` of storage or the factorization breaks
  /// down numerically (the caller falls back to the iterative solve).
  bool factorize(const MatrixD& g, double g_wire, std::size_t max_bytes);

  bool ready() const noexcept { return ready_; }

  /// Drop the factorization (programming state changed).
  void reset() noexcept;

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t node_count() const noexcept { return n_; }

  /// Bytes held by the packed factor.
  std::size_t factor_bytes() const noexcept { return vals_.size() * sizeof(double); }

  /// Queries solve_block() substitutes together.  Each block costs one
  /// forward and one back pass over the factor instead of one per query, and
  /// its kBlock independent multiply-subtract chains hide the add latency.
  /// Chosen by measurement (DESIGN.md §12); deliberately not configurable.
  static constexpr std::size_t kBlock = 8;

  /// Wide rows factorize() carries through one panel of its sweep.  Each
  /// factor entry is then loaded once per panel, and the panel's kPanel
  /// subtract chains run side by side.  Chosen by measurement (DESIGN.md
  /// §12); deliberately not configurable.
  static constexpr std::size_t kPanel = 8;

  /// The packed factor, row by row: the profile of L(i, start) .. L(i, i-1),
  /// then D(i) in the diagonal slot.  Read-only view for tests.
  const std::vector<double>& factor() const noexcept { return vals_; }

  /// Per-solve scratch: the node voltages of every query in flight, stored
  /// RHS-minor (node-major, one slot per query).  Reused across solves to
  /// amortise allocation; each concurrently-solving thread must use its own
  /// instance.
  struct Workspace {
    std::vector<double> y;  ///< rhs, then y, then node voltages x, in place
  };

  struct Result {
    /// Largest Jacobi update magnitude max_i |b - A x|_i / A_ii of the
    /// solution, in volts — directly comparable to the Gauss-Seidel
    /// convergence criterion (largest node-voltage update of a sweep).
    double residual = 0.0;
  };

  /// Solve for one input: `v_in` holds the R row driver voltages, `i_col`
  /// receives the C column currents.  Read-only on the factorization —
  /// concurrent calls with distinct workspaces are safe and bit-identical.
  Result solve(const double* v_in, double* i_col, Workspace& ws) const;

  /// Solve kBlock inputs with one pass over the factor: query k reads its
  /// row voltages at `v_in + k * v_stride`, writes its column currents to
  /// `i_col + k * i_stride` and its residual to `res[k]`.  Each query gets
  /// exactly the arithmetic solve() gives it, so the results are
  /// bit-identical to kBlock solve() calls.
  void solve_block(const double* v_in, std::size_t v_stride, double* i_col,
                   std::size_t i_stride, Result* res, Workspace& ws) const;

 private:
  std::size_t node_v(std::size_t r, std::size_t c) const noexcept {
    return 2 * (row_major_ ? r * cols_ + c : c * rows_ + r);
  }
  std::size_t node_u(std::size_t r, std::size_t c) const noexcept {
    return node_v(r, c) + 1;
  }

  /// The one factorization routine: the rows of W consecutive cells, their
  /// wide rows side by side (W == kPanel, smaller at the edges).  False on a
  /// non-positive or non-finite pivot.  `t` and `l` hold
  /// (bw_ + 2 * kPanel) * kPanel doubles of scratch.
  template <std::size_t W>
  bool factor_panel(std::size_t cell0, double* t, double* l);
  /// One narrow row (at most two entries left of the diagonal) of a panel.
  bool factor_narrow_row(std::size_t i);

  /// The one substitution routine: W queries side by side (W == 1 is
  /// solve(), W == kBlock is solve_block()).
  template <std::size_t W>
  void substitute(const double* v_in, std::size_t v_stride, double* i_col,
                  std::size_t i_stride, Result* res, Workspace& ws) const;

  std::size_t rows_ = 0, cols_ = 0;
  std::size_t n_ = 0;        ///< 2 * rows * cols unknowns
  bool row_major_ = true;    ///< cells ordered along the shorter dimension
  bool ready_ = false;
  double g_wire_ = 0.0;
  std::size_t bw_ = 0;       ///< largest row-profile width (i - start_[i])
  MatrixD g_;                ///< conductance snapshot (residual + currents)
  std::vector<double> adiag_;       ///< diagonal of A (Jacobi-scaled residual)
  std::vector<std::size_t> start_;  ///< first profile column of each row of L
  std::vector<std::size_t> off_;    ///< packed offset of L(i, start_[i]); size n+1
  std::vector<double> vals_;        ///< packed profile; diag slot holds D(i)
};

}  // namespace xlds::xbar
