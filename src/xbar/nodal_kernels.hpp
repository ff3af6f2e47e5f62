// The nodal solver's arithmetic kernels, and the choice of build.
//
// nodal_kernels.cpp holds the panel factorization and the blocked
// substitution behind NodalSolver.  It is compiled twice from one source:
// with the project's flags, where util::Lanes holds two doubles per vector,
// and — on x86-64, where the compiler takes the flags — with
// `-mavx2 -mno-fma -ffp-contract=off`, where it holds four.  The builds
// differ only in those flags and in the namespace util/lanes.hpp derives from
// them (nodal::vec2, nodal::vec4), and they compute the same bytes
// (DESIGN.md §12).  The process runs the AVX2 build where it was compiled in
// and the CPU supports AVX2, and the portable build everywhere else; the
// CPU decides, nothing configures it.
#pragma once

#include <bit>
#include <cstddef>

#include "xbar/nodal_solver.hpp"

namespace xlds::xbar::nodal {

/// The assembled network the kernels read, as raw arrays (the kernels touch
/// no container; see nodal_kernels.cpp).
struct Network {
  std::size_t rows, cols;
  bool row_major;              ///< cells ordered along the shorter dimension
  double g_wire;
  const double* g;             ///< rows x cols conductances, row-major
  const double* adiag;         ///< diagonal of A
  const std::size_t* start;    ///< first profile column of each row of L
  const std::size_t* off;      ///< packed offset of each row; size n + 1
};

/// One build of the kernels.
struct Kernels {
  static constexpr std::size_t kWidths = std::bit_width(NodalSolver::kBlock);

  const char* isa;  ///< "portable" or "avx2"
  /// The profile LDL^T of the assembled A in `vals`, in place, in panels of
  /// NodalSolver::kPanel cells.  `t` and `l` hold
  /// (bw + 2 * kPanel) * kPanel doubles of scratch.  False on a
  /// non-positive or non-finite pivot.
  bool (*factorize)(const Network& net, double* vals, double* t, double* l);
  /// substitute[b] carries 2^b queries side by side through the forward
  /// pass, the diagonal, the back pass, the residual and the currents
  /// (NodalSolver::solve_block).  `y` holds n * 2^b zeros.
  void (*substitute[kWidths])(const Network& net, const double* vals, const double* v_in,
                              std::size_t v_stride, double* i_col, std::size_t i_stride,
                              NodalSolver::Result* res, double* y);
};

namespace vec2 {
extern const Kernels kernels;
}
namespace vec4 {
extern const Kernels kernels;
}

/// The build compiled with the project's flags.
const Kernels& portable_kernels();
/// The AVX2 build, or nullptr where it was not compiled in or this CPU lacks
/// AVX2.
const Kernels* avx2_kernels();
/// The build this process runs, chosen once: avx2_kernels() where there is
/// one, else portable_kernels().
const Kernels& active_kernels();

}  // namespace xlds::xbar::nodal
