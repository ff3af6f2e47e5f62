// Locality-sensitive hashing, software and crossbar-based (Sec. IV, Fig. 4B).
//
// LSH signs random projections: inputs that are close in angle are likely to
// hash to the same bits.  The RRAM realisation programs a crossbar with
// random HRS-state conductances (the intrinsic device-to-device spread *is*
// the random matrix) and takes each signature bit from the sign of the
// difference between two adjacent column currents — a zero-mean random
// projection without computing one explicitly.
//
// Ternary LSH (TLSH) marks a bit "don't care" when the projection lands too
// close to the hashing plane (|difference| below a threshold): exactly the
// bits that conductance relaxation flips.  Stored as X in the ternary CAM,
// they contribute zero Hamming distance regardless of the query (Fig. 4C).
#pragma once

#include <cstddef>
#include <vector>

#include "cam/types.hpp"
#include "kernels/bitpack.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace xlds::mann {

/// A hash signature: entries 0, 1 or cam::kDontCare (TLSH only).
using Signature = std::vector<int>;

/// Bit-packed signature (value + care planes, 64 bits per word).  Stored
/// rows are packed once per episode; each query compare is then a handful of
/// XOR/AND/popcount words instead of a loop over int digits.
using PackedSignature = kernels::PackedTernary;

/// Pack a signature (cam::kDontCare becomes a cleared care bit).
PackedSignature pack_signature(const Signature& s);

/// Fraction of don't-care bits in a signature.
double dont_care_fraction(const Signature& s);

/// Ternary-aware Hamming distance (X matches everything).
std::size_t signature_distance(const Signature& a, const Signature& b);

/// Packed overload — identical result to the digit-wise version.
std::size_t signature_distance(const PackedSignature& a, const PackedSignature& b);

/// Software (ideal) LSH: dense Gaussian random projection.
class SoftwareLsh {
 public:
  SoftwareLsh(std::size_t input_dim, std::size_t bits, Rng& rng);

  std::size_t bits() const noexcept { return bits_; }

  /// Binary signature: sign of each projection.
  Signature hash(const std::vector<double>& x) const;

  /// Ternary signature: bits with |projection| < margin * sigma_proj become X,
  /// where sigma_proj is the projection's scale for this input.
  Signature hash_ternary(const std::vector<double>& x, double margin) const;

  /// Raw projection values (for correlation studies).
  std::vector<double> project(const std::vector<double>& x) const;

  /// Centre the effective projection: subtract mean(x) * (column sums of R)
  /// from every projection — the software analogue of the crossbar's
  /// all-ones calibration.
  void calibrate_centering();
  bool centering_calibrated() const noexcept { return !ones_response_.empty(); }

 private:
  std::size_t input_dim_;
  std::size_t bits_;
  MatrixD r_;  ///< [input_dim x bits]
  std::vector<double> ones_response_;
};

/// RRAM-crossbar LSH: stochastic HRS conductances + adjacent-column
/// differencing.  Signature bit i compares physical columns 2i and 2i+1.
class CrossbarLsh {
 public:
  /// `bits` signature bits need 2*bits physical columns; the config's
  /// rows must equal the input dimensionality.  Tiles are not supported —
  /// the paper's prototype used single 64x64 arrays per hash block, and a
  /// block's columns must share an array for the differencing to cancel
  /// common-mode IR drop.
  CrossbarLsh(xbar::CrossbarConfig config, std::size_t bits, Rng& rng);

  std::size_t bits() const noexcept { return bits_; }
  xbar::Crossbar& crossbar() noexcept { return xbar_; }
  const xbar::Crossbar& crossbar() const noexcept { return xbar_; }

  /// Column-current differences (the analog pre-sign values), centred when
  /// calibrated — the one readout path: xs is [batch x input_dim], one row
  /// of differences per input.  All rows share one Crossbar::readout_batch,
  /// and with it the cached nodal factorization (kNodal mode), so projecting
  /// an episode's worth of vectors costs one factorization plus cheap
  /// per-row substitutions; a batch reads exactly what its rows read one at
  /// a time.
  MatrixD project_batch(const MatrixD& xs) const;

  /// Signatures of project_batch's rows: bit i is the sign of difference i.
  std::vector<Signature> hash_batch(const MatrixD& xs) const;

  /// One input's projection: a one-row project_batch.
  std::vector<double> project(const std::vector<double>& x) const;

  /// One input's signature: a one-row hash_batch.
  Signature hash(const std::vector<double>& x) const;

  /// TLSH: X when |I_{2i} - I_{2i+1}| < threshold_fraction * median(|diff|)
  /// measured on this input.
  Signature hash_ternary(const std::vector<double>& x, double threshold_fraction) const;

  /// Fixed-count TLSH: exactly the `n_dont_care` least-confident bits become
  /// X.  Keeping the X count identical across stored rows removes the
  /// distance bias a TCAM would otherwise see between rows with different
  /// don't-care populations.
  Signature hash_ternary_fixed(const std::vector<double>& x, std::size_t n_dont_care) const;

  /// One-time calibration: measure the array's response to the all-ones
  /// input and subtract mean(x) * that response from every projection.
  /// This centres the effective projection (P(x - x_bar * 1)), recovering
  /// angular resolution for non-negative, angle-compressed inputs (post-ReLU
  /// feature vectors) at the cost of one extra stored current vector.
  void calibrate_centering();
  bool centering_calibrated() const noexcept { return !ones_response_.empty(); }

  /// Apply conductance relaxation (destabilises near-plane bits).
  void age(double dt);

  xbar::MvmCost hash_cost() const { return xbar_.mvm_cost(); }

 private:
  std::size_t bits_;
  xbar::Crossbar xbar_;
  std::vector<double> ones_response_;  ///< per-bit diff for the all-ones input
};

}  // namespace xlds::mann
