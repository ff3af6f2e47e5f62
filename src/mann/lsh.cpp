#include "mann/lsh.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "kernels/mvm.hpp"
#include "util/error.hpp"

namespace xlds::mann {

PackedSignature pack_signature(const Signature& s) {
  return kernels::pack_ternary(s, cam::kDontCare);
}

std::size_t signature_distance(const PackedSignature& a, const PackedSignature& b) {
  return kernels::ternary_distance(a, b);
}

double dont_care_fraction(const Signature& s) {
  XLDS_REQUIRE(!s.empty());
  std::size_t x = 0;
  for (int b : s)
    if (b == cam::kDontCare) ++x;
  return static_cast<double>(x) / static_cast<double>(s.size());
}

std::size_t signature_distance(const Signature& a, const Signature& b) {
  XLDS_REQUIRE(a.size() == b.size());
  std::size_t d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i] == cam::kDontCare || b[i] == cam::kDontCare) continue;
    if (a[i] != b[i]) ++d;
  }
  return d;
}

// ---- SoftwareLsh ------------------------------------------------------------

SoftwareLsh::SoftwareLsh(std::size_t input_dim, std::size_t bits, Rng& rng)
    : input_dim_(input_dim), bits_(bits), r_(input_dim, bits) {
  XLDS_REQUIRE(input_dim >= 1 && bits >= 1);
  for (double& v : r_.data()) v = rng.normal();
}

void SoftwareLsh::calibrate_centering() {
  const std::vector<double> ones(input_dim_, 1.0);
  ones_response_.resize(bits_);
  kernels::matvec_t(r_.data().data(), input_dim_, bits_, ones.data(), ones_response_.data());
}

std::vector<double> SoftwareLsh::project(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == input_dim_, "project: " << x.size() << " != " << input_dim_);
  std::vector<double> p(bits_);
  kernels::matvec_t(r_.data().data(), input_dim_, bits_, x.data(), p.data());
  if (!ones_response_.empty()) {
    double x_bar = 0.0;
    for (double v : x) x_bar += v;
    x_bar /= static_cast<double>(x.size());
    for (std::size_t i = 0; i < bits_; ++i) p[i] -= x_bar * ones_response_[i];
  }
  return p;
}

Signature SoftwareLsh::hash(const std::vector<double>& x) const {
  const std::vector<double> p = project(x);
  Signature s(bits_);
  for (std::size_t i = 0; i < bits_; ++i) s[i] = p[i] >= 0.0 ? 1 : 0;
  return s;
}

Signature SoftwareLsh::hash_ternary(const std::vector<double>& x, double margin) const {
  XLDS_REQUIRE(margin >= 0.0);
  const std::vector<double> p = project(x);
  // Scale of the projections for this input: RMS over the signature.
  double rms = 0.0;
  for (double v : p) rms += v * v;
  rms = std::sqrt(rms / static_cast<double>(p.size()));
  Signature s(bits_);
  for (std::size_t i = 0; i < bits_; ++i) {
    if (std::abs(p[i]) < margin * rms)
      s[i] = cam::kDontCare;
    else
      s[i] = p[i] >= 0.0 ? 1 : 0;
  }
  return s;
}

// ---- CrossbarLsh ------------------------------------------------------------

CrossbarLsh::CrossbarLsh(xbar::CrossbarConfig config, std::size_t bits, Rng& rng)
    : bits_(bits), xbar_([&] {
        XLDS_REQUIRE(bits >= 1);
        XLDS_REQUIRE_MSG(config.cols >= 2 * bits,
                         "need " << 2 * bits << " physical columns, config has " << config.cols);
        return xbar::Crossbar(config, rng);
      }()) {
  xbar_.program_stochastic_hrs();
}

void CrossbarLsh::calibrate_centering() {
  // Average over a few reads so read noise does not bake into the offset.
  constexpr int kReads = 8;
  const std::vector<double> ones(xbar_.rows(), 1.0);
  ones_response_.assign(bits_, 0.0);
  for (int rep = 0; rep < kReads; ++rep) {
    const std::vector<double> currents = xbar_.column_currents(ones);
    for (std::size_t i = 0; i < bits_; ++i)
      ones_response_[i] += (currents[2 * i] - currents[2 * i + 1]) / kReads;
  }
}

MatrixD CrossbarLsh::project_batch(const MatrixD& xs) const {
  const MatrixD currents = xbar_.readout_batch(xs);
  const std::size_t batch = xs.rows();
  MatrixD diffs(batch, bits_);
  for (std::size_t b = 0; b < batch; ++b)
    kernels::diff_pairs(currents.row_data(b), bits_, 1.0, diffs.row_data(b));
  if (!ones_response_.empty()) {
    for (std::size_t b = 0; b < batch; ++b) {
      const double* x = xs.row_data(b);
      double x_bar = 0.0;
      for (std::size_t r = 0; r < xs.cols(); ++r) x_bar += x[r];
      x_bar /= static_cast<double>(xs.cols());
      double* d = diffs.row_data(b);
      for (std::size_t i = 0; i < bits_; ++i) d[i] -= x_bar * ones_response_[i];
    }
  }
  return diffs;
}

std::vector<Signature> CrossbarLsh::hash_batch(const MatrixD& xs) const {
  const MatrixD d = project_batch(xs);
  std::vector<Signature> out(xs.rows());
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const double* db = d.row_data(b);
    Signature& s = out[b];
    s.resize(bits_);
    for (std::size_t i = 0; i < bits_; ++i) s[i] = db[i] >= 0.0 ? 1 : 0;
  }
  return out;
}

std::vector<double> CrossbarLsh::project(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == xbar_.rows(), "input " << x.size() << " != " << xbar_.rows());
  return project_batch(MatrixD::one_row(x)).row(0);
}

Signature CrossbarLsh::hash(const std::vector<double>& x) const {
  XLDS_REQUIRE_MSG(x.size() == xbar_.rows(), "input " << x.size() << " != " << xbar_.rows());
  return std::move(hash_batch(MatrixD::one_row(x))[0]);
}

Signature CrossbarLsh::hash_ternary(const std::vector<double>& x,
                                    double threshold_fraction) const {
  XLDS_REQUIRE(threshold_fraction >= 0.0);
  const std::vector<double> d = project(x);
  std::vector<double> mags(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) mags[i] = std::abs(d[i]);
  std::nth_element(mags.begin(), mags.begin() + mags.size() / 2, mags.end());
  const double median = mags[mags.size() / 2];
  const double threshold = threshold_fraction * median;
  Signature s(bits_);
  for (std::size_t i = 0; i < bits_; ++i) {
    if (std::abs(d[i]) < threshold)
      s[i] = cam::kDontCare;
    else
      s[i] = d[i] >= 0.0 ? 1 : 0;
  }
  return s;
}

Signature CrossbarLsh::hash_ternary_fixed(const std::vector<double>& x,
                                          std::size_t n_dont_care) const {
  XLDS_REQUIRE_MSG(n_dont_care < bits_, "cannot mask all " << bits_ << " bits");
  const std::vector<double> d = project(x);
  std::vector<std::size_t> order(bits_);
  for (std::size_t i = 0; i < bits_; ++i) order[i] = i;
  std::nth_element(order.begin(), order.begin() + n_dont_care, order.end(),
                   [&](std::size_t a, std::size_t b) { return std::abs(d[a]) < std::abs(d[b]); });
  Signature s(bits_);
  for (std::size_t i = 0; i < bits_; ++i) s[i] = d[i] >= 0.0 ? 1 : 0;
  for (std::size_t i = 0; i < n_dont_care; ++i) s[order[i]] = cam::kDontCare;
  return s;
}

void CrossbarLsh::age(double dt) { xbar_.age(dt); }

}  // namespace xlds::mann
