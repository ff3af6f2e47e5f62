// Fig. 4D — correlation between true cosine distance and hashed Hamming
// distance.
//
// Paper claim: with RRAM non-idealities (read noise, conductance
// relaxation), plain crossbar LSH correlates worse with cosine distance than
// software LSH; ternary LSH recovers most of the gap.
#include <cmath>
#include <iostream>

#include "mann/lsh.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace xlds;

namespace {

double cosine_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double dot = 0.0, na = 0.0, nb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    dot += a[i] * b[i];
    na += a[i] * a[i];
    nb += b[i] * b[i];
  }
  return 1.0 - dot / std::sqrt(na * nb);
}

/// Distance between a (possibly ternary) stored signature and a binary
/// query, normalised by the number of comparable (non-X) bits.
double normalised_distance(const mann::Signature& stored, const mann::Signature& query) {
  std::size_t d = 0, comparable = 0;
  for (std::size_t i = 0; i < stored.size(); ++i) {
    if (stored[i] == cam::kDontCare) continue;
    ++comparable;
    if (stored[i] != query[i]) ++d;
  }
  return comparable ? static_cast<double>(d) / static_cast<double>(comparable) : 0.0;
}

}  // namespace

int main() {
  print_banner(std::cout, "Fig. 4D — cosine distance vs hashed Hamming distance",
               "paper: corr(software LSH) > corr(RRAM TLSH) > corr(RRAM LSH)");

  constexpr std::size_t kDim = 64;
  constexpr std::size_t kBits = 256;
  constexpr int kPairs = 150;
  constexpr double kRelax = 100.0;  // seconds between writing and querying
  constexpr double kTlshThreshold = 0.35;

  Rng setup(400);
  mann::SoftwareLsh sw(kDim, kBits, setup);

  xbar::CrossbarConfig cfg;
  cfg.rows = kDim;
  cfg.cols = 2 * kBits;
  cfg.read_noise_rel = 0.002;  // peripheral analog noise (HRS-mode currents are small)

  Rng data(401);
  std::vector<double> cos_d, d_sw, d_rram, d_tlsh;
  for (int p = 0; p < kPairs; ++p) {
    // Pair with controlled similarity: b = blend of a and an independent draw.
    std::vector<double> a(kDim), r(kDim), b(kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      a[i] = data.uniform();
      r[i] = data.uniform();
    }
    const double blend = data.uniform();
    for (std::size_t i = 0; i < kDim; ++i) b[i] = (1.0 - blend) * a[i] + blend * r[i];

    cos_d.push_back(cosine_distance(a, b));
    d_sw.push_back(normalised_distance(sw.hash(a), sw.hash(b)));

    // RRAM hashes on a freshly programmed array (the paper's prototype
    // reprogrammed devices as needed): store a's signature, let the devices
    // relax for the store-to-query interval, then hash the query — the
    // Fig. 4C instability enters between the two.
    mann::CrossbarLsh hw(cfg, kBits, setup);
    const mann::Signature stored_bin = hw.hash(a);
    const mann::Signature stored_ter = hw.hash_ternary(a, kTlshThreshold);
    hw.age(kRelax);
    const mann::Signature query = hw.hash(b);
    d_rram.push_back(normalised_distance(stored_bin, query));
    d_tlsh.push_back(normalised_distance(stored_ter, query));
  }

  Table table({"hashing scheme", "pearson r vs cosine distance"});
  const double r_sw = pearson(cos_d, d_sw);
  const double r_rram = pearson(cos_d, d_rram);
  const double r_tlsh = pearson(cos_d, d_tlsh);
  table.add_row({"software LSH (ideal)", Table::num(r_sw, 4)});
  table.add_row({"RRAM crossbar LSH", Table::num(r_rram, 4)});
  table.add_row({"RRAM crossbar TLSH", Table::num(r_tlsh, 4)});
  std::cout << table;
  // The paper's ordering, checked half by half against this run's numbers.
  const auto verdict = [](bool holds) { return holds ? "holds" : "does not hold"; };
  std::cout << "\nPaper's Fig. 4D ordering: software >= TLSH > plain RRAM LSH (TLSH\n"
               "approaching the software correlation).  In this run:\n"
            << "  software >= TLSH:      " << verdict(r_sw >= r_tlsh) << "\n"
            << "  TLSH > plain RRAM LSH: " << verdict(r_tlsh > r_rram) << "\n"
            << "See EXPERIMENTS.md, Deviation 5.\n";
  return 0;
}
