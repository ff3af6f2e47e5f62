// Ablation — IR-drop modelling fidelity and its application-level impact.
//
// (a) Validates the fast two-pass analytic IR-drop estimate against the
//     exact (direct) nodal solve across array sizes and loading densities.
// (b) Quantifies the MVM error IR drop induces, the lever behind the
//     Sec.-IV guidance to keep operating currents low (HRS-biased mappings).
#include <chrono>
#include <fstream>
#include <iostream>

#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "xbar/crossbar.hpp"

using namespace xlds;

namespace {

xbar::CrossbarConfig config_for(std::size_t n, xbar::IrDropMode mode, double density) {
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = mode;
  (void)density;
  return cfg;
}

MatrixD dense_conductances(std::size_t n, double density, const device::RramParams& p,
                           Rng& rng) {
  MatrixD g(n, n, p.g_min);
  for (double& v : g.data())
    if (rng.bernoulli(density)) v = p.g_max;
  return g;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParse args("ablation_ir_drop",
                      "two-pass analytic estimate vs nodal solve across sizes and loadings");
  util::add_bench_options(args, /*default_seed=*/1000);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);
  const std::uint64_t seed = args.uinteger("seed");

  print_banner(std::cout, "Ablation — IR-drop model fidelity and impact",
               "two-pass analytic estimate vs nodal solve; error induced in column currents");
  std::cout << "Nodal solver: cached-LDL^T direct solve, on " << parallel_thread_count()
            << " thread(s) (XLDS_THREADS; results thread-count independent).\n\n";

  Table table({"array", "LRS density", "worst-case drop (analytic)", "analytic vs nodal",
               "analytic time", "direct cold", "direct query"});

  for (std::size_t n : {32u, 64u, 128u}) {
    for (double density : {0.25, 1.0}) {
      Rng rng(seed + n);
      xbar::Crossbar analytic(config_for(n, xbar::IrDropMode::kAnalytic, density), rng);
      xbar::Crossbar direct(config_for(n, xbar::IrDropMode::kNodal, density), rng);
      Rng fill(seed + 1000 + n);
      const MatrixD g = dense_conductances(n, density, analytic.config().rram, fill);
      analytic.program_conductances(g);
      direct.program_conductances(g);

      const std::vector<double> ones(n, 1.0);
      const auto t0 = std::chrono::steady_clock::now();
      const auto ia = analytic.column_currents(ones);
      const auto t1 = std::chrono::steady_clock::now();
      // Direct path: the first query factorizes, every later one reuses it.
      const auto id_cold = direct.column_currents(ones);
      const auto t2 = std::chrono::steady_clock::now();
      constexpr int kRepeat = 16;
      for (int rep = 0; rep < kRepeat; ++rep) (void)direct.column_currents(ones);
      const auto t3 = std::chrono::steady_clock::now();

      // Model error against the direct solve (machine-precision nodal truth).
      RunningStats rel_err;
      for (std::size_t c = 0; c < n; ++c)
        if (id_cold[c] > 0.0) rel_err.add(std::abs(ia[c] - id_cold[c]) / id_cold[c]);

      const double ta = std::chrono::duration<double>(t1 - t0).count();
      const double tc = std::chrono::duration<double>(t2 - t1).count();
      const double tq = std::chrono::duration<double>(t3 - t2).count() / kRepeat;
      table.add_row({std::to_string(n) + "x" + std::to_string(n), Table::num(density, 2),
                     Table::num(100.0 * analytic.ir_drop_worst_case(), 2) + " %",
                     Table::num(100.0 * rel_err.mean(), 2) + " % mean err",
                     Table::num(ta * 1e6, 1) + " us", Table::num(tc * 1e6, 1) + " us",
                     Table::num(tq * 1e6, 1) + " us"});
    }
  }
  std::cout << table;
  if (!args.str("out").empty()) {
    std::ofstream(args.str("out")) << table;
    std::cout << "\nTable written to " << args.str("out") << ".\n";
  }
  std::cout << "\nExpected shape: worst-case drop grows with array size and loading; the\n"
               "analytic estimate tracks the nodal solve within a percent through 64x64\n"
               "at a fraction of its runtime ('analytic time' against 'direct query' and\n"
               "'direct cold'), degrading at extreme size x loading (128x128 all-LRS) —\n"
               "which is why the analytic model is the sweep default and the nodal\n"
               "solver the validation tool, and why practical designs cap tile size near\n"
               "64x64 (as the Sec.-IV prototype did).  The cached-factorization direct\n"
               "path pays its cost once per programming state ('direct cold') and then\n"
               "answers repeated queries about an order of magnitude faster ('direct\n"
               "query').\n";
  return 0;
}
