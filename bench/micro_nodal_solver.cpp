// Micro-benchmark — factorization-cached nodal IR-drop solver.
//
// Measures the repeated-query cost of the kNodal readout across array sizes
// and solve strategies:
//   * GS cold    — red-black Gauss-Seidel from a flat initial guess (every
//                  query pays the full iteration).
//   * factorize  — one NodalSolver::factorize, the minimum over
//                  kFactorizeReps calls: the one-time cost per programming
//                  state, timed on its own.
//   * factorized — one cached LDL^T factorization per programming state,
//                  a forward/back substitution per query.
//   * batched    — the factorized multi-RHS path (readout_batch): blocks of
//                  NodalSolver::kBlock queries share one pass over the
//                  factor, and blocks run in parallel across the pool.  At
//                  one thread the gain over "factorized" is the blocking.
//
// Emits BENCH_nodal_solver.json.  `--nodal-smoke` is the CI gate: it fails
// (nonzero exit) if the factorized repeated-query path is not faster than
// cold-start Gauss-Seidel — the acceptance bar is 10x on 64x64; the gate
// enforces a conservative >= 2x so CI jitter cannot mask a real regression
// while a broken cache (or an accidentally disabled direct path) still trips
// it instantly — or if the batched currents differ in any bit from the
// per-query ones over more than one block.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "device/technology.hpp"
#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/nodal_solver.hpp"

using namespace xlds;

namespace {

/// factorize() calls per array size; the minimum is reported.
constexpr int kFactorizeReps = 15;

xbar::CrossbarConfig base_config(std::size_t n) {
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  cfg.nodal_max_iters = 50000;  // let the iterative reference converge
  return cfg;
}

MatrixD half_loaded(std::size_t n, const device::RramParams& p, std::uint64_t seed) {
  MatrixD g(n, n, p.g_min);
  Rng fill(seed);
  for (double& v : g.data())
    if (fill.bernoulli(0.5)) v = p.g_max;
  return g;
}

MatrixD query_batch(std::size_t batch, std::size_t n, std::uint64_t seed) {
  MatrixD xs(batch, n);
  Rng rng(seed);
  for (double& v : xs.data()) v = rng.uniform(0.05, 0.95);
  return xs;
}

double seconds_since(const std::chrono::steady_clock::time_point& t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

struct SizeResult {
  std::size_t n = 0;
  std::size_t queries = 0;
  double gs_cold_s = 0.0;      ///< total, `queries` independent cold solves
  double factorize_s = 0.0;    ///< one factorization, min over kFactorizeReps
  double direct_query_s = 0.0; ///< total, `queries` cached substitutions
  double batch_s = 0.0;        ///< one readout_batch over `queries` vectors
  double max_dev = 0.0;        ///< max |factorized - GS cold| column current, A
  bool batch_identical = false;///< readout_batch bits == per-query readout bits
  double gs_tol_current = 0.0; ///< GS accuracy in current units (see below)

  double speedup_repeated() const {
    return direct_query_s > 0.0 ? gs_cold_s / direct_query_s : 0.0;
  }
  double speedup_batched() const { return batch_s > 0.0 ? gs_cold_s / batch_s : 0.0; }
};

SizeResult run_size(std::size_t n, std::size_t queries, std::uint64_t seed) {
  SizeResult res;
  res.n = n;
  res.queries = queries;
  const MatrixD g = half_loaded(n, device::RramParams{}, seed);
  const MatrixD xs = query_batch(queries, n, seed + 1);

  // --- Gauss-Seidel, cold start every query (a fresh instance per query). --
  auto gs_cfg = base_config(n);
  gs_cfg.nodal_direct = false;
  std::vector<std::vector<double>> gs_currents(queries);
  {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < queries; ++q) {
      Rng rng(seed + 2);
      xbar::Crossbar xb(gs_cfg, rng);
      xb.program_conductances(g);
      const std::vector<double> x(xs.row_data(q), xs.row_data(q) + n);
      gs_currents[q] = xb.column_currents(x);
    }
    res.gs_cold_s = seconds_since(t0);
  }

  // --- factorize alone, with the wire conductance Crossbar derives from the
  // technology node. -------------------------------------------------------
  {
    const xbar::CrossbarConfig cfg = base_config(n);
    const auto& node = device::tech_node(cfg.tech);
    const double g_wire = 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
    xbar::NodalSolver solver;
    for (int rep = 0; rep < kFactorizeReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = solver.factorize(g, g_wire, cfg.nodal_direct_max_bytes);
      const double s = seconds_since(t0);
      if (!ok) std::cerr << "factorize declined at " << n << "x" << n << "\n";
      if (rep == 0 || s < res.factorize_s) res.factorize_s = s;
    }
  }

  // --- factorized: one build, then repeated single-query substitutions. ---
  std::vector<std::vector<double>> direct_currents(queries);
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(base_config(n), rng);
    xb.program_conductances(g);
    const std::vector<double> x0(xs.row_data(0), xs.row_data(0) + n);
    (void)xb.column_currents(x0);  // factorize outside the timed region

    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t q = 0; q < queries; ++q) {
      const std::vector<double> x(xs.row_data(q), xs.row_data(q) + n);
      direct_currents[q] = xb.column_currents(x);
    }
    res.direct_query_s = seconds_since(t0);
    for (std::size_t q = 0; q < queries; ++q)
      for (std::size_t c = 0; c < n; ++c)
        res.max_dev = std::max(res.max_dev, std::abs(direct_currents[q][c] - gs_currents[q][c]));
  }

  // --- factorized, batched multi-RHS. --------------------------------------
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(base_config(n), rng);
    xb.program_conductances(g);
    const std::vector<double> x0(xs.row_data(0), xs.row_data(0) + n);
    (void)xb.column_currents(x0);  // factorize outside the timed region
    const auto t0 = std::chrono::steady_clock::now();
    const MatrixD out = xb.readout_batch(xs);
    res.batch_s = seconds_since(t0);
    res.batch_identical = true;
    for (std::size_t q = 0; q < queries; ++q)
      if (std::memcmp(out.row_data(q), direct_currents[q].data(), n * sizeof(double)) != 0)
        res.batch_identical = false;
  }

  // GS accuracy in current units: the iterative reference only locates node
  // voltages to ~tol / (1 - rho) — the last-update criterion times the
  // convergence-rate amplification, which grows as ~n^2/2 for red-black
  // sweeps of an n x n resistor grid (a couple thousand at 64x64) — so it is
  // the yardstick the factorized deviation must sit within.  A full column
  // of LRS cells converts the voltage scale to current.
  const device::RramParams p;
  const double gs_amplification = 0.5 * static_cast<double>(n) * static_cast<double>(n);
  res.gs_tol_current = static_cast<double>(n) * p.g_max * gs_amplification *
                       xbar::kNodalTolRel * gs_cfg.read_voltage;
  return res;
}

void print_results(const std::vector<SizeResult>& results) {
  Table table({"array", "queries", "GS cold", "factorize", "per query",
               "batched per query", "speedup", "batched speedup", "max dev"});
  for (const SizeResult& r : results) {
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n), std::to_string(r.queries),
                   Table::num(r.gs_cold_s * 1e3, 1) + " ms",
                   Table::num(r.factorize_s * 1e3, 2) + " ms",
                   Table::num(r.direct_query_s * 1e3 / static_cast<double>(r.queries), 2) + " ms",
                   Table::num(r.batch_s * 1e3 / static_cast<double>(r.queries), 2) + " ms",
                   Table::num(r.speedup_repeated(), 1) + "x",
                   Table::num(r.speedup_batched(), 1) + "x",
                   Table::num(r.max_dev * 1e9, 2) + " nA"});
  }
  std::cout << table;
}

void emit_json(const std::vector<SizeResult>& results) {
  std::ofstream json("BENCH_nodal_solver.json");
  json << "{\n"
       << "  \"bench\": \"nodal_solver\",\n"
       << "  \"threads\": " << parallel_thread_count() << ",\n"
       << "  \"substitution_block\": " << xbar::NodalSolver::kBlock << ",\n"
       << "  \"factorization_panel\": " << xbar::NodalSolver::kPanel << ",\n"
       << "  \"factorize_reps\": " << kFactorizeReps << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"array\": " << r.n << ", \"queries\": " << r.queries
         << ", \"gs_cold_seconds\": " << r.gs_cold_s
         << ", \"factorize_seconds\": " << r.factorize_s
         << ", \"factorized_repeated_seconds\": " << r.direct_query_s
         << ", \"factorized_batched_seconds\": " << r.batch_s
         << ", \"speedup_repeated\": " << r.speedup_repeated()
         << ", \"speedup_batched\": " << r.speedup_batched()
         << ", \"batch_bit_identical\": " << (r.batch_identical ? "true" : "false")
         << ", \"max_column_current_deviation_amps\": " << r.max_dev
         << ", \"gs_tolerance_amps\": " << r.gs_tol_current << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\n  -> BENCH_nodal_solver.json\n";
}

/// CI gate: the factorized repeated-query path must beat cold-start
/// Gauss-Seidel and agree with it within the iterative solver's accuracy,
/// and the blocked batch (one full block plus a remainder) must reproduce
/// the per-query currents bit for bit.
int run_nodal_smoke() {
  std::cout << "nodal solver smoke (" << parallel_thread_count() << " thread(s)):\n";
  const std::size_t queries = xbar::NodalSolver::kBlock + 1;
  const SizeResult r = run_size(64, queries, /*seed=*/2000);
  std::cout << "  64x64, " << queries << " queries: GS cold " << r.gs_cold_s * 1e3
            << " ms, factorized "
            << r.direct_query_s * 1e3 << " ms (+ " << r.factorize_s * 1e3
            << " ms one-time factorize), speedup " << r.speedup_repeated()
            << "x, max deviation " << r.max_dev << " A (tolerance " << r.gs_tol_current
            << " A)\n";
  bool ok = true;
  if (r.speedup_repeated() < 2.0) {
    std::cout << "FAIL: factorized repeated-query path is not clearly faster than "
                 "cold-start Gauss-Seidel\n";
    ok = false;
  }
  if (r.max_dev > r.gs_tol_current) {
    std::cout << "FAIL: factorized currents deviate from Gauss-Seidel beyond the "
                 "solver tolerance\n";
    ok = false;
  }
  std::cout << "  batched " << r.batch_s * 1e3 << " ms, bit-identical to per-query: "
            << (r.batch_identical ? "yes" : "no") << "\n";
  if (!r.batch_identical) {
    std::cout << "FAIL: readout_batch currents differ from per-query column_currents\n";
    ok = false;
  }
  std::cout << (ok ? "nodal smoke OK\n" : "nodal smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--nodal-smoke") == 0) return run_nodal_smoke();

  util::ArgParse args("micro_nodal_solver",
                      "repeated-query nodal readout: Gauss-Seidel vs cached factorization");
  util::add_bench_options(args, /*default_seed=*/2000);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);
  const std::uint64_t seed = args.uinteger("seed");

  print_banner(std::cout, "Micro-benchmark — factorization-cached nodal solver",
               "GS cold vs factorized (single and batched multi-RHS)");
  std::cout << "Threads: " << parallel_thread_count() << " (XLDS_THREADS).\n\n";

  std::vector<SizeResult> results;
  for (std::size_t n : {16u, 32u, 64u, 128u})
    results.push_back(run_size(n, /*queries=*/16, seed));

  print_results(results);
  emit_json(results);

  std::cout << "\nExpected shape: cold-start Gauss-Seidel cost per query grows steeply\n"
               "with array size; the cached factorization pays a one-time build and\n"
               "then answers each query with a forward/back substitution — 10x+ faster\n"
               "on repeated 64x64 queries.  The batched path substitutes blocks of\n"
               "queries in one pass over the factor, so it beats repeated queries even\n"
               "on one thread, with identical bits.\n";
  return 0;
}
