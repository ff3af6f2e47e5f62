// Micro-benchmark — factorization-cached nodal IR-drop solver.
//
// Measures the repeated-query cost of the kNodal readout across array sizes
// and solve strategies:
//   * factorize  — one NodalSolver::factorize: the one-time cost per
//                  programming state, timed on its own.
//   * factorized — one cached LDL^T factorization per programming state,
//                  then one query at a time (column_currents, a one-row
//                  readout_batch): a forward/back substitution per query.
//   * batched    — all queries in one readout_batch: blocks of
//                  NodalSolver::kBlock queries share one pass over the
//                  factor, and blocks run in parallel across the pool.  At
//                  one thread the gain over "factorized" is the blocking.
// Every column is the minimum over kTimingReps passes, so box noise moves it
// less.
//
// Emits BENCH_nodal_solver.json.  `--nodal-smoke` is the CI gate: it fails
// (nonzero exit) if the batched currents differ in any bit from the
// per-query ones over more than one block, or if the CPU has AVX2 but the
// solver runs its portable kernel build (a dropped compile flag or a lost
// dispatch, which would otherwise show only as a slower bench).  A broken
// factor cache is caught by the nodal tests, which count one factorization
// for many readouts of one programmed array.
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
#include "xbar/nodal_kernels.hpp"
#include "xbar/nodal_solver.hpp"

using namespace xlds;

namespace {

/// Timed passes of the factorize, factorized and batched columns; the
/// minimum is reported.
constexpr int kTimingReps = 15;

xbar::CrossbarConfig base_config(std::size_t n) {
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNodal;
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
  double factorize_s = 0.0;    ///< one factorization, min over kTimingReps
  double direct_query_s = 0.0; ///< total, `queries` cached substitutions, min over kTimingReps
  double batch_s = 0.0;        ///< one readout_batch over `queries` vectors, min over kTimingReps
  bool batch_identical = false;///< readout_batch bits == per-query readout bits
};

SizeResult run_size(std::size_t n, std::size_t queries, std::uint64_t seed) {
  SizeResult res;
  res.n = n;
  res.queries = queries;
  const MatrixD g = half_loaded(n, device::RramParams{}, seed);
  const MatrixD xs = query_batch(queries, n, seed + 1);

  // --- factorize alone, with the wire conductance Crossbar derives from the
  // technology node. -------------------------------------------------------
  {
    const xbar::CrossbarConfig cfg = base_config(n);
    const auto& node = device::tech_node(cfg.tech);
    const double g_wire = 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
    xbar::NodalSolver solver;
    for (int rep = 0; rep < kTimingReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const bool ok = solver.factorize(g, g_wire, xbar::kNodalMaxFactorBytes);
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
    (void)xb.column_currents(xs.row(0));  // factorize outside the timed region

    // Read noise is off, so every pass reads the same currents.
    for (int rep = 0; rep < kTimingReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      for (std::size_t q = 0; q < queries; ++q) direct_currents[q] = xb.column_currents(xs.row(q));
      const double s = seconds_since(t0);
      if (rep == 0 || s < res.direct_query_s) res.direct_query_s = s;
    }
  }

  // --- factorized, batched multi-RHS. --------------------------------------
  {
    Rng rng(seed + 2);
    xbar::Crossbar xb(base_config(n), rng);
    xb.program_conductances(g);
    (void)xb.column_currents(xs.row(0));  // factorize outside the timed region
    res.batch_identical = true;
    for (int rep = 0; rep < kTimingReps; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      const MatrixD out = xb.readout_batch(xs);
      const double s = seconds_since(t0);
      if (rep == 0 || s < res.batch_s) res.batch_s = s;
      for (std::size_t q = 0; q < queries; ++q)
        if (std::memcmp(out.row_data(q), direct_currents[q].data(), n * sizeof(double)) != 0)
          res.batch_identical = false;
    }
  }
  return res;
}

void print_results(const std::vector<SizeResult>& results) {
  Table table({"array", "queries", "factorize", "per query", "batched per query"});
  for (const SizeResult& r : results) {
    table.add_row({std::to_string(r.n) + "x" + std::to_string(r.n), std::to_string(r.queries),
                   Table::num(r.factorize_s * 1e3, 2) + " ms",
                   Table::num(r.direct_query_s * 1e3 / static_cast<double>(r.queries), 2) + " ms",
                   Table::num(r.batch_s * 1e3 / static_cast<double>(r.queries), 2) + " ms"});
  }
  std::cout << table;
}

void emit_json(const std::vector<SizeResult>& results) {
  std::ofstream json("BENCH_nodal_solver.json");
  json << "{\n"
       << "  \"bench\": \"nodal_solver\",\n"
       << "  \"threads\": " << parallel_thread_count() << ",\n"
       << "  \"nodal_isa\": \"" << xbar::nodal::active_kernels().isa << "\",\n"
       << "  \"substitution_block\": " << xbar::NodalSolver::kBlock << ",\n"
       << "  \"factorization_panel\": " << xbar::NodalSolver::kPanel << ",\n"
       << "  \"timing_reps\": " << kTimingReps << ",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SizeResult& r = results[i];
    json << "    {\"array\": " << r.n << ", \"queries\": " << r.queries
         << ", \"factorize_seconds\": " << r.factorize_s
         << ", \"factorized_repeated_seconds\": " << r.direct_query_s
         << ", \"factorized_batched_seconds\": " << r.batch_s
         << ", \"batch_bit_identical\": " << (r.batch_identical ? "true" : "false") << "}"
         << (i + 1 < results.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "\n  -> BENCH_nodal_solver.json\n";
}

/// True when this CPU has AVX2, asked independently of the solver's own
/// dispatch.
bool cpu_has_avx2() {
#if defined(__x86_64__)
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

/// CI gate: the blocked batch (one full block plus a remainder) must
/// reproduce the per-query currents bit for bit, and a CPU with AVX2 must
/// run the AVX2 kernel build.
int run_nodal_smoke() {
  const std::string isa = xbar::nodal::active_kernels().isa;
  std::cout << "nodal solver smoke (" << parallel_thread_count() << " thread(s), " << isa
            << " kernels):\n";
  const std::size_t queries = xbar::NodalSolver::kBlock + 1;
  const SizeResult r = run_size(64, queries, /*seed=*/2000);
  std::cout << "  64x64, " << queries << " queries: factorized " << r.direct_query_s * 1e3
            << " ms (+ " << r.factorize_s * 1e3 << " ms one-time factorize)\n";
  bool ok = true;
  std::cout << "  batched " << r.batch_s * 1e3 << " ms, bit-identical to per-query: "
            << (r.batch_identical ? "yes" : "no") << "\n";
  if (!r.batch_identical) {
    std::cout << "FAIL: readout_batch currents differ from per-query column_currents\n";
    ok = false;
  }
  if (cpu_has_avx2() && isa != "avx2") {
    std::cout << "FAIL: the CPU has AVX2 but the solver runs its " << isa << " kernels\n";
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
                      "repeated-query nodal readout through the cached factorization");
  util::add_bench_options(args, /*default_seed=*/2000);
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);
  const std::uint64_t seed = args.uinteger("seed");

  print_banner(std::cout, "Micro-benchmark — factorization-cached nodal solver",
               "factorize once, then single and batched multi-RHS substitutions");
  std::cout << "Threads: " << parallel_thread_count() << " (XLDS_THREADS); "
            << xbar::nodal::active_kernels().isa << " nodal kernels.\n\n";

  std::vector<SizeResult> results;
  for (std::size_t n : {16u, 32u, 64u, 128u})
    results.push_back(run_size(n, /*queries=*/16, seed));

  print_results(results);
  emit_json(results);

  std::cout << "\nExpected shape: the cached factorization pays a one-time build and\n"
               "then answers each query with a forward/back substitution.  The batched\n"
               "path substitutes blocks of queries in one pass over the factor, so it\n"
               "beats repeated queries even on one thread, with identical bits.\n";
  return 0;
}
