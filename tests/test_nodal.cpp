// Tests for the factorization-cached nodal IR-drop solver: agreement with a
// dense reference solve and with a Gauss-Seidel reference, neither sharing
// code with the solver, across shapes (including degenerate and non-square
// arrays, faults and aged cells), the packed factor's bytes against a
// row-by-row reference factorization, both kernel builds (portable and AVX2)
// byte for byte against that factor and a scalar reference substitution, the
// invalidation contract on program/fault/age, results independent of readout
// history, batched-vs-single bit-equality across the blocked substitution's
// block edges and thread counts, one factorization per programming state,
// and the throw past the factor's byte cap.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "circuit/converter.hpp"
#include "core/counters.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "mann/lsh.hpp"
#include "util/error.hpp"
#include "util/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/nodal_kernels.hpp"
#include "xbar/nodal_solver.hpp"
#include "xbar/tiled.hpp"

namespace xlds {
namespace {

class NodalTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

xbar::CrossbarConfig quiet_config(std::size_t rows, std::size_t cols) {
  xbar::CrossbarConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  return cfg;
}

MatrixD mixed_conductances(std::size_t rows, std::size_t cols, const device::RramParams& p,
                           std::uint64_t seed) {
  MatrixD g(rows, cols, p.g_min);
  Rng fill(seed);
  for (double& v : g.data())
    if (fill.bernoulli(0.5)) v = p.g_max;
  return g;
}

std::vector<double> ramp_input(std::size_t rows) {
  std::vector<double> x(rows);
  for (std::size_t r = 0; r < rows; ++r)
    x[r] = 0.1 + 0.8 * static_cast<double>(r) / static_cast<double>(std::max<std::size_t>(rows - 1, 1));
  return x;
}

struct ShapeCase {
  std::size_t rows, cols;
};

// ---- invalidation contract --------------------------------------------------

TEST_F(NodalTest, ProgramFaultAndAgeInvalidateTheFactorization) {
  // Every mutation that changes a conductance drops the cached factor (and
  // counts one update decline); a mutation that changes nothing keeps it.
  auto cfg = quiet_config(8, 8);
  Rng rng(5);
  xbar::Crossbar xb(cfg, rng);
  const MatrixD g = mixed_conductances(8, 8, cfg.rram, 21);
  xb.program_conductances(g);
  EXPECT_FALSE(xb.nodal_factorized());  // built lazily, not at program time

  const std::vector<double> x(8, 1.0);
  const auto expect_mutation = [&](const char* what, bool drops, const auto& mutate) {
    (void)xb.column_currents(x);
    ASSERT_TRUE(xb.nodal_factorized()) << what;
    const std::uint64_t declines = core::Profiler::nodal().update_declines;
    mutate();
    EXPECT_EQ(xb.nodal_factorized(), !drops) << what;
    EXPECT_EQ(core::Profiler::nodal().update_declines - declines, drops ? 1u : 0u) << what;
  };

  // No-ops: identical noiseless targets, a fault pinned at the cell's
  // current conductance, an empty fault map, zero aging.
  expect_mutation("identical reprogram", false, [&] { xb.program_conductances(g); });
  expect_mutation("identical cell reprogram", false,
                  [&] { xb.program_cells({{2, 3, xb.conductance(2, 3)}}); });
  expect_mutation("fault at current conductance", false,
                  [&] { xb.inject_stuck_fault(4, 4, xb.conductance(4, 4)); });
  expect_mutation("empty fault map", false, [&] { xb.apply_fault_map(fault::FaultMap(8, 8)); });
  expect_mutation("zero aging", false, [&] { xb.age(0.0); });

  // Changes, down to a single cell.
  expect_mutation("one-cell reprogram", true, [&] {
    xb.program_cells({{1, 2, xb.conductance(1, 2) == cfg.rram.g_max ? cfg.rram.g_min
                                                                     : cfg.rram.g_max}});
  });
  expect_mutation("one-cell fault", true, [&] { xb.inject_stuck_fault(2, 2, 0.0); });
  fault::FaultMap map(8, 8);
  map.set_cell(1, 1, fault::CellFault::kOpen);  // no programmed cell holds 0 S
  expect_mutation("one-cell fault map", true, [&] { xb.apply_fault_map(map); });
  expect_mutation("aging", true, [&] { xb.age(60.0); });
  expect_mutation("full reprogram", true,
                  [&] { xb.program_conductances(mixed_conductances(8, 8, cfg.rram, 22)); });
  expect_mutation("stochastic reprogram", true, [&] { xb.program_stochastic_hrs(); });

  // Without a live factor, a mutation has nothing to drop.
  const std::uint64_t declines = core::Profiler::nodal().update_declines;
  xb.age(60.0);
  EXPECT_FALSE(xb.nodal_factorized());
  EXPECT_EQ(core::Profiler::nodal().update_declines, declines);
}

TEST_F(NodalTest, ReadoutAfterReprogramMatchesFreshInstance) {
  // The cached factorization must never leak stale conductances: reprogram
  // and compare against an instance that only ever saw the second state.
  auto cfg = quiet_config(12, 12);
  const MatrixD g1 = mixed_conductances(12, 12, cfg.rram, 31);
  const MatrixD g2 = mixed_conductances(12, 12, cfg.rram, 32);
  const std::vector<double> x = ramp_input(12);

  Rng r1(9);
  xbar::Crossbar reused(cfg, r1);
  reused.program_conductances(g1);
  (void)reused.column_currents(x);  // factorize against g1
  reused.program_conductances(g2);
  const auto i_reused = reused.column_currents(x);

  Rng r2(9);
  xbar::Crossbar fresh(cfg, r2);
  fresh.program_conductances(g1);  // same RNG consumption, no readout
  fresh.program_conductances(g2);
  const auto i_fresh = fresh.column_currents(x);

  for (std::size_t c = 0; c < 12; ++c) EXPECT_EQ(i_reused[c], i_fresh[c]) << "column " << c;
}

// ---- batched readout --------------------------------------------------------

MatrixD batch_inputs(std::size_t batch, std::size_t rows, std::uint64_t seed) {
  MatrixD xs(batch, rows);
  Rng rng(seed);
  for (double& v : xs.data()) v = rng.uniform();
  return xs;
}

// readout_batch solves its queries NodalSolver::kBlock = 16 at a time and a
// ragged remainder in blocks of 8, 4, 2 and 1, so the batch sizes cover every
// tail: one query, 7 (4 + 2 + 1), 8, 9, one short of a block, exactly one,
// one over, 19 (16 + 2 + 1), two plus a remainder, and the 64 a served tile
// sees per tick; then a full tile, a column-major tile (wider than tall) and
// a non-square row-major one.
constexpr std::size_t kBlock = xbar::NodalSolver::kBlock;
static_assert(kBlock == 16, "the batch sizes below cover the tails of 16");

struct BatchCase {
  std::size_t batch = 0;
  std::size_t rows = 16, cols = 16;
};

std::string batch_case_name(const BatchCase& c) {
  return "b" + std::to_string(c.batch) + "_" + std::to_string(c.rows) + "x" +
         std::to_string(c.cols);
}

void PrintTo(const BatchCase& c, std::ostream* os) { *os << batch_case_name(c); }

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

class NodalBatchTest : public NodalTest, public ::testing::WithParamInterface<BatchCase> {};

TEST_P(NodalBatchTest, ReadoutBatchBitIdenticalToSequentialSingles) {
  const BatchCase bc = GetParam();
  const std::size_t n = bc.rows, cols = bc.cols;
  auto cfg = quiet_config(n, cols);
  cfg.read_noise_rel = 0.005;  // noise on: the RNG draw order is part of the contract
  const MatrixD g = mixed_conductances(n, cols, cfg.rram, 41);
  const MatrixD xs = batch_inputs(bc.batch, n, 42);

  Rng r_single(13);
  xbar::Crossbar single(cfg, r_single);
  single.program_conductances(g);
  std::vector<std::vector<double>> want(bc.batch);
  for (std::size_t b = 0; b < bc.batch; ++b)
    want[b] = single.column_currents(std::vector<double>(xs.row_data(b), xs.row_data(b) + n));

  for (const std::size_t threads : {1u, 8u}) {
    set_parallel_threads(threads);
    Rng r_batch(13);
    xbar::Crossbar batched(cfg, r_batch);
    batched.program_conductances(g);
    const MatrixD out = batched.readout_batch(xs);
    for (std::size_t b = 0; b < bc.batch; ++b) {
      for (std::size_t c = 0; c < cols; ++c)
        EXPECT_EQ(bits(out(b, c)), bits(want[b][c]))
            << threads << " lanes, query " << b << " column " << c;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(BatchSizes, NodalBatchTest,
                         ::testing::Values(BatchCase{1}, BatchCase{7}, BatchCase{8},
                                           BatchCase{9}, BatchCase{kBlock - 1},
                                           BatchCase{kBlock}, BatchCase{kBlock + 1},
                                           BatchCase{19}, BatchCase{2 * kBlock + 3},
                                           BatchCase{64}, BatchCase{19, 64, 64},
                                           BatchCase{2 * kBlock + 3, 9, 33},
                                           BatchCase{2 * kBlock + 3, 33, 9}),
                         [](const ::testing::TestParamInfo<BatchCase>& info) {
                           return batch_case_name(info.param);
                         });

TEST_F(NodalTest, ReadoutHistoryChangesNoResult) {
  // A readout only builds the factor; it must never change what a later
  // readout returns.  Array A reads once (factorizing) before the mutation,
  // array B, identically seeded, mutates with no readout between; afterwards
  // both answer a 19-query batch bit for bit alike.
  const std::size_t n = 16;
  const auto cfg = quiet_config(n, n);
  const MatrixD g = mixed_conductances(n, n, cfg.rram, 141);
  const MatrixD xs = batch_inputs(2 * kBlock + 3, n, 142);
  const double g_mid = 0.5 * (cfg.rram.g_min + cfg.rram.g_max);
  MatrixD g_partial = g;
  g_partial(3, 9) = g_mid;
  g_partial(12, 0) = g_mid;
  fault::FaultMap map(n, n);
  map.set_cell(5, 6, fault::CellFault::kOpen);

  const std::pair<const char*, std::function<void(xbar::Crossbar&)>> mutations[] = {
      {"1-cell program_cells", [&](xbar::Crossbar& xb) { xb.program_cells({{7, 7, g_mid}}); }},
      {"3-cell program_cells",
       [&](xbar::Crossbar& xb) {
         xb.program_cells({{0, 1, g_mid}, {8, 15, g_mid}, {15, 4, g_mid}});
       }},
      {"inject_stuck_fault", [&](xbar::Crossbar& xb) { xb.inject_stuck_fault(10, 11, 0.0); }},
      {"one-cell apply_fault_map", [&](xbar::Crossbar& xb) { xb.apply_fault_map(map); }},
      {"partial program_conductances",
       [&](xbar::Crossbar& xb) { xb.program_conductances(g_partial); }},
  };
  for (const auto& [what, mutate] : mutations) {
    Rng ra(17), rb(17);
    xbar::Crossbar a(cfg, ra), b(cfg, rb);
    a.program_conductances(g);
    b.program_conductances(g);
    (void)a.column_currents(ramp_input(n));
    ASSERT_TRUE(a.nodal_factorized()) << what;
    mutate(a);
    mutate(b);
    const MatrixD out_a = a.readout_batch(xs);
    const MatrixD out_b = b.readout_batch(xs);
    std::size_t differing = 0;
    for (std::size_t i = 0; i < out_a.size(); ++i)
      differing += bits(out_a.data()[i]) != bits(out_b.data()[i]);
    EXPECT_EQ(differing, 0u) << what << ": currents differing out of " << out_a.size();
  }
}

TEST_F(NodalTest, BatchedReadoutCoversAllIrDropModes) {
  for (const xbar::IrDropMode mode :
       {xbar::IrDropMode::kNone, xbar::IrDropMode::kAnalytic, xbar::IrDropMode::kNodal}) {
    auto cfg = quiet_config(8, 8);
    cfg.ir_drop = mode;
    cfg.read_noise_rel = 0.01;
    const MatrixD g = mixed_conductances(8, 8, cfg.rram, 61);
    const MatrixD xs = batch_inputs(4, 8, 62);

    Rng r1(19);
    xbar::Crossbar batched(cfg, r1);
    batched.program_conductances(g);
    const MatrixD out = batched.readout_batch(xs);

    Rng r2(19);
    xbar::Crossbar single(cfg, r2);
    single.program_conductances(g);
    for (std::size_t b = 0; b < xs.rows(); ++b) {
      const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 8);
      const auto i = single.column_currents(x);
      for (std::size_t c = 0; c < 8; ++c)
        EXPECT_EQ(out(b, c), i[c]) << to_string(mode) << " row " << b << " col " << c;
    }
  }
}

TEST_F(NodalTest, BatchedMvmBitIdenticalToSequentialMvm) {
  auto cfg = quiet_config(16, 16);
  cfg.read_noise_rel = 0.005;
  MatrixD w(16, 8);
  Rng wfill(71);
  for (double& v : w.data()) v = wfill.uniform(-1.0, 1.0);
  const MatrixD xs = batch_inputs(4, 16, 72);

  Rng r1(23);
  xbar::Crossbar batched(cfg, r1);
  batched.program_weights(w);
  const MatrixD out = batched.mvm_batch(xs);
  ASSERT_EQ(out.cols(), 8u);

  Rng r2(23);
  xbar::Crossbar single(cfg, r2);
  single.program_weights(w);
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 16);
    const auto y = single.mvm(x);
    for (std::size_t j = 0; j < 8; ++j) EXPECT_EQ(out(b, j), y[j]) << b << ',' << j;
  }
}

// ---- one factorization per programming state, and the factor cap ----------

TEST_F(NodalTest, OneRowReadoutsShareOneFactorization) {
  // Every readout of one programmed array substitutes against the one factor
  // the first readout built.
  const std::size_t n = 16, readouts = kBlock + 1;
  const auto cfg = quiet_config(n, n);
  Rng rng(37);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(n, n, cfg.rram, 101));
  const MatrixD xs = batch_inputs(readouts, n, 102);
  const core::NodalCounts before = core::Profiler::nodal();
  for (std::size_t b = 0; b < readouts; ++b) (void)xb.column_currents(xs.row(b));
  const core::NodalCounts spent = core::Profiler::nodal() - before;
  EXPECT_EQ(spent.factorizations, 1u);
  EXPECT_EQ(spent.direct_solves, readouts);
  EXPECT_EQ(spent.update_declines, 0u);
}

TEST_F(NodalTest, ReadoutPastTheFactorCapThrows) {
  // 256x256 is the smallest square array whose factor exceeds
  // kNodalMaxFactorBytes.  The cap is checked before any factor value is
  // allocated, and nothing remembers a decline: every readout tries again.
  const std::size_t n = 256;
  const auto cfg = quiet_config(n, n);
  Rng rng(29);
  xbar::Crossbar xb(cfg, rng);
  const std::vector<double> x = ramp_input(n);
  for (const char* attempt : {"first", "second"}) {
    try {
      (void)xb.column_currents(x);
      ADD_FAILURE() << attempt << " readout returned";
    } catch (const ModelDomainError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("256x256"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(xbar::kNodalMaxFactorBytes >> 20) + " MiB cap"),
                std::string::npos)
          << what;
    }
    EXPECT_FALSE(xb.nodal_factorized()) << attempt;
  }
}

TEST_F(NodalTest, ConcurrentReadoutsOnSharedInstanceAgree) {
  // The parallel evaluator shares const arrays across worker threads: many
  // threads race to build the factorization (exactly once, under the cache
  // mutex).  With read noise off, every thread must see the same currents.
  // Each round ends with one serial mutation, so the next round's
  // factorization overwrites the last one in the same storage; every round
  // must still read what a fresh array programmed the same way reads.
  set_parallel_threads(8);
  auto cfg = quiet_config(16, 16);
  Rng rng(53);
  xbar::Crossbar xb(cfg, rng);
  const std::vector<double> x = ramp_input(16);
  xb.program_conductances(mixed_conductances(16, 16, cfg.rram, 111));
  for (std::uint64_t round = 0; round < 4; ++round) {
    Rng fresh_rng(54);
    xbar::Crossbar fresh(cfg, fresh_rng);
    fresh.program_conductances(mixed_conductances(16, 16, cfg.rram, 111 + round));
    const std::vector<double> reference = fresh.column_currents(x);

    std::vector<std::vector<double>> results(8);
    parallel_for(results.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t i = begin; i < end; ++i) results[i] = xb.column_currents(x);
    });
    for (std::size_t i = 0; i < results.size(); ++i)
      for (std::size_t c = 0; c < reference.size(); ++c)
        EXPECT_EQ(results[i][c], reference[c])
            << "round " << round << ", lane result " << i << ", column " << c;
    EXPECT_TRUE(xb.nodal_factorized());
    xb.program_conductances(mixed_conductances(16, 16, cfg.rram, 112 + round));  // stale
    EXPECT_FALSE(xb.nodal_factorized());
  }
}

// ---- NodalSolver unit behaviour ---------------------------------------------

TEST_F(NodalTest, SolverDeclinesDegenerateInputs) {
  xbar::NodalSolver solver;
  EXPECT_FALSE(solver.factorize(MatrixD{}, 1.0, 1u << 20));
  MatrixD g(4, 4, 1e-5);
  EXPECT_FALSE(solver.factorize(g, 0.0, 1u << 20));  // no wire conductance
  EXPECT_FALSE(solver.factorize(g, 1.0, 8));         // memory cap
  EXPECT_FALSE(solver.ready());
  EXPECT_TRUE(solver.factorize(g, 1.0, 1u << 20));
  EXPECT_TRUE(solver.ready());
  EXPECT_EQ(solver.node_count(), 32u);
  solver.reset();
  EXPECT_FALSE(solver.ready());
}

TEST_F(NodalTest, RefactorizationReusesFactorStorage) {
  // A refactorization overwrites the previous factor in its storage, and
  // the bytes equal a fresh solver's.  A factorization the byte cap declines
  // releases the storage; the next one still matches a fresh solver.
  const device::RramParams p;
  const MatrixD a = mixed_conductances(12, 10, p, 121);
  const MatrixD b = mixed_conductances(12, 10, p, 122);
  constexpr double kGWire = 2.0e3;
  const std::vector<double> v_in = ramp_input(12);
  xbar::NodalSolver fresh;
  ASSERT_TRUE(fresh.factorize(b, kGWire, 1u << 24));
  std::vector<double> i_fresh(10);
  xbar::NodalSolver::Workspace ws;
  const auto r_fresh = fresh.solve(v_in.data(), i_fresh.data(), ws);

  const auto expect_fresh_bytes = [&](const xbar::NodalSolver& s, const char* what) {
    ASSERT_EQ(s.factor().size(), fresh.factor().size()) << what;
    EXPECT_EQ(std::memcmp(s.factor().data(), fresh.factor().data(),
                          fresh.factor().size() * sizeof(double)),
              0)
        << what;
    std::vector<double> i_col(10);
    const auto r = s.solve(v_in.data(), i_col.data(), ws);
    EXPECT_EQ(std::memcmp(i_col.data(), i_fresh.data(), i_col.size() * sizeof(double)), 0)
        << what;
    EXPECT_EQ(r.residual, r_fresh.residual) << what;
  };

  xbar::NodalSolver reused;
  ASSERT_TRUE(reused.factorize(a, kGWire, 1u << 24));
  const double* storage = reused.factor().data();
  ASSERT_TRUE(reused.factorize(b, kGWire, 1u << 24));
  EXPECT_EQ(reused.factor().data(), storage);
  expect_fresh_bytes(reused, "refactorized");

  EXPECT_FALSE(reused.factorize(a, kGWire, 8));  // declined by the byte cap
  EXPECT_FALSE(reused.ready());
  ASSERT_TRUE(reused.factorize(b, kGWire, 1u << 24));
  expect_fresh_bytes(reused, "refactorized after a decline");
}

TEST_F(NodalTest, SolverIsBitwiseDeterministicAcrossInstances) {
  MatrixD g(16, 12, 1e-5);
  Rng fill(7);
  for (double& v : g.data()) v = fill.uniform(1e-6, 1e-4);
  const std::vector<double> v_in = ramp_input(16);

  xbar::NodalSolver s1, s2;
  ASSERT_TRUE(s1.factorize(g, 2.0e3, 1u << 24));
  ASSERT_TRUE(s2.factorize(g, 2.0e3, 1u << 24));
  std::vector<double> i1(12), i2(12);
  xbar::NodalSolver::Workspace w1, w2;
  const auto r1 = s1.solve(v_in.data(), i1.data(), w1);
  const auto r2 = s2.solve(v_in.data(), i2.data(), w2);
  EXPECT_EQ(r1.residual, r2.residual);
  for (std::size_t c = 0; c < 12; ++c) EXPECT_EQ(i1[c], i2[c]);
}

// ---- packed factor bytes against the row-by-row reference ------------------

// The profile LDL^T one row at a time, as the solver computed it before the
// panel sweep: the same node order, profile, assembly and left-looking loop.
// `vals` is the packed factor, or empty when a pivot breaks down.
struct ReferenceFactor {
  std::size_t rows = 0, cols = 0;
  bool row_major = true;
  std::vector<std::size_t> start, off;
  std::vector<double> vals;

  std::size_t node_v(std::size_t r, std::size_t c) const {
    return 2 * (row_major ? r * cols + c : c * rows + r);
  }
};

ReferenceFactor reference_factor(const MatrixD& g, double gw) {
  ReferenceFactor f;
  const std::size_t rows = f.rows = g.rows(), cols = f.cols = g.cols(), n = 2 * rows * cols;
  f.row_major = cols <= rows;
  const auto node_v = [&](std::size_t r, std::size_t c) { return f.node_v(r, c); };
  std::vector<std::size_t>& start = f.start;
  std::vector<std::size_t>& off = f.off;
  start.assign(n, 0);
  off.assign(n + 1, 0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t iv = node_v(r, c), iu = iv + 1;
      start[iv] = c > 0 ? node_v(r, c - 1) : iv;
      start[iu] = r > 0 ? std::min(iu - 1, node_v(r - 1, c) + 1) : iu - 1;
    }
  }
  std::size_t bw = 0;
  for (std::size_t i = 0; i < n; ++i) {
    off[i + 1] = off[i] + (i - start[i] + 1);
    bw = std::max(bw, i - start[i]);
  }
  std::vector<double> vals(off[n], 0.0);
  const auto entry = [&](std::size_t i, std::size_t j) -> double& {
    return vals[off[i] + (j - start[i])];
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t iv = node_v(r, c), iu = iv + 1;
      const double gc = g(r, c);
      entry(iv, iv) = gc + gw + (c + 1 < cols ? gw : 0.0);
      entry(iu, iu) = gc + gw + (r > 0 ? gw : 0.0);
      entry(iu, iv) = -gc;
      if (c > 0) entry(iv, node_v(r, c - 1)) = -gw;
      if (r > 0) entry(iu, node_v(r - 1, c) + 1) = -gw;
    }
  }
  std::vector<double> t(bw + 1, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t si = start[i];
    double* ri = vals.data() + off[i];
    for (std::size_t j = si; j < i; ++j) {
      const std::size_t sj = start[j];
      const std::size_t k0 = std::max(si, sj);
      const double* a = t.data() + (k0 - si);
      const double* b = vals.data() + off[j] + (k0 - sj);
      double s = ri[j - si];
      for (std::size_t k = 0; k < j - k0; ++k) s -= a[k] * b[k];
      t[j - si] = s;
      ri[j - si] = s / vals[off[j + 1] - 1];
    }
    double d = ri[i - si];
    for (std::size_t k = 0; k < i - si; ++k) d -= t[k] * ri[k];
    if (!(d > 0.0) || !std::isfinite(d)) return f;
    ri[i - si] = d;
  }
  f.vals = std::move(vals);
  return f;
}

// One query's substitution in plain double arithmetic against the reference
// factor: forward pass, diagonal, back pass, then the residual and the
// currents, each in the order the solver runs them.  No lanes, no blocks, no
// solver code.  Returns the residual.
double reference_solve(const ReferenceFactor& f, const MatrixD& g, double gw, const double* v_in,
                       double* i_col) {
  const std::size_t rows = f.rows, cols = f.cols, n = 2 * rows * cols;
  const auto row = [&](std::size_t i) { return f.vals.data() + f.off[i]; };
  std::vector<double> x(n, 0.0);
  for (std::size_t r = 0; r < rows; ++r) x[f.node_v(r, 0)] = gw * v_in[r];
  for (std::size_t i = 0; i < n; ++i) {
    double s = x[i];
    for (std::size_t j = f.start[i]; j < i; ++j) s -= row(i)[j - f.start[i]] * x[j];
    x[i] = s;
  }
  for (std::size_t i = 0; i < n; ++i) x[i] /= row(i)[i - f.start[i]];
  for (std::size_t i = n; i-- > 0;)
    for (std::size_t j = f.start[i]; j < i; ++j) x[j] -= row(i)[j - f.start[i]] * x[i];

  double residual = 0.0;
  std::fill(i_col, i_col + cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      const std::size_t iv = f.node_v(r, c), iu = iv + 1;
      const double gc = g(r, c);
      const double dv = gc + gw + (c + 1 < cols ? gw : 0.0);
      const double du = gc + gw + (r > 0 ? gw : 0.0);
      double ax_v = dv * x[iv] - gc * x[iu];
      if (c > 0) ax_v -= gw * x[f.node_v(r, c - 1)];
      if (c + 1 < cols) ax_v -= gw * x[f.node_v(r, c + 1)];
      const double b_v = c == 0 ? gw * v_in[r] : 0.0;
      double ax_u = du * x[iu] - gc * x[iv];
      if (r > 0) ax_u -= gw * x[f.node_v(r - 1, c) + 1];
      if (r + 1 < rows) ax_u -= gw * x[f.node_v(r + 1, c) + 1];
      residual = std::max(residual, std::abs(b_v - ax_v) / dv);
      residual = std::max(residual, std::abs(0.0 - ax_u) / du);
      i_col[c] += gc * (x[iv] - x[iu]);
    }
  }
  return residual;
}

// Per-segment wire conductance of the configured technology node and pitch.
double wire_conductance(const xbar::CrossbarConfig& cfg) {
  const device::TechNode& node = device::tech_node(cfg.tech);
  return 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
}

// Random 0.5-50 uS cells with about one in twenty open (g = 0, so A holds
// -0.0) and one in twenty stuck on.
MatrixD faulty_conductances(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  const device::RramParams p;
  MatrixD g(rows, cols);
  Rng fill(seed);
  for (double& v : g.data()) {
    v = fill.uniform(p.g_min, p.g_max);
    if (fill.bernoulli(0.05)) v = 0.0;
    else if (fill.bernoulli(0.05)) v = 2.0 * p.g_max;
  }
  return g;
}

void expect_factor_bytes(const xbar::NodalSolver& solver, const ReferenceFactor& ref) {
  ASSERT_FALSE(ref.vals.empty());
  ASSERT_TRUE(solver.ready());
  ASSERT_EQ(solver.factor().size(), ref.vals.size());
  EXPECT_EQ(std::memcmp(solver.factor().data(), ref.vals.data(), ref.vals.size() * sizeof(double)),
            0);
}

// Half-loaded, random with open and stuck-on cells, open corners around a
// stuck-on centre, and all open.
std::vector<MatrixD> factor_cases(std::size_t rows, std::size_t cols) {
  const device::RramParams p;
  MatrixD open_and_stuck = mixed_conductances(rows, cols, p, 5 + rows);
  open_and_stuck(0, 0) = 0.0;
  open_and_stuck(rows - 1, cols - 1) = 0.0;
  open_and_stuck(rows / 2, cols / 2) = 2.0 * p.g_max;
  return {faulty_conductances(rows, cols, 11 + rows * 131 + cols),
          mixed_conductances(rows, cols, p, 3 + cols), open_and_stuck, MatrixD(rows, cols, 0.0)};
}

class NodalFactorBytesTest : public NodalTest, public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(NodalFactorBytesTest, PanelFactorIsByteIdenticalToRowByRowReference) {
  const auto [rows, cols] = GetParam();
  const double gw = wire_conductance(xbar::CrossbarConfig{});
  for (const MatrixD& g : factor_cases(rows, cols)) {
    xbar::NodalSolver solver;
    ASSERT_TRUE(solver.factorize(g, gw, std::size_t{1} << 30));
    expect_factor_bytes(solver, reference_factor(g, gw));
  }
}

const auto kFactorShapes =
    ::testing::Values(ShapeCase{1, 1}, ShapeCase{1, 9}, ShapeCase{9, 1}, ShapeCase{3, 5},
                      ShapeCase{5, 3}, ShapeCase{16, 16}, ShapeCase{17, 33}, ShapeCase{33, 17},
                      ShapeCase{64, 32}, ShapeCase{32, 64}, ShapeCase{64, 64});

std::string shape_name(const ::testing::TestParamInfo<ShapeCase>& info) {
  return std::to_string(info.param.rows) + "x" + std::to_string(info.param.cols);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodalFactorBytesTest, kFactorShapes, shape_name);

// ---- both kernel builds against the scalar reference ------------------------

// The solver's kernels are built twice, portable and AVX2 (nodal_kernels.hpp),
// and the process runs one of them.  Each build is run here directly, through
// the solver's kernel-build constructor: its packed factor must equal the
// row-by-row reference, and the currents and residual of solve() and of
// every block width must equal reference_solve() byte for byte.
template <std::size_t W>
void expect_blocks_match(const xbar::NodalSolver& solver, const MatrixD& v, const MatrixD& want,
                         const std::vector<double>& want_res, const char* isa) {
  MatrixD got(v.rows(), want.cols());
  std::vector<xbar::NodalSolver::Result> res(v.rows());
  xbar::NodalSolver::Workspace ws;
  for (std::size_t q = 0; q < v.rows(); q += W)
    solver.solve_block<W>(v.row_data(q), v.cols(), got.row_data(q), got.cols(), res.data() + q,
                          ws);
  for (std::size_t q = 0; q < v.rows(); ++q) {
    EXPECT_EQ(std::memcmp(got.row_data(q), want.row_data(q), want.cols() * sizeof(double)), 0)
        << isa << ", block of " << W << ", query " << q;
    EXPECT_EQ(bits(res[q].residual), bits(want_res[q]))
        << isa << ", block of " << W << ", query " << q;
  }
}

void expect_build_matches_reference(const xbar::nodal::Kernels& kernels, std::size_t rows,
                                    std::size_t cols) {
  const xbar::CrossbarConfig cfg;
  const double gw = wire_conductance(cfg);
  for (const MatrixD& g : factor_cases(rows, cols)) {
    xbar::NodalSolver solver(kernels);
    ASSERT_TRUE(solver.factorize(g, gw, std::size_t{1} << 30)) << kernels.isa;
    const ReferenceFactor ref = reference_factor(g, gw);
    expect_factor_bytes(solver, ref);

    MatrixD v(kBlock, rows), want(kBlock, cols);
    Rng rng(rows * 977 + cols);
    for (double& x : v.data()) x = rng.uniform(0.0, cfg.read_voltage);
    std::vector<double> want_res(kBlock);
    for (std::size_t q = 0; q < kBlock; ++q)
      want_res[q] = reference_solve(ref, g, gw, v.row_data(q), want.row_data(q));

    xbar::NodalSolver::Workspace ws;
    std::vector<double> got(cols);
    for (std::size_t q = 0; q < kBlock; ++q) {
      const double res = solver.solve(v.row_data(q), got.data(), ws).residual;
      EXPECT_EQ(std::memcmp(got.data(), want.row_data(q), cols * sizeof(double)), 0)
          << kernels.isa << ", solve, query " << q;
      EXPECT_EQ(bits(res), bits(want_res[q])) << kernels.isa << ", solve, query " << q;
    }
    expect_blocks_match<1>(solver, v, want, want_res, kernels.isa);
    expect_blocks_match<2>(solver, v, want, want_res, kernels.isa);
    expect_blocks_match<4>(solver, v, want, want_res, kernels.isa);
    expect_blocks_match<8>(solver, v, want, want_res, kernels.isa);
    expect_blocks_match<16>(solver, v, want, want_res, kernels.isa);
  }
}

class NodalBuildTest : public NodalTest, public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(NodalBuildTest, PortableBuildMatchesScalarReference) {
  const xbar::nodal::Kernels& portable = xbar::nodal::portable_kernels();
  ASSERT_STREQ(portable.isa, "portable");
  expect_build_matches_reference(portable, GetParam().rows, GetParam().cols);
}

TEST_P(NodalBuildTest, Avx2BuildMatchesScalarReference) {
  const xbar::nodal::Kernels* avx2 = xbar::nodal::avx2_kernels();
  if (avx2 == nullptr) GTEST_SKIP() << "no AVX2 build, or this CPU lacks AVX2";
  ASSERT_STREQ(avx2->isa, "avx2");
  expect_build_matches_reference(*avx2, GetParam().rows, GetParam().cols);
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodalBuildTest, kFactorShapes, shape_name);

#if defined(__x86_64__)
// A dropped compile flag or a lost dispatch would otherwise show only as a
// slower solver.
TEST_F(NodalTest, CpuWithAvx2RunsTheAvx2Build) {
  if (!__builtin_cpu_supports("avx2")) GTEST_SKIP() << "this CPU lacks AVX2";
  EXPECT_STREQ(xbar::nodal::active_kernels().isa, "avx2");
}
#endif

// ---- dense physics oracle ---------------------------------------------------

// Column currents of the crossbar network built straight from its
// description, as a dense 2RC x 2RC nodal system solved by Gaussian
// elimination with partial pivoting.  Unknowns: v(r, c) on the row wire and
// u(r, c) on the column wire at each crosspoint.  Each cell ties v to u, each
// wire segment ties neighbours along its wire, the first row-wire segment
// ties v(r, 0) to the driver at v_in[r], and the last column-wire segment ties
// u(R-1, c) to the ADC's virtual ground.
std::vector<double> dense_column_currents(const MatrixD& g, double gw,
                                          const std::vector<double>& v_in) {
  const std::size_t rows = g.rows(), cols = g.cols(), n = 2 * rows * cols;
  const auto v = [&](std::size_t r, std::size_t c) { return r * cols + c; };
  const auto u = [&](std::size_t r, std::size_t c) { return rows * cols + r * cols + c; };
  MatrixD a(n, n, 0.0);
  std::vector<double> b(n, 0.0);
  const auto tie = [&](std::size_t i, std::size_t j, double gij) {
    a(i, i) += gij;
    a(j, j) += gij;
    a(i, j) -= gij;
    a(j, i) -= gij;
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      tie(v(r, c), u(r, c), g(r, c));
      if (c + 1 < cols) tie(v(r, c), v(r, c + 1), gw);
      if (r + 1 < rows) tie(u(r, c), u(r + 1, c), gw);
    }
    a(v(r, 0), v(r, 0)) += gw;
    b[v(r, 0)] += gw * v_in[r];
  }
  for (std::size_t c = 0; c < cols; ++c) a(u(rows - 1, c), u(rows - 1, c)) += gw;

  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    for (std::size_t i = k + 1; i < n; ++i)
      if (std::abs(a(i, k)) > std::abs(a(piv, k))) piv = i;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      std::swap(b[k], b[piv]);
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double f = a(i, k) / a(k, k);
      if (f == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) a(i, j) -= f * a(k, j);
      b[i] -= f * b[k];
    }
  }
  std::vector<double> x(n);
  for (std::size_t i = n; i-- > 0;) {
    double s = b[i];
    for (std::size_t j = i + 1; j < n; ++j) s -= a(i, j) * x[j];
    x[i] = s / a(i, i);
  }
  std::vector<double> i_col(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) i_col[c] += g(r, c) * (x[v(r, c)] - x[u(r, c)]);
  return i_col;
}

// The conductances an array holds after programming, faults and aging.
MatrixD programmed_conductances(const xbar::Crossbar& xb) {
  MatrixD g(xb.rows(), xb.cols());
  for (std::size_t r = 0; r < xb.rows(); ++r)
    for (std::size_t c = 0; c < xb.cols(); ++c) g(r, c) = xb.conductance(r, c);
  return g;
}

class NodalShapeOracleTest : public NodalTest,
                             public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(NodalShapeOracleTest, ColumnCurrentsMatchDenseNodalSolve) {
  const auto [rows, cols] = GetParam();
  auto cfg = quiet_config(rows, cols);
  Rng rng(5);
  xbar::Crossbar xb(cfg, rng);
  MatrixD targets(rows, cols);
  Rng fill(19 + rows * 31 + cols);
  for (double& t : targets.data()) t = fill.uniform(cfg.rram.g_min, cfg.rram.g_max);
  xb.program_conductances(targets);
  xb.inject_stuck_fault(0, cols - 1, 0.0);              // open
  xb.inject_stuck_fault(rows - 1, 0, cfg.rram.g_max);  // stuck on
  const MatrixD g = programmed_conductances(xb);

  // Inputs on the DAC's levels k / (2^bits - 1), so quantisation is exact.
  const double levels = static_cast<double>((1u << cfg.dac.bits) - 1);
  std::vector<double> x(rows), v_in(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    const double k = static_cast<double>((3 * r + 5) % ((1u << cfg.dac.bits)));
    x[r] = k / levels;
    v_in[r] = x[r] * cfg.read_voltage;
  }
  const double gw = wire_conductance(cfg);

  const std::vector<double> got = xb.column_currents(x);
  ASSERT_TRUE(xb.nodal_factorized());
  const std::vector<double> want = dense_column_currents(g, gw, v_in);
  for (std::size_t c = 0; c < cols; ++c)
    EXPECT_LE(std::abs(got[c] - want[c]), 1e-12 * std::abs(want[c]))
        << "column " << c << ": " << got[c] << " vs " << want[c];
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, NodalShapeOracleTest,
    ::testing::Values(ShapeCase{1, 1}, ShapeCase{2, 3}, ShapeCase{3, 2}, ShapeCase{4, 4},
                      ShapeCase{5, 9}, ShapeCase{9, 5}, ShapeCase{8, 8}, ShapeCase{12, 7}),
    [](const ::testing::TestParamInfo<ShapeCase>& info) {
      return std::to_string(info.param.rows) + "x" + std::to_string(info.param.cols);
    });

// ---- Gauss-Seidel reference -------------------------------------------------

// Column currents of the same network by red-black Gauss-Seidel, serial and
// built from the network description like the dense oracle, which cannot
// reach a 64x64 array.  Row wires start at their driver voltages and column
// wires at ground; a sweep relaxes every node of one (r + c) parity, then
// the other, and the solve stops when a sweep's largest node update falls
// below `tol`, or after a fixed budget of sweeps.
struct GaussSeidelResult {
  std::vector<double> i_col;
  std::size_t sweeps = 0;
  bool converged = false;
};

GaussSeidelResult gauss_seidel_column_currents(const MatrixD& g, double gw,
                                               const std::vector<double>& v_in, double tol) {
  constexpr std::size_t kMaxSweeps = 50000;
  const std::size_t rows = g.rows(), cols = g.cols();
  MatrixD v(rows, cols), u(rows, cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) v(r, c) = v_in[r];
  GaussSeidelResult res;
  while (!res.converged && res.sweeps < kMaxSweeps) {
    ++res.sweeps;
    double largest = 0.0;
    for (std::size_t colour = 0; colour < 2; ++colour) {
      for (std::size_t r = 0; r < rows; ++r) {
        for (std::size_t c = (r + colour) & 1u; c < cols; c += 2) {
          // Row node: the cell, the segment to its left (to the driver at
          // c == 0) and the one to its right, if any.
          double num = g(r, c) * u(r, c) + gw * (c == 0 ? v_in[r] : v(r, c - 1));
          double den = g(r, c) + gw;
          if (c + 1 < cols) {
            num += gw * v(r, c + 1);
            den += gw;
          }
          largest = std::max(largest, std::abs(num / den - v(r, c)));
          v(r, c) = num / den;
          // Column node: the cell, the segment above, if any, and the one
          // below (to the ADC's virtual ground in the last row).
          num = g(r, c) * v(r, c) + (r + 1 < rows ? gw * u(r + 1, c) : 0.0);
          den = g(r, c) + gw;
          if (r > 0) {
            num += gw * u(r - 1, c);
            den += gw;
          }
          largest = std::max(largest, std::abs(num / den - u(r, c)));
          u(r, c) = num / den;
        }
      }
    }
    res.converged = largest < tol;
  }
  res.i_col.assign(cols, 0.0);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) res.i_col[c] += g(r, c) * (v(r, c) - u(r, c));
  return res;
}

// The row voltages a readout drives for inputs x: DAC-quantised, scaled by
// the read voltage.
std::vector<double> row_voltages(const xbar::CrossbarConfig& cfg, const std::vector<double>& x) {
  const circuit::DacModel dac(cfg.dac);
  std::vector<double> v(x.size());
  for (std::size_t r = 0; r < x.size(); ++r)
    v[r] = dac.quantise(x[r], 0.0, 1.0) * cfg.read_voltage;
  return v;
}

// The direct answer against the reference within the reference's real
// accuracy.  The direct solve is machine-precision; Gauss-Seidel stops when
// the last sweep's update drops below kNodalTolRel * V, which bounds the
// remaining solution error only up to the convergence-rate amplification
// (error ~ update / (1 - rho), with rho near 1 on the larger arrays) — a few
// parts in 1e4 of the column magnitude in practice.
void expect_matches_gauss_seidel(const xbar::Crossbar& xb, const std::vector<double>& x) {
  const std::vector<double> i_direct = xb.column_currents(x);
  const xbar::CrossbarConfig& cfg = xb.config();
  const GaussSeidelResult gs =
      gauss_seidel_column_currents(programmed_conductances(xb), wire_conductance(cfg),
                                   row_voltages(cfg, x), xbar::kNodalTolRel * cfg.read_voltage);
  ASSERT_TRUE(gs.converged) << "no convergence in " << gs.sweeps << " sweeps";
  EXPECT_GT(gs.sweeps, 1u);
  ASSERT_EQ(i_direct.size(), gs.i_col.size());
  double scale = 0.0;
  for (double i : i_direct) scale = std::max(scale, std::abs(i));
  ASSERT_GT(scale, 0.0);
  for (std::size_t c = 0; c < i_direct.size(); ++c)
    EXPECT_NEAR(i_direct[c], gs.i_col[c], 1e-3 * scale) << "column " << c;
}

class NodalShapeTest : public NodalTest, public ::testing::WithParamInterface<ShapeCase> {};

TEST_P(NodalShapeTest, DirectMatchesGaussSeidel) {
  const auto [rows, cols] = GetParam();
  const auto cfg = quiet_config(rows, cols);
  Rng rng(3);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(rows, cols, cfg.rram, 7 + rows * 131 + cols));
  expect_matches_gauss_seidel(xb, ramp_input(rows));
  EXPECT_TRUE(xb.nodal_factorized());
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodalShapeTest,
                         ::testing::Values(ShapeCase{1, 1}, ShapeCase{1, 8}, ShapeCase{8, 1},
                                           ShapeCase{16, 16}, ShapeCase{64, 64},
                                           ShapeCase{48, 32}, ShapeCase{32, 48}),
                         shape_name);

TEST_F(NodalTest, DirectMatchesGaussSeidelWithFaultsAndAging) {
  const auto cfg = quiet_config(24, 24);
  Rng rng(11);
  xbar::Crossbar xb(cfg, rng);
  xb.program_conductances(mixed_conductances(24, 24, cfg.rram, 99));
  xb.inject_stuck_fault(0, 0, cfg.rram.g_max);  // stuck-on
  xb.inject_stuck_fault(3, 7, 0.0);             // open cell
  xb.inject_stuck_fault(23, 23, cfg.rram.g_min);
  xb.age(3600.0);  // relax the surviving cells
  expect_matches_gauss_seidel(xb, ramp_input(24));
}

// ---- downstream batch users -------------------------------------------------

TEST_F(NodalTest, TiledBatchBitIdenticalToSequentialMvm) {
  xbar::TiledConfig tcfg;
  tcfg.tile = quiet_config(16, 16);
  tcfg.tile.read_noise_rel = 0.005;
  Rng r1(41), r2(41);
  xbar::TiledCrossbar batched(tcfg, 24, 12, r1);
  xbar::TiledCrossbar single(tcfg, 24, 12, r2);
  MatrixD w(24, 12);
  Rng wfill(43);
  for (double& v : w.data()) v = wfill.uniform(-1.0, 1.0);
  batched.program_weights(w);
  single.program_weights(w);

  const MatrixD xs = batch_inputs(3, 24, 44);
  const MatrixD out = batched.mvm_batch(xs);
  for (std::size_t b = 0; b < xs.rows(); ++b) {
    const std::vector<double> x(xs.row_data(b), xs.row_data(b) + 24);
    const auto y = single.mvm(x);
    for (std::size_t j = 0; j < 12; ++j) EXPECT_EQ(out(b, j), y[j]) << b << ',' << j;
  }
}

TEST_F(NodalTest, LshHashBatchBitIdenticalToSequentialHash) {
  auto cfg = quiet_config(32, 32);
  cfg.read_noise_rel = 0.005;
  const MatrixD xs = batch_inputs(4, 32, 48);
  // Plain, then centred: calibrate_centering() makes project_batch subtract
  // each row's own mean times the all-ones response (the MC probe's path).
  for (const bool centred : {false, true}) {
    Rng r1(47), r2(47);
    mann::CrossbarLsh batched(cfg, 16, r1);
    mann::CrossbarLsh single(cfg, 16, r2);
    if (centred) {
      batched.calibrate_centering();
      single.calibrate_centering();
      ASSERT_TRUE(batched.centering_calibrated());
    }

    const MatrixD diffs = batched.project_batch(xs);
    for (std::size_t b = 0; b < xs.rows(); ++b) {
      const std::vector<double> want = single.project(xs.row(b));
      for (std::size_t i = 0; i < want.size(); ++i)
        EXPECT_EQ(bits(diffs(b, i)), bits(want[i]))
            << (centred ? "centred" : "plain") << ", batch row " << b << " bit " << i;
    }
    const auto sigs = batched.hash_batch(xs);
    ASSERT_EQ(sigs.size(), 4u);
    for (std::size_t b = 0; b < xs.rows(); ++b)
      EXPECT_EQ(sigs[b], single.hash(xs.row(b)))
          << (centred ? "centred" : "plain") << ", batch row " << b;
  }
}

}  // namespace
}  // namespace xlds
