// Cross-cutting property tests: randomized invariants checked against
// reference implementations, and parameterised sweeps over the design knobs
// the benches exercise.  These guard the *model properties* the paper's
// conclusions rest on, independent of any particular calibration.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <list>
#include <map>

#include "cam/fefet_cam.hpp"
#include "cam/processor.hpp"
#include "core/pareto.hpp"
#include "device/fefet.hpp"
#include "device/rram.hpp"
#include "device/technology.hpp"
#include "evacam/evacam.hpp"
#include "hdc/model.hpp"
#include "sim/cache.hpp"
#include "sim/event.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "workload/dataset.hpp"
#include "xbar/crossbar.hpp"
#include "xbar/nodal_solver.hpp"

namespace xlds {
namespace {

// ---- cache vs reference LRU model -------------------------------------------

/// Naive reference: a set-associative LRU cache as an std::map of lists.
class ReferenceLru {
 public:
  ReferenceLru(std::size_t sets, std::size_t ways, std::size_t line)
      : sets_(sets), ways_(ways), line_(line) {}

  bool access(sim::Addr addr) {
    const sim::Addr lineaddr = addr / line_;
    const std::size_t set = static_cast<std::size_t>(lineaddr) % sets_;
    auto& entries = sets_map_[set];
    const auto it = std::find(entries.begin(), entries.end(), lineaddr);
    if (it != entries.end()) {
      entries.erase(it);
      entries.push_front(lineaddr);  // most-recently used at the front
      return true;
    }
    entries.push_front(lineaddr);
    if (entries.size() > ways_) entries.pop_back();
    return false;
  }

 private:
  std::size_t sets_, ways_, line_;
  std::map<std::size_t, std::list<sim::Addr>> sets_map_;
};

TEST(Property, CacheMatchesReferenceLru) {
  sim::CacheConfig cfg;
  cfg.size_bytes = 4096;
  cfg.line_bytes = 64;
  cfg.ways = 4;
  sim::Cache cache(cfg);
  ReferenceLru ref(4096 / (64 * 4), 4, 64);

  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    // Mixed pattern: mostly a hot working set, occasionally a cold address.
    const sim::Addr addr = rng.bernoulli(0.8)
                               ? static_cast<sim::Addr>(rng.uniform_u32(8192))
                               : static_cast<sim::Addr>(rng.next_u32());
    ASSERT_EQ(cache.access(addr), ref.access(addr)) << "access " << i << " addr " << addr;
  }
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().misses, 0u);
}

// ---- event queue ordering property -----------------------------------------

TEST(Property, EventQueueIsStableAndOrdered) {
  sim::EventQueue q;
  Rng rng(100);
  std::vector<std::pair<sim::Tick, int>> fired;
  int seq = 0;
  for (int i = 0; i < 500; ++i) {
    const sim::Tick when = rng.uniform_u32(1000);
    const int id = seq++;
    q.schedule(when, [&fired, when, id] { fired.push_back({when, id}); });
  }
  q.run();
  ASSERT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1].first, fired[i].first);
    if (fired[i - 1].first == fired[i].first) {
      EXPECT_LT(fired[i - 1].second, fired[i].second);  // stable ties
    }
  }
}

// ---- Pareto front vs brute force --------------------------------------------

bool ref_dominates(const core::Fom& a, const core::Fom& b) {
  const bool no_worse = a.latency <= b.latency && a.energy <= b.energy &&
                        a.area_mm2 <= b.area_mm2 && a.accuracy >= b.accuracy;
  const bool better = a.latency < b.latency || a.energy < b.energy ||
                      a.area_mm2 < b.area_mm2 || a.accuracy > b.accuracy;
  return no_worse && better;
}

TEST(Property, ParetoFrontMatchesBruteForceOnRandomClouds) {
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<core::ScoredPoint> points(40);
    for (auto& sp : points) {
      sp.fom.latency = rng.uniform(0.1, 10.0);
      sp.fom.energy = rng.uniform(0.1, 10.0);
      sp.fom.area_mm2 = rng.uniform(0.0, 5.0);
      sp.fom.accuracy = rng.uniform(0.5, 1.0);
      sp.fom.feasible = rng.bernoulli(0.9);
    }
    const auto front = core::pareto_front(points);
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (!points[i].fom.feasible) {
        EXPECT_EQ(std::count(front.begin(), front.end(), i), 0);
        continue;
      }
      bool dominated = false;
      for (std::size_t j = 0; j < points.size(); ++j)
        if (j != i && points[j].fom.feasible && ref_dominates(points[j].fom, points[i].fom))
          dominated = true;
      const bool on_front = std::count(front.begin(), front.end(), i) > 0;
      EXPECT_EQ(on_front, !dominated) << "trial " << trial << " point " << i;
    }
  }
}

// ---- FeFET model properties across precisions ------------------------------

class FeFetBitsSweep : public ::testing::TestWithParam<int> {};

TEST_P(FeFetBitsSweep, ErrorProbabilityMonotoneInSigma) {
  device::FeFetParams p;
  p.bits = GetParam();
  double prev = -1.0;
  for (double sigma : {0.02, 0.05, 0.094, 0.15, 0.25}) {
    p.sigma_program = sigma;
    const device::FeFetModel m(p);
    const double err = m.level_error_probability(p.levels() / 2);
    EXPECT_GE(err, prev);
    prev = err;
  }
}

TEST_P(FeFetBitsSweep, SearchVoltagesAreMonotoneAndSubthreshold) {
  device::FeFetParams p;
  p.bits = GetParam();
  const device::FeFetModel m(p);
  double prev = -1e9;
  for (int l = 0; l < p.levels(); ++l) {
    const double v = m.search_voltage(l);
    EXPECT_GT(v, prev);
    EXPECT_LT(v, m.level_vth(l));  // matching device stays off
    prev = v;
  }
}

TEST_P(FeFetBitsSweep, MismatchConductanceGrowsWithDistance) {
  device::FeFetParams p;
  p.bits = GetParam();
  const device::FeFetModel m(p);
  const int L = p.levels();
  // Stored mid-level; conductance of the 'A' device grows with query level
  // beyond the stored one.
  const int stored = L / 2;
  double prev = 0.0;
  for (int q = stored + 1; q < L; ++q) {
    const double g = m.conductance(m.search_voltage(q), m.level_vth(stored));
    EXPECT_GT(g, prev) << "q=" << q;
    prev = g;
  }
}

INSTANTIATE_TEST_SUITE_P(Bits, FeFetBitsSweep, ::testing::Values(1, 2, 3, 4));

// ---- RRAM program-verify across the conductance range ----------------------

class RramTargetSweep : public ::testing::TestWithParam<double> {};

TEST_P(RramTargetSweep, VerifyNeverWorseThanOpenLoop) {
  device::RramParams params;
  const device::RramModel m(params);
  const double target =
      params.g_min + GetParam() * (params.g_max - params.g_min);
  Rng rng(200);
  RunningStats open_loop, closed_loop;
  for (int i = 0; i < 2000; ++i) {
    open_loop.add(std::abs(m.program_once(target, rng) - target));
    closed_loop.add(std::abs(m.program_verify(target, rng) - target));
  }
  EXPECT_LE(closed_loop.mean(), open_loop.mean() + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Targets, RramTargetSweep, ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0));

// ---- crossbar MVM fidelity across sizes -------------------------------------

class XbarSizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(XbarSizeSweep, IdealAnalogErrorScalesWithQuantisation) {
  const std::size_t n = GetParam();
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNone;
  cfg.adc.bits = 12;
  cfg.dac.bits = 8;
  Rng rng(300);
  xbar::Crossbar xb(cfg, rng);
  MatrixD w(n, n / 2);
  Rng data(301);
  for (double& v : w.data()) v = data.uniform(-1.0, 1.0);
  xb.program_weights(w);
  std::vector<double> x(n);
  for (double& v : x) v = data.uniform();
  const auto analog = xb.mvm(x);
  const auto ideal = xb.ideal_mvm(x);
  // Error scales with accumulation depth through the ADC full scale.
  const double bound = static_cast<double>(n) * 0.02;
  for (std::size_t j = 0; j < analog.size(); ++j)
    EXPECT_NEAR(analog[j], ideal[j], bound) << "col " << j;
}

TEST_P(XbarSizeSweep, NodalSolveConservesCurrent) {
  // Kirchhoff sanity: with ideal wires the nodal solver must reproduce the
  // ideal column currents almost exactly (tiny wire resistance).
  const std::size_t n = GetParam();
  xbar::CrossbarConfig cfg;
  cfg.rows = n;
  cfg.cols = n;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.tech = "90nm";  // low wire resistance per cell
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  Rng rng(302);
  xbar::Crossbar nodal(cfg, rng);
  cfg.ir_drop = xbar::IrDropMode::kNone;
  Rng rng2(302);
  xbar::Crossbar ideal(cfg, rng2);
  MatrixD g(n, n, 10e-6);
  nodal.program_conductances(g);
  ideal.program_conductances(g);
  const std::vector<double> x(n, 1.0);
  const auto in = nodal.column_currents(x);
  const auto ii = ideal.column_currents(x);
  for (std::size_t c = 0; c < n; ++c) EXPECT_NEAR(in[c], ii[c], 0.03 * ii[c]);
}

TEST_P(XbarSizeSweep, NodalSolveIsLinearInTheInputs) {
  // Superposition: the network is linear, so the column currents of a sum
  // of two inputs equal the sum of their currents, down to round-off.  One
  // open cell puts a zero conductance (a -0.0 matrix entry) in the factor.
  const std::size_t n = GetParam();
  const xbar::CrossbarConfig cfg;
  MatrixD g(n, n);
  Rng data(303);
  for (double& v : g.data()) v = data.uniform(cfg.rram.g_min, cfg.rram.g_max);
  g(n / 3, n / 2) = 0.0;
  const device::TechNode& node = device::tech_node(cfg.tech);
  const double gw = 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
  xbar::NodalSolver solver;
  ASSERT_TRUE(solver.factorize(g, gw, std::size_t{1} << 30));

  std::vector<double> a(n), b(n), sum(n);
  for (std::size_t r = 0; r < n; ++r) {
    a[r] = data.uniform(0.0, cfg.read_voltage);
    b[r] = data.uniform(0.0, cfg.read_voltage);
    sum[r] = a[r] + b[r];
  }
  std::vector<double> ia(n), ib(n), isum(n);
  xbar::NodalSolver::Workspace ws;
  solver.solve(a.data(), ia.data(), ws);
  solver.solve(b.data(), ib.data(), ws);
  solver.solve(sum.data(), isum.data(), ws);
  for (std::size_t c = 0; c < n; ++c)
    EXPECT_LE(std::abs(ia[c] + ib[c] - isum[c]), 1e-12 * std::abs(isum[c])) << "column " << c;
}

INSTANTIATE_TEST_SUITE_P(Sizes, XbarSizeSweep, ::testing::Values(8, 16, 32, 64));

// ---- power-of-two scaling of the nodal network ------------------------------

struct NodalShape {
  std::size_t rows, cols;
};

class NodalScalingLaw : public ::testing::TestWithParam<NodalShape> {};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

TEST_P(NodalScalingLaw, PowerOfTwoScalingIsExact) {
  // The network is linear and homogeneous, and multiplying by two is exact
  // in binary floating point away from overflow and subnormals.  Doubling
  // every cell conductance and the wire conductance doubles A, each pivot
  // D and the right-hand side but leaves L and the node voltages alone, so
  // every current doubles exactly and the Jacobi-scaled residual does not
  // move.  Doubling the input doubles the node voltages, the currents and
  // the residual.  One open cell puts a -0.0 entry in the factor.
  const auto [rows, cols] = GetParam();
  const xbar::CrossbarConfig cfg;
  MatrixD g(rows, cols);
  Rng data(304);
  for (double& v : g.data()) v = data.uniform(cfg.rram.g_min, cfg.rram.g_max);
  g(rows / 3, cols / 2) = 0.0;
  MatrixD g2 = g;
  for (double& v : g2.data()) v *= 2.0;
  const device::TechNode& node = device::tech_node(cfg.tech);
  const double gw = 1.0 / (node.wire_r_per_m * cfg.cell_pitch_f * node.feature_m);
  std::vector<double> v(rows), v2(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    v[r] = data.uniform(0.0, cfg.read_voltage);
    v2[r] = 2.0 * v[r];
  }

  xbar::NodalSolver base, doubled;
  ASSERT_TRUE(base.factorize(g, gw, std::size_t{1} << 30));
  ASSERT_TRUE(doubled.factorize(g2, 2.0 * gw, std::size_t{1} << 30));
  xbar::NodalSolver::Workspace ws;
  std::vector<double> i(cols), i_g(cols), i_v(cols);
  const double res = base.solve(v.data(), i.data(), ws).residual;
  const double res_g = doubled.solve(v.data(), i_g.data(), ws).residual;
  const double res_v = base.solve(v2.data(), i_v.data(), ws).residual;
  EXPECT_EQ(bits(res_g), bits(res));
  EXPECT_EQ(bits(res_v), bits(2.0 * res));
  for (std::size_t c = 0; c < cols; ++c) {
    EXPECT_EQ(bits(i_g[c]), bits(2.0 * i[c])) << "doubled conductances, column " << c;
    EXPECT_EQ(bits(i_v[c]), bits(2.0 * i[c])) << "doubled input, column " << c;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, NodalScalingLaw,
                         ::testing::Values(NodalShape{1, 1}, NodalShape{9, 33},
                                           NodalShape{33, 9}, NodalShape{17, 33},
                                           NodalShape{64, 64}),
                         [](const ::testing::TestParamInfo<NodalShape>& info) {
                           return std::to_string(info.param.rows) + "x" +
                                  std::to_string(info.param.cols);
                         });

// ---- Eva-CAM monotonicities across nodes ------------------------------------

class EvaCamNodeSweep : public ::testing::TestWithParam<const char*> {};

TEST_P(EvaCamNodeSweep, AreaShrinksWithFeatureSize) {
  evacam::CamDesignSpec spec;
  spec.device = device::DeviceKind::kRram;
  spec.cell = evacam::CellType::k2T2R;
  spec.tech = GetParam();
  spec.words = 1024;
  spec.bits = 64;
  spec.subarray_rows = 256;
  spec.subarray_cols = 64;
  const evacam::CamFom fom = evacam::EvaCam(spec).evaluate();
  EXPECT_GT(fom.area_m2, 0.0);

  // Compare against the coarsest node as the anchor.
  evacam::CamDesignSpec anchor = spec;
  anchor.tech = "130nm";
  if (spec.tech != "130nm") {
    EXPECT_LT(fom.area_m2, evacam::EvaCam(anchor).evaluate().area_m2);
  }
}

INSTANTIATE_TEST_SUITE_P(Nodes, EvaCamNodeSweep,
                         ::testing::Values("130nm", "90nm", "65nm", "40nm", "22nm"));

// ---- HDC accuracy monotone in hypervector dimensionality --------------------

TEST(Property, HdcAccuracyImprovesWithDimensionality) {
  workload::GaussianClustersSpec spec;
  spec.n_classes = 10;
  spec.dim = 64;
  spec.train_per_class = 15;
  spec.test_per_class = 10;
  spec.separation = 4.0;
  const auto ds = workload::make_gaussian_clusters(spec, 400);

  double sum_small = 0.0, sum_large = 0.0;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    Rng rng_a(500 + seed), rng_b(500 + seed);
    hdc::HdcConfig small;
    small.hv_dim = 64;
    small.element_bits = 2;
    hdc::HdcConfig large = small;
    large.hv_dim = 2048;
    hdc::HdcModel ms(small, ds.dim, ds.n_classes, rng_a);
    hdc::HdcModel ml(large, ds.dim, ds.n_classes, rng_b);
    ms.train(ds.train_x, ds.train_y);
    ml.train(ds.train_x, ds.train_y);
    sum_small += ms.accuracy(ds.test_x, ds.test_y);
    sum_large += ml.accuracy(ds.test_x, ds.test_y);
  }
  EXPECT_GT(sum_large, sum_small);
}

// ---- CAM sensing: sensed distance is a monotone function of ideal ----------

TEST(Property, CamSensedDistanceMonotoneUnderIdealConditions) {
  cam::FeFetCamConfig cfg;
  cfg.fefet.bits = 2;
  cfg.rows = 16;
  cfg.cols = 16;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cfg.sense_levels = 512;
  Rng rng(600);
  cam::FeFetCamArray cam(cfg, rng);
  Rng data(601);
  std::vector<int> base(16);
  for (int& d : base) d = static_cast<int>(data.uniform_u32(4));
  // Rows at increasing ideal distance from the query.
  std::vector<int> word = base;
  for (std::size_t r = 0; r < 16; ++r) {
    cam.write_word(r, word);
    // Perturb one more cell for the next row.
    if (r < 15) word[r] = (word[r] + 1) % 4;
  }
  const cam::SearchResult res = cam.search(base);
  for (std::size_t r = 1; r < 16; ++r)
    EXPECT_GE(res.sensed_distance[r], res.sensed_distance[r - 1]) << "row " << r;
  EXPECT_EQ(res.best_row, 0u);
}

// ---- CAM processor vs reference boolean evaluation ---------------------------

TEST(Property, CamProcessorMatchesReferenceOnRandomTruthTables) {
  cam::RramTcamConfig cfg;
  cfg.rows = 24;
  cfg.cols = 8;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cfg.sense_levels = 256;
  Rng rng(800);
  cam::CamProcessor proc(cfg, rng);

  Rng data(801);
  std::vector<std::vector<int>> rows(24, std::vector<int>(8, 0));
  for (auto& row : rows) {
    for (std::size_t c = 0; c < 3; ++c) row[c] = data.bernoulli(0.5) ? 1 : 0;
    // columns 3..7 start at 0 (destinations)
  }
  for (std::size_t r = 0; r < rows.size(); ++r) proc.load_row(r, rows[r]);

  for (int trial = 0; trial < 12; ++trial) {
    // Random 3-input truth table into a random destination column (3..7).
    std::vector<int> tt(8);
    for (int& v : tt) v = data.bernoulli(0.5) ? 1 : 0;
    const std::size_t dst = 3 + data.uniform_u32(5);
    proc.apply(dst, {0, 1, 2}, tt);
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const std::size_t idx = static_cast<std::size_t>(proc.bit(r, 0)) |
                              (static_cast<std::size_t>(proc.bit(r, 1)) << 1) |
                              (static_cast<std::size_t>(proc.bit(r, 2)) << 2);
      EXPECT_EQ(proc.bit(r, dst), tt[idx]) << "trial " << trial << " row " << r;
    }
  }
}

// ---- dataset generator statistics ------------------------------------------

TEST(Property, DatasetSeparationControlsCentroidDistance) {
  // The advertised semantics: expected distance between class means is
  // separation * within_sigma.
  workload::GaussianClustersSpec spec;
  spec.n_classes = 12;
  spec.dim = 64;
  spec.train_per_class = 40;
  spec.test_per_class = 1;
  spec.separation = 6.0;
  spec.within_sigma = 0.05;
  const auto ds = workload::make_gaussian_clusters(spec, 700);

  // Estimate class means from the training split.
  std::vector<std::vector<double>> means(spec.n_classes, std::vector<double>(spec.dim, 0.0));
  std::vector<double> counts(spec.n_classes, 0.0);
  for (std::size_t i = 0; i < ds.train_x.size(); ++i) {
    for (std::size_t d = 0; d < spec.dim; ++d) means[ds.train_y[i]][d] += ds.train_x[i][d];
    counts[ds.train_y[i]] += 1.0;
  }
  for (std::size_t c = 0; c < spec.n_classes; ++c)
    for (std::size_t d = 0; d < spec.dim; ++d) means[c][d] /= counts[c];

  RunningStats pairwise;
  for (std::size_t a = 0; a < spec.n_classes; ++a) {
    for (std::size_t b = a + 1; b < spec.n_classes; ++b) {
      double d2 = 0.0;
      for (std::size_t d = 0; d < spec.dim; ++d) {
        const double delta = means[a][d] - means[b][d];
        d2 += delta * delta;
      }
      pairwise.add(std::sqrt(d2));
    }
  }
  const double expected = spec.separation * spec.within_sigma;
  EXPECT_NEAR(pairwise.mean(), expected, 0.35 * expected);
}

}  // namespace
}  // namespace xlds
