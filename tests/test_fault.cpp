// Unit tests for the cross-layer fault subsystem: FaultMap generation
// (determinism at any thread count), line-fault folding, graceful-degradation
// policies (spare remapping, yield), array-level injection semantics
// (crossbar and CAMs), the nodal-solve fallback, the nvsim migration, a
// small end-to-end resilience sweep, and the resilience probe's pinned
// report bytes, failure order and context-cache counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "cam/fefet_cam.hpp"
#include "cam/rram_tcam.hpp"
#include "fault/fault_map.hpp"
#include "fault/policy.hpp"
#include "fault/resilience.hpp"
#include "fault/weight_faults.hpp"
#include "nn/network.hpp"
#include "nvsim/explorer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace xlds {
namespace {

using fault::CellFault;
using fault::FaultMap;
using fault::FaultSpec;
using fault::GracefulPolicies;
using fault::LineFault;

/// Restores the pool to the environment default after each test so thread
/// overrides never leak across test cases.
class FaultTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

// ---- FaultSpec ------------------------------------------------------------

TEST_F(FaultTest, SpecScaledAndMixedAreConsistent) {
  const FaultSpec mix = FaultSpec::mixed(0.1);
  EXPECT_DOUBLE_EQ(mix.cell_fault_rate(), 0.1);
  EXPECT_GT(mix.wordline_open_rate, 0.0);
  EXPECT_GT(mix.senseamp_dead_rate, 0.0);

  const FaultSpec half = mix.scaled(0.5);
  EXPECT_DOUBLE_EQ(half.stuck_on_rate, 0.5 * mix.stuck_on_rate);
  EXPECT_DOUBLE_EQ(half.bitline_short_rate, 0.5 * mix.bitline_short_rate);

  const FaultSpec zero = mix.scaled(0.0);
  EXPECT_DOUBLE_EQ(zero.cell_fault_rate(), 0.0);
  EXPECT_DOUBLE_EQ(zero.senseamp_dead_rate, 0.0);

  // Huge factors clamp to valid probabilities and keep pair splits legal.
  const FaultSpec big = mix.scaled(1e6);
  EXPECT_LE(big.stuck_on_rate + big.stuck_off_rate, 1.0 + 1e-12);
  EXPECT_LE(big.wordline_open_rate + big.wordline_short_rate, 1.0 + 1e-12);
}

// ---- FaultMap generation --------------------------------------------------

TEST_F(FaultTest, GenerateIsThreadCountInvariant) {
  const FaultSpec spec = FaultSpec::mixed(0.05);

  set_parallel_threads(1);
  Rng r1(42);
  const FaultMap a = FaultMap::generate(96, 80, spec, r1);

  set_parallel_threads(8);
  Rng r2(42);
  const FaultMap b = FaultMap::generate(96, 80, spec, r2);

  EXPECT_TRUE(a == b);
  // The parent stream advanced identically too.
  EXPECT_DOUBLE_EQ(r1.uniform(), r2.uniform());
}

TEST_F(FaultTest, GenerateMatchesRatesStatistically) {
  Rng rng(7);
  const FaultMap map = FaultMap::generate(200, 200, FaultSpec::uniform_stuck(0.1), rng);
  std::size_t on = 0, off = 0;
  for (std::size_t r = 0; r < 200; ++r) {
    for (std::size_t c = 0; c < 200; ++c) {
      if (map.cell(r, c) == CellFault::kStuckOn) ++on;
      if (map.cell(r, c) == CellFault::kStuckOff) ++off;
    }
  }
  // 40000 cells at 5 % each: ~2000 per mechanism, sigma ~44.
  EXPECT_NEAR(static_cast<double>(on), 2000.0, 300.0);
  EXPECT_NEAR(static_cast<double>(off), 2000.0, 300.0);
}

TEST_F(FaultTest, EffectiveFoldsLineFaultsIntoCells) {
  FaultMap map(4, 6);
  map.set_row_fault(1, LineFault::kOpen, /*break_at=*/3);
  map.set_row_fault(2, LineFault::kShort);
  map.set_col_fault(5, LineFault::kShort);
  map.set_cell(0, 0, CellFault::kStuckOn);

  EXPECT_EQ(map.effective(0, 0), CellFault::kStuckOn);
  EXPECT_EQ(map.effective(1, 2), CellFault::kNone);   // before the break
  EXPECT_EQ(map.effective(1, 3), CellFault::kOpen);   // at/after the break
  EXPECT_EQ(map.effective(1, 5), CellFault::kOpen);
  for (std::size_t c = 0; c < 6; ++c) EXPECT_EQ(map.effective(2, c), CellFault::kOpen);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(map.effective(r, 5), CellFault::kOpen);
  // row2 (6) + col5 (4) + row1 beyond break (3) + (0,0), minus the shared
  // crossings (2,5) and (1,5).
  EXPECT_EQ(map.fault_count(), 6u + 4u + 3u + 1u - 2u);
}

// ---- spare remapping ------------------------------------------------------

TEST_F(FaultTest, SpareRemapHidesFaultsWithinBudget) {
  // 4x4 logical + 2 spare rows; faults confined to two logical rows.
  FaultMap physical(6, 4);
  physical.set_cell(0, 1, CellFault::kStuckOn);
  physical.set_cell(2, 3, CellFault::kStuckOff);

  const fault::RemapPlan plan = fault::plan_spare_remap(physical, 4, 4);
  EXPECT_EQ(plan.remapped_rows, 2u);
  EXPECT_EQ(plan.residual_faults, 0u);
  EXPECT_EQ(plan.row_of[0], 4u);
  EXPECT_EQ(plan.row_of[2], 5u);
  EXPECT_EQ(plan.row_of[1], 1u);

  const FaultMap residual = fault::residual_fault_map(physical, plan);
  EXPECT_TRUE(residual.fault_free());
}

TEST_F(FaultTest, RemapIdentityOnCrossbar) {
  // A zero-residual remapped array must behave bit-for-bit like a fault-free
  // one: apply_fault_map consumes no RNG and a clean map pins nothing.
  FaultMap physical(10, 8);
  physical.set_cell(3, 2, CellFault::kStuckOn);
  physical.set_row_sense_dead(5, true);
  const fault::RemapPlan plan = fault::plan_spare_remap(physical, 8, 8);
  const FaultMap residual = fault::residual_fault_map(physical, plan);
  ASSERT_TRUE(residual.fault_free());

  xbar::CrossbarConfig cfg;
  cfg.rows = 8;
  cfg.cols = 8;
  cfg.apply_variation = true;
  Rng ra(11), rb(11);
  xbar::Crossbar clean(cfg, ra);
  xbar::Crossbar remapped(cfg, rb);
  remapped.apply_fault_map(residual);

  MatrixD g(8, 8, 20e-6);
  clean.program_conductances(g);
  remapped.program_conductances(g);
  const std::vector<double> x(8, 1.0);
  const auto ic = clean.column_currents(x);
  const auto ir = remapped.column_currents(x);
  for (std::size_t c = 0; c < 8; ++c) EXPECT_EQ(ic[c], ir[c]) << "col " << c;
}

TEST_F(FaultTest, RemapIdentityOnFefetCam) {
  FaultMap physical(6, 8);
  physical.set_cell(1, 0, CellFault::kOpen);
  const fault::RemapPlan plan = fault::plan_spare_remap(physical, 4, 8);
  const FaultMap residual = fault::residual_fault_map(physical, plan);
  ASSERT_TRUE(residual.fault_free());

  cam::FeFetCamConfig cfg;
  cfg.rows = 4;
  cfg.cols = 8;
  Rng ra(21), rb(21);
  cam::FeFetCamArray clean(cfg, ra);
  cam::FeFetCamArray remapped(cfg, rb);
  remapped.apply_fault_map(residual);

  Rng word_rng(5);
  std::vector<std::vector<int>> words(4, std::vector<int>(8));
  for (auto& w : words)
    for (int& d : w) d = static_cast<int>(word_rng.uniform_u32(8));
  for (std::size_t r = 0; r < 4; ++r) {
    clean.write_word(r, words[r]);
    remapped.write_word(r, words[r]);
  }
  const cam::SearchResult sc = clean.search(words[2]);
  const cam::SearchResult sr = remapped.search(words[2]);
  EXPECT_EQ(sc.best_row, sr.best_row);
  for (std::size_t r = 0; r < 4; ++r)
    EXPECT_EQ(sc.sensed_distance[r], sr.sensed_distance[r]) << "row " << r;
}

// ---- yield ----------------------------------------------------------------

TEST_F(FaultTest, YieldIsPerfectWithoutFaultsAndDegradesWithRate) {
  GracefulPolicies none;
  Rng rng(31);
  const auto clean = fault::estimate_yield(32, 32, FaultSpec{}, none, 0.0, 50, rng);
  EXPECT_DOUBLE_EQ(clean.yield, 1.0);
  EXPECT_DOUBLE_EQ(clean.mean_residual_fraction, 0.0);

  double prev = 1.1;
  for (double rate : {0.0005, 0.005, 0.05}) {
    Rng r(32);
    const auto est =
        fault::estimate_yield(32, 32, FaultSpec::mixed(rate), none, 0.002, 200, r);
    EXPECT_LE(est.yield, prev + 0.05) << "rate " << rate;
    prev = est.yield;
  }
}

TEST_F(FaultTest, SparesImproveYield) {
  const FaultSpec spec = FaultSpec::mixed(0.002);
  GracefulPolicies none;
  GracefulPolicies spares;
  spares.spare_rows = 4;
  spares.spare_cols = 4;
  Rng r1(33), r2(33);
  const auto y_none = fault::estimate_yield(32, 32, spec, none, 0.0005, 300, r1);
  const auto y_sp = fault::estimate_yield(32, 32, spec, spares, 0.0005, 300, r2);
  EXPECT_GT(y_sp.yield, y_none.yield);
}

TEST_F(FaultTest, YieldIsThreadCountInvariant) {
  const FaultSpec spec = FaultSpec::mixed(0.01);
  GracefulPolicies pol;
  pol.spare_rows = 2;

  set_parallel_threads(1);
  Rng r1(34);
  const auto a = fault::estimate_yield(24, 24, spec, pol, 0.01, 100, r1);
  set_parallel_threads(8);
  Rng r2(34);
  const auto b = fault::estimate_yield(24, 24, spec, pol, 0.01, 100, r2);
  EXPECT_EQ(a.yield, b.yield);
  EXPECT_EQ(a.mean_residual_fraction, b.mean_residual_fraction);
}

TEST_F(FaultTest, PolicyCostReflectsSparesAndRequery) {
  GracefulPolicies pol;
  pol.spare_rows = 8;
  pol.spare_cols = 8;
  pol.requery_votes = 3;
  const fault::PolicyCost cost = fault::policy_cost(pol, 64, 64);
  EXPECT_DOUBLE_EQ(cost.area_factor, (72.0 * 72.0) / (64.0 * 64.0));
  EXPECT_DOUBLE_EQ(cost.latency_factor, 3.0);
  EXPECT_DOUBLE_EQ(cost.energy_factor, 3.0);
  EXPECT_THROW(fault::policy_cost(GracefulPolicies{.requery_votes = 2}, 8, 8),
               PreconditionError);
}

// ---- crossbar injection ---------------------------------------------------

TEST_F(FaultTest, CrossbarFaultMapPinsConductances) {
  Rng rng(51);
  xbar::CrossbarConfig cfg;
  cfg.rows = 4;
  cfg.cols = 4;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = xbar::IrDropMode::kNone;
  xbar::Crossbar xb(cfg, rng);
  MatrixD g(4, 4, 30e-6);
  xb.program_conductances(g);

  FaultMap map(4, 4);
  map.set_cell(0, 0, CellFault::kStuckOn);
  map.set_cell(1, 1, CellFault::kStuckOff);
  map.set_cell(2, 2, CellFault::kOpen);
  map.set_col_sense_dead(3, true);
  xb.apply_fault_map(map);

  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), cfg.rram.g_max);
  EXPECT_DOUBLE_EQ(xb.conductance(1, 1), cfg.rram.g_min);
  EXPECT_DOUBLE_EQ(xb.conductance(2, 2), 0.0);
  EXPECT_DOUBLE_EQ(xb.conductance(3, 3), 30e-6);  // untouched
  EXPECT_EQ(xb.stuck_cell_count(), 3u);
  EXPECT_EQ(xb.dead_adc_lanes(), 1u);

  // Stuck cells ignore reprogramming; the dead lane reads zero current.
  xb.program_conductances(g);
  EXPECT_DOUBLE_EQ(xb.conductance(0, 0), cfg.rram.g_max);
  const auto currents = xb.column_currents(std::vector<double>(4, 1.0));
  EXPECT_DOUBLE_EQ(currents[3], 0.0);
  EXPECT_GT(currents[0], 0.0);
}

// ---- CAM injection --------------------------------------------------------

cam::FeFetCamConfig quiet_cam(std::size_t rows, std::size_t cols) {
  cam::FeFetCamConfig cfg;
  cfg.rows = rows;
  cfg.cols = cols;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  return cfg;
}

TEST_F(FaultTest, FefetCamStuckCellsBiasTheDistance) {
  Rng rng(61);
  cam::FeFetCamArray arr(quiet_cam(2, 8), rng);
  const std::vector<int> word0(8, 0);
  const std::vector<int> word1(8, 7);
  arr.write_word(0, word0);
  arr.write_word(1, word1);

  // Baseline: searching word0 matches row 0 at distance 0, row 1 far away.
  const cam::SearchResult base = arr.search(word0);
  EXPECT_EQ(base.best_row, 0u);
  EXPECT_EQ(base.sensed_distance[0], 0.0);
  EXPECT_GT(base.sensed_distance[1], 0.0);

  // Stuck-off row 1 stops conducting entirely: a permanent (false) match.
  FaultMap off_map(2, 8);
  for (std::size_t c = 0; c < 8; ++c) off_map.set_cell(1, c, CellFault::kStuckOff);
  arr.apply_fault_map(off_map);
  EXPECT_EQ(arr.faulty_cell_count(), 8u);
  EXPECT_EQ(arr.search(word0).sensed_distance[1], 0.0);

  // A stuck-on cell pulls the matchline of the true row: distance > 0.
  FaultMap on_map(2, 8);
  on_map.set_cell(0, 4, CellFault::kStuckOn);
  arr.apply_fault_map(on_map);
  EXPECT_GT(arr.search(word0).sensed_distance[0], 0.0);
}

TEST_F(FaultTest, FefetCamDeadSenseAmpNeverWins) {
  Rng rng(62);
  cam::FeFetCamArray arr(quiet_cam(3, 8), rng);
  const std::vector<int> word(8, 3);
  for (std::size_t r = 0; r < 3; ++r) arr.write_word(r, word);

  FaultMap map(3, 8);
  map.set_row_sense_dead(0, true);
  arr.apply_fault_map(map);
  EXPECT_EQ(arr.dead_sense_rows(), 1u);

  const cam::SearchResult res = arr.search(word);
  EXPECT_NE(res.best_row, 0u);
  EXPECT_GT(res.sensed_distance[0], res.sensed_distance[1]);  // full scale
}

TEST_F(FaultTest, RramTcamFaultSemantics) {
  Rng rng(63);
  cam::RramTcamConfig cfg;
  cfg.rows = 2;
  cfg.cols = 8;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  cam::RramTcamArray arr(cfg, rng);
  const std::vector<int> ones(8, 1);
  const std::vector<int> zeros(8, 0);
  arr.write_word(0, ones);
  arr.write_word(1, zeros);

  EXPECT_EQ(arr.search(ones).sensed_distance[1], 8.0);

  // Stuck-off row 1: never conducts, reads as a full match for any query.
  FaultMap map(2, 8);
  for (std::size_t c = 0; c < 8; ++c) map.set_cell(1, c, CellFault::kStuckOff);
  map.set_cell(0, 0, CellFault::kStuckOn);  // permanent mismatch unit on row 0
  arr.apply_fault_map(map);
  const cam::SearchResult res = arr.search(ones);
  EXPECT_EQ(res.sensed_distance[1], 0.0);
  EXPECT_GE(res.sensed_distance[0], 1.0);

  // Writes cannot heal pinned cells.
  arr.write_word(1, ones);
  EXPECT_EQ(arr.search(zeros).sensed_distance[1], 0.0);
}

TEST_F(FaultTest, AgeZeroIsANoOpAndRetentionDriftGrows) {
  Rng rng(64);
  cam::FeFetCamConfig cfg = quiet_cam(2, 8);
  cam::FeFetCamArray arr(cfg, rng);
  const std::vector<int> word{0, 1, 2, 3, 4, 5, 6, 7};
  arr.write_word(0, word);
  arr.write_word(1, word);
  const cam::SearchResult before = arr.search(word);
  arr.age(0.0);
  const cam::SearchResult after = arr.search(word);
  for (std::size_t r = 0; r < 2; ++r)
    EXPECT_EQ(before.sensed_distance[r], after.sensed_distance[r]);

  // FeFET retention walk amplitude grows with log-time.
  device::FeFetModel model(cfg.fefet);
  double short_sq = 0.0, long_sq = 0.0;
  Rng ra(65), rb(65);
  for (int i = 0; i < 400; ++i) {
    const double v0 = 0.5 * (cfg.fefet.vth_low + cfg.fefet.vth_high);
    const double ds = model.retain(v0, 10.0, ra) - v0;
    const double dl = model.retain(v0, 1e8, rb) - v0;
    short_sq += ds * ds;
    long_sq += dl * dl;
  }
  EXPECT_GT(long_sq, short_sq);
  Rng rc(66);
  EXPECT_DOUBLE_EQ(model.retain(1.0, 0.0, rc), 1.0);
}

// ---- weight faults / nvsim migration --------------------------------------

TEST_F(FaultTest, WearoutBerMatchesLegacyFormulaAndCaps) {
  const fault::WearoutBer ber;
  EXPECT_DOUBLE_EQ(ber.at(0.0, 0.0), ber.base_ber);
  const double expect =
      ber.base_ber + ber.base_ber * std::expm1(12.0 * 0.5) + ber.base_ber * std::expm1(12.0 * 0.25);
  EXPECT_DOUBLE_EQ(ber.at(0.5, 0.25), expect);
  EXPECT_DOUBLE_EQ(ber.at(10.0, 10.0), 0.5);

  // The nvsim FaultModel delegates here: identical numbers via the traits.
  nvsim::FaultModel legacy;
  device::DeviceTraits dev{};
  dev.retention_s = 1e8;
  dev.endurance_cycles = 1e6;
  EXPECT_DOUBLE_EQ(legacy.bit_error_rate(dev, 0.5e8, 0.25e6), expect);
}

TEST_F(FaultTest, NvsimInjectionDelegatesToFaultPrimitive) {
  Rng net_rng(71);
  nn::Network a = nn::make_small_cnn(12, 4, 8, net_rng);
  Rng net_rng2(71);
  nn::Network b = nn::make_small_cnn(12, 4, 8, net_rng2);

  Rng fr1(72), fr2(72);
  const std::size_t flips_legacy = nvsim::inject_weight_faults(a, 0.05, fr1);
  const std::size_t flips_fault = fault::flip_quantised_weight_bits(b, 0.05, fr2);
  EXPECT_EQ(flips_legacy, flips_fault);
  EXPECT_GT(flips_fault, 0u);
  std::vector<double> wa, wb;
  a.visit_weights([&](double& w) { wa.push_back(w); });
  b.visit_weights([&](double& w) { wb.push_back(w); });
  EXPECT_EQ(wa, wb);

  Rng fr3(73);
  EXPECT_EQ(fault::flip_quantised_weight_bits(a, 0.0, fr3), 0u);
}

TEST_F(FaultTest, StuckWeightsPinToFullScaleOrZero) {
  Rng net_rng(74);
  nn::Network net = nn::make_small_cnn(12, 4, 8, net_rng);
  double w_max = 0.0;
  net.visit_weights([&](double& w) { w_max = std::max(w_max, std::abs(w)); });

  Rng rng(75);
  const fault::WeightFaultCounts counts = fault::pin_stuck_weights(net, 0.05, 0.05, rng);
  EXPECT_GT(counts.stuck_on, 0u);
  EXPECT_GT(counts.stuck_off, 0u);
  std::size_t at_full = 0, at_zero = 0;
  net.visit_weights([&](double& w) {
    if (w == 0.0) ++at_zero;
    if (std::abs(w) == w_max) ++at_full;
  });
  EXPECT_GE(at_zero, counts.stuck_off);
  EXPECT_GE(at_full, counts.stuck_on);
}

// ---- resilience sweep -----------------------------------------------------

fault::ResilienceConfig small_sweep_config() {
  fault::ResilienceConfig cfg;
  cfg.fault_rates = {0.0, 0.08, 0.3};
  cfg.time_points_s = {0.0, 1.0e6};
  cfg.seeds = 2;
  cfg.base_seed = 99;
  cfg.hdc.data.n_classes = 4;
  cfg.hdc.data.dim = 16;
  cfg.hdc.data.train_per_class = 12;
  cfg.hdc.data.test_per_class = 6;
  cfg.hdc.model.hv_dim = 128;
  cfg.hdc.subarray.cols = 64;
  cfg.hdc.max_test_samples = 24;
  cfg.mann.embedding = 16;
  cfg.mann.signature_bits = 24;
  cfg.mann.episodes = 1;
  cfg.mann.n_way = 3;
  cfg.mann.k_shot = 1;
  cfg.mann.queries_per_class = 2;
  cfg.mann.pretrain_classes = 4;
  cfg.mann.pretrain_per_class = 8;
  cfg.mann.pretrain_epochs = 8;
  cfg.yield_trials = 50;
  return cfg;
}

TEST_F(FaultTest, ResilienceSweepDegradesWithFaultRateAndIsDeterministic) {
  fault::clear_resilience_caches();
  const fault::ResilienceConfig cfg = small_sweep_config();
  const std::size_t n_times = cfg.time_points_s.size();

  set_parallel_threads(8);
  const fault::ResilienceReport report = fault::ResilienceEvaluator(cfg).run();
  ASSERT_EQ(report.points.size(), cfg.fault_rates.size() * n_times);
  ASSERT_EQ(report.yield.size(), cfg.fault_rates.size());

  // Accuracy at each time point is non-increasing in fault rate on average
  // (small slack for sampling noise on successive rates; the ends must
  // separate decisively).
  for (std::size_t ti = 0; ti < n_times; ++ti) {
    for (std::size_t ri = 1; ri < cfg.fault_rates.size(); ++ri) {
      const auto& lo = report.at(ri - 1, ti, n_times);
      const auto& hi = report.at(ri, ti, n_times);
      EXPECT_LE(hi.hdc_accuracy, lo.hdc_accuracy + 0.15) << "rate step " << ri;
      EXPECT_LE(hi.mann_accuracy, lo.mann_accuracy + 0.25) << "rate step " << ri;
    }
    const auto& first = report.at(0, ti, n_times);
    const auto& last = report.at(cfg.fault_rates.size() - 1, ti, n_times);
    EXPECT_GT(first.hdc_accuracy, last.hdc_accuracy);
    EXPECT_GE(first.mann_accuracy, last.mann_accuracy);
  }

  // Fault-free points are healthy; heavily faulted arrays have residuals.
  EXPECT_GT(report.at(0, 0, n_times).hdc_accuracy, 0.7);
  EXPECT_DOUBLE_EQ(report.at(0, 0, n_times).residual_fraction, 0.0);
  EXPECT_GT(report.at(2, 0, n_times).residual_fraction, 0.0);

  // Yield degrades along the same axis.
  EXPECT_DOUBLE_EQ(report.yield.front().yield, 1.0);
  EXPECT_LT(report.yield.back().yield, report.yield.front().yield + 1e-12);

  // Thread-count invariance: the whole report is bit-identical serially.
  set_parallel_threads(1);
  const fault::ResilienceReport serial = fault::ResilienceEvaluator(cfg).run();
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    EXPECT_EQ(report.points[i].hdc_accuracy, serial.points[i].hdc_accuracy) << i;
    EXPECT_EQ(report.points[i].mann_accuracy, serial.points[i].mann_accuracy) << i;
    EXPECT_EQ(report.points[i].residual_fraction, serial.points[i].residual_fraction) << i;
  }
  for (std::size_t i = 0; i < report.yield.size(); ++i)
    EXPECT_EQ(report.yield[i].yield, serial.yield[i].yield) << i;

  // The second run served every seed context from the memo cache.
  const fault::ResilienceCacheStats stats = fault::resilience_cache_stats();
  EXPECT_EQ(stats.lookups, 2u * 2u * cfg.seeds);
  EXPECT_EQ(stats.hits, 2u * cfg.seeds);
}

TEST_F(FaultTest, ResiliencePoliciesCarryTheirCost) {
  fault::ResilienceConfig cfg = small_sweep_config();
  cfg.fault_rates = {0.0};
  cfg.time_points_s = {0.0};
  cfg.seeds = 1;
  cfg.policies.spare_rows = 4;
  cfg.policies.spare_cols = 4;
  cfg.policies.requery_votes = 3;
  const fault::ResilienceReport report = fault::ResilienceEvaluator(cfg).run();
  EXPECT_GT(report.cost.area_factor, 1.0);
  EXPECT_DOUBLE_EQ(report.cost.latency_factor, 3.0);
}

// ---- resilience probe: pinned bytes and serial semantics ------------------

/// FNV-1a-64 over every double of a report: points, yield, policy cost.
std::uint64_t report_digest(const fault::ResilienceReport& r) {
  std::uint64_t h = util::kFnvOffsetBasis;
  const auto mix = [&h](double v) { h = util::fnv1a64(&v, sizeof v, h); };
  for (const fault::ResiliencePoint& p : r.points) {
    mix(p.fault_rate);
    mix(p.time_s);
    mix(p.hdc_accuracy);
    mix(p.mann_accuracy);
    mix(p.residual_fraction);
  }
  for (const fault::YieldEstimate& y : r.yield) {
    mix(y.yield);
    mix(y.mean_residual_fraction);
  }
  mix(r.cost.area_factor);
  mix(r.cost.latency_factor);
  mix(r.cost.energy_factor);
  return h;
}

struct PinnedReport {
  const char* name;
  fault::ResilienceConfig config;
  std::uint64_t digest;
};

TEST_F(FaultTest, ResilienceReportBytesArePinnedAtAnyWidthColdOrMemoised) {
  const std::vector<PinnedReport> pins = {
      {"probe 0.02/1e7/99", fault::dse_probe_config(0.02, 1e7, 99), 0x01876799181c998cull},
      {"probe 0.02/1e7/7", fault::dse_probe_config(0.02, 1e7, 7), 0xaf676bc6386a8b47ull},
      {"probe 0.02/1e7/1234", fault::dse_probe_config(0.02, 1e7, 1234), 0xc8d4a176d1143c53ull},
      {"probe 0.05/1e7/7", fault::dse_probe_config(0.05, 1e7, 7), 0x903f7bc9e7475a45ull},
      {"small sweep, 2 seeds", small_sweep_config(), 0x519a8e6ff18549d6ull},
  };
  for (const std::size_t width : {1, 2, 8}) {
    set_parallel_threads(width);
    for (const PinnedReport& pin : pins) {
      fault::clear_resilience_caches();
      const fault::ResilienceEvaluator probe(pin.config);
      EXPECT_EQ(report_digest(probe.run()), pin.digest)
          << pin.name << ", cold, width " << width;
      EXPECT_EQ(report_digest(probe.run()), pin.digest)
          << pin.name << ", memoised, width " << width;
    }
  }
}

/// The message of the PreconditionError the probe throws ("" if none).
std::string probe_failure(const fault::ResilienceConfig& cfg) {
  try {
    (void)fault::ResilienceEvaluator(cfg).run();
  } catch (const PreconditionError& e) {
    return e.what();
  }
  return "";
}

TEST_F(FaultTest, ResilienceContextFailuresThrowWhatTheSerialOrderThrows) {
  // The serial order builds hdc[0], mann[0], hdc[1], ...: with both builds
  // broken the HDC failure wins, with only the MANN build broken its own.
  fault::ResilienceConfig both = fault::dse_probe_config(0.02, 1e7, 7);
  both.hdc.max_test_samples = 0;      // HDC build throws after training
  both.mann.fewshot.image_side = 8;   // make_small_cnn throws at once
  fault::ResilienceConfig mann_only = fault::dse_probe_config(0.02, 1e7, 7);
  mann_only.mann.fewshot.image_side = 8;
  // Past the builds, a point's HDC half runs before its MANN half.
  fault::ResilienceConfig halves = fault::dse_probe_config(0.02, 1e7, 7);
  halves.hdc.subarray.cols = 0;     // every HDC half throws
  halves.mann.signature_bits = 0;   // every MANN half throws
  fault::ResilienceConfig mann_halves = fault::dse_probe_config(0.02, 1e7, 7);
  mann_halves.mann.signature_bits = 0;
  for (const std::size_t width : {1, 8}) {
    set_parallel_threads(width);
    fault::clear_resilience_caches();
    EXPECT_NE(probe_failure(both).find("no test samples"), std::string::npos)
        << "width " << width;
    fault::clear_resilience_caches();
    EXPECT_NE(probe_failure(mann_only).find("side >= 12"), std::string::npos)
        << "width " << width;
    EXPECT_NE(probe_failure(halves).find("subarray.cols >= 1"), std::string::npos)
        << "width " << width;
    EXPECT_NE(probe_failure(mann_halves).find("bits >= 1"), std::string::npos)
        << "width " << width;
  }
}

TEST_F(FaultTest, ColdProbeLooksUpEachContextOnceAndHitsNone) {
  for (const std::size_t width : {1, 8}) {
    set_parallel_threads(width);
    for (const fault::ResilienceConfig& cfg :
         {fault::dse_probe_config(0.02, 1e7, 7), small_sweep_config()}) {
      fault::clear_resilience_caches();
      (void)fault::ResilienceEvaluator(cfg).run();
      const fault::ResilienceCacheStats stats = fault::resilience_cache_stats();
      EXPECT_EQ(stats.lookups, 2u * cfg.seeds) << "width " << width;
      EXPECT_EQ(stats.hits, 0u) << "width " << width;
    }
  }
}

}  // namespace
}  // namespace xlds
