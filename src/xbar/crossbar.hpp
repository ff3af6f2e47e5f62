// Analog crossbar MVM simulator (Fig. 2D, Secs. II-B2 and IV).
//
// Inputs are row voltages, weights are crosspoint conductances, and the MAC
// result is the summed column current.  The model layers the non-idealities
// the paper's co-design studies depend on:
//   * conductance programming variation and stochasticity (RRAM model),
//   * DAC-quantised inputs and ADC-quantised outputs,
//   * IR drop along row/column wires — either a fast two-pass analytic
//     estimate or an exact nodal solve for validation.  The nodal solve is
//     a cached sparse LDL^T factorization of the two-layer conductance
//     matrix (see nodal_solver.hpp): the matrix depends only on the
//     programmed state, so repeated readouts amortise one factorization
//     across every query.  A nodal readout returns the direct solve or
//     throws ModelDomainError; it never substitutes another model,
//   * conductance relaxation over time (age()), which is what destabilises
//     near-plane LSH bits in Fig. 4C,
//   * differential column pairs for signed weights.
//
// Every readout goes through readout_batch() (and mvm_batch() on top of it);
// a single query is a one-row batch.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "circuit/converter.hpp"
#include "device/rram.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "util/matrix.hpp"
#include "util/rng.hpp"
#include "xbar/nodal_solver.hpp"

namespace xlds::xbar {

enum class IrDropMode {
  kNone,      ///< ideal wires
  kAnalytic,  ///< two-pass fixed-point estimate (fast, default)
  kNodal,     ///< exact nodal solve (cached direct factorization)
};

std::string to_string(IrDropMode mode);

/// Residual bar of the direct nodal solve, relative to the read voltage: a
/// kNodal readout throws ModelDomainError unless every query's Jacobi-scaled
/// residual falls below kNodalTolRel * read_voltage.
inline constexpr double kNodalTolRel = 1e-7;

/// Storage cap of the cached LDL^T factor.  A kNodal readout of an array
/// whose factor would exceed it (square arrays from 256x256) throws
/// ModelDomainError instead of allocating the profile.
inline constexpr std::size_t kNodalMaxFactorBytes = std::size_t{256} << 20;

struct CrossbarConfig {
  device::RramParams rram;
  std::size_t rows = 64;
  std::size_t cols = 64;  ///< physical columns (differential pairs use two each)
  std::string tech = "40nm";
  double cell_pitch_f = 4.0;    ///< crosspoint pitch, F
  double read_voltage = 0.2;    ///< full-scale row voltage, V
  circuit::AdcParams adc;       ///< output converter
  circuit::DacParams dac;       ///< input converter
  std::size_t adcs_per_array = 8;  ///< ADCs shared across columns (serialised)
  bool apply_variation = true;
  IrDropMode ir_drop = IrDropMode::kAnalytic;
  double read_noise_rel = 0.005;  ///< column-current read noise, fraction of the measured current
  double settle_time = 1.0e-9;    ///< analog settling window per MVM, s
  /// Unread; kept only because perfbench/dse_workloads.cpp assigns it.
  int nodal_max_iters = 2000;
};

/// One cell of a programming patch: the crosspoint at (row, col) gets the
/// conductance target g_new (siemens).
struct CellDelta {
  std::size_t row = 0;
  std::size_t col = 0;
  double g_new = 0.0;
};

/// Cost of one analog MVM through the array.
struct MvmCost {
  double latency = 0.0;  ///< s
  double energy = 0.0;   ///< J
};

class Crossbar {
 public:
  Crossbar(CrossbarConfig config, Rng& rng);

  /// Copies restart with a cold solver cache (per-instance scratch, rebuilt
  /// lazily).
  Crossbar(const Crossbar& other);
  Crossbar(Crossbar&& other) noexcept;
  Crossbar& operator=(const Crossbar&) = delete;
  Crossbar& operator=(Crossbar&&) = delete;

  std::size_t rows() const noexcept { return config_.rows; }
  std::size_t cols() const noexcept { return config_.cols; }
  const CrossbarConfig& config() const noexcept { return config_; }
  const device::RramModel& device_model() const noexcept { return model_; }

  /// Program explicit conductance targets (S).  Values are clamped to the
  /// device range; program-and-verify with variation when enabled.
  void program_conductances(const MatrixD& targets);

  /// Re-program a subset of crosspoints to explicit conductance targets
  /// (clamped and program-and-verified exactly like program_conductances;
  /// stuck cells ignore the request and consume no RNG draw).  The logical
  /// weights from a previous program_weights() are kept (the patch models
  /// drift/repair around them).
  void program_cells(const std::vector<CellDelta>& cells);

  /// Program signed weights in [-1, 1] onto differential column pairs:
  /// physical column 2j carries the positive part of logical column j,
  /// 2j+1 the negative part.  Requires weights.cols() * 2 == cols.
  void program_weights(const MatrixD& weights);

  /// Program every crosspoint with an independent draw from the HRS
  /// population — the stochastic LSH projection of Sec. IV.
  void program_stochastic_hrs();

  /// Apply conductance relaxation for `dt` seconds to every device.
  void age(double dt);

  /// Fault injection: pin the crosspoint at `g_stuck` siemens (0 models an
  /// open cell; values are clamped to [0, g_max]).  Stuck cells ignore all
  /// subsequent programming and relaxation — the stuck-at-LRS /
  /// stuck-at-HRS defects defect-aware training works around.
  void inject_stuck_fault(std::size_t row, std::size_t col, double g_stuck);

  /// Apply a defect map (same geometry as the array): stuck-on cells pin at
  /// g_max, stuck-off at g_min, opens (including cells cut off by line
  /// faults) at zero conductance, and dead column sense lanes force the
  /// corresponding column current to read 0.  Consumes no RNG.
  void apply_fault_map(const fault::FaultMap& map);

  /// Columns whose ADC/sensing lane is dead.
  std::size_t dead_adc_lanes() const;

  /// Pin `fraction` of the crosspoints (chosen by the internal RNG) at the
  /// given conductance.  Returns the number of cells stuck.
  std::size_t inject_random_stuck_faults(double fraction, double g_stuck);

  std::size_t stuck_cell_count() const;

  /// Raw readout, the one readout path: inputs is [batch x rows], one input
  /// of per-row voltages in [0, 1] per row (scaled by read_voltage
  /// internally); the result is [batch x cols] column currents (A),
  /// DAC-quantised, with IR drop and read noise applied.  Read-noise draws
  /// come from the instance RNG in row order, so a batch reads exactly what
  /// its rows read one at a time.  In kNodal mode all rows share one cached
  /// factorization (built even for an empty batch) and the forward/back
  /// substitutions run in parallel over blocks of rows via util::parallel —
  /// results are thread-count invariant.  A kNodal readout throws
  /// ModelDomainError, before drawing any noise, when the factorization is
  /// declined (its factor would exceed kNodalMaxFactorBytes, or a pivot
  /// breaks down) or when a query's residual misses the kNodalTolRel bar;
  /// the lowest-index such query names the error at any thread count.
  MatrixD readout_batch(const MatrixD& inputs) const;

  /// One input's column currents: a one-row readout_batch.
  std::vector<double> column_currents(const std::vector<double>& input) const;

  /// Signed MVM using differential pairs: inputs [batch x rows] in [0, 1] ->
  /// [batch x weights.cols()] ADC-quantised dot products scaled back to
  /// weight×input units (readout_batch, then the ADC per pair).
  MatrixD mvm_batch(const MatrixD& inputs) const;

  /// One input's signed MVM: a one-row mvm_batch.
  std::vector<double> mvm(const std::vector<double>& input) const;

  /// Ideal result of the programmed weights (no analog effects): W^T x.
  std::vector<double> ideal_mvm(const std::vector<double>& input) const;

  /// Per-MVM circuit cost (converters + array dissipation + settling).
  MvmCost mvm_cost() const;

  /// Programmed conductance at a crosspoint (for tests/inspection).
  double conductance(std::size_t row, std::size_t col) const;

  /// Worst-case relative IR-drop error for an all-ones input at the current
  /// programming — a diagnostic the co-optimisation studies use.
  double ir_drop_worst_case() const;

  /// True once the direct nodal factorization has been built for the current
  /// programming state (kNodal readouts build it lazily).  Every mutation
  /// that changes a conductance drops it; one that changes nothing keeps it.
  bool nodal_factorized() const;

 private:
  // Direct-solver cache.  Guarded by `mu` so concurrent const readouts (the
  // parallel evaluator shares arrays across worker threads) build the
  // factorization exactly once without racing.  The solver lives as long as
  // the array: a mutation that changes a conductance clears `ready`, and the
  // next nodal readout refactorizes into the same storage, so aging a tile
  // allocates no new factor.  A readout takes the solver's address under
  // `mu` and then solves unlocked.  No reference count guards the factor:
  // mutating the array (program/fault/age) while another thread reads is
  // outside the contract, as it always was for the conductances themselves,
  // so no reader can hold the factor across the refactorization that
  // overwrites it.
  struct NodalCache {
    std::mutex mu;
    NodalSolver solver;
    bool ready = false;  ///< `solver` holds the current state's factor
  };

  // The IR-drop models below take one query's `rows` row voltages (already
  // DAC-quantised and scaled by read_voltage).
  std::vector<double> currents_ideal(const double* v_in) const;
  std::vector<double> currents_analytic(const double* v_in) const;
  /// Factorized multi-RHS path over every query; rhs/out are
  /// [batch x rows]/[batch x cols].  Throws for the lowest-index query whose
  /// residual misses the kNodalTolRel bar.
  void currents_nodal_batch(const NodalSolver& solver, const MatrixD& v_in, MatrixD& out) const;
  /// Lazily (re)factorize, once per programming state, and return the cached
  /// direct solver; throws ModelDomainError when the factorization is
  /// declined (the next readout tries again).
  const NodalSolver& ensure_factorized() const;
  /// Mark the cached factorization stale (the programmed conductances
  /// changed); the next kNodal readout refactorizes into its storage.
  void invalidate_nodal_cache();
  /// Read-noise + dead-lane post-processing (consumes the instance RNG).
  void apply_readout_noise(double* currents) const;

  CrossbarConfig config_;
  device::RramModel model_;
  double wire_r_per_cell_;  ///< ohm per crosspoint pitch
  mutable Rng rng_;
  mutable NodalCache nodal_cache_;
  MatrixD g_;               ///< programmed conductances [rows x cols]
  Matrix<std::uint8_t> stuck_;  ///< 1 = crosspoint pinned by a defect
  std::vector<std::uint8_t> adc_dead_;  ///< 1 = the column's sensing lane is dead
  MatrixD weights_;         ///< logical weights (when program_weights used)
};

}  // namespace xlds::xbar
