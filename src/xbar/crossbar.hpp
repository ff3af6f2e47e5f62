// Analog crossbar MVM simulator (Fig. 2D, Secs. II-B2 and IV).
//
// Inputs are row voltages, weights are crosspoint conductances, and the MAC
// result is the summed column current.  The model layers the non-idealities
// the paper's co-design studies depend on:
//   * conductance programming variation and stochasticity (RRAM model),
//   * DAC-quantised inputs and ADC-quantised outputs,
//   * IR drop along row/column wires — either a fast two-pass analytic
//     estimate or an exact nodal solve for validation.  The nodal solve is
//     served by a cached sparse LDL^T factorization of the two-layer
//     conductance matrix (see nodal_solver.hpp): the matrix depends only on
//     the programmed state, so repeated readouts amortise one factorization
//     across every query, with red-black Gauss-Seidel kept as the fallback
//     and cross-check,
//   * conductance relaxation over time (age()), which is what destabilises
//     near-plane LSH bits in Fig. 4C,
//   * differential column pairs for signed weights.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
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
  kNodal,     ///< exact nodal solve (factorized direct / Gauss-Seidel)
};

std::string to_string(IrDropMode mode);

/// Nodal-solve convergence tolerance, relative to the read voltage: a solve
/// is accepted when the largest node-voltage update (Gauss-Seidel sweep) or
/// Jacobi-scaled residual (direct solve) falls below
/// kNodalTolRel * read_voltage.
inline constexpr double kNodalTolRel = 1e-7;

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
  int nodal_max_iters = 2000;     ///< Gauss-Seidel iteration budget (kNodal mode)
  /// Use the factorization-cached direct nodal solver (kNodal mode).  The
  /// factorization is built lazily on the first nodal readout after a
  /// programming change and reused for every subsequent query; Gauss-Seidel
  /// remains the fallback when disabled, declined (memory cap) or on numeric
  /// breakdown.
  bool nodal_direct = true;
  /// Memory cap for the cached LDL^T factor; larger systems fall back to
  /// Gauss-Seidel instead of allocating an oversized profile.
  std::size_t nodal_direct_max_bytes = 256u << 20;
  /// Warm-start Gauss-Seidel from the previous converged iterate, shifted by
  /// the per-row driver-voltage difference between the stored query and the
  /// new one (only used where the direct path is off/unavailable).  The shift
  /// removes the dominant error term for decorrelated queries, so the warm
  /// guess is at least as close as the cold flat guess whether or not the
  /// inputs repeat.  Results stay within the solver tolerance of a cold
  /// start but are not bit-identical to one, and depend on the query order —
  /// disable for strict cold-start reproducibility.
  bool nodal_warm_start = true;
  /// Apply small programming changes (stuck faults, partial re-programs) to
  /// the cached factorization as rank-1 up/down-dates instead of dropping
  /// it.  Falls back to a full refactorization when the patch is too large
  /// (nodal_update_batch_limit), the accumulated update count exceeds
  /// nodal_update_limit, the update breaks down numerically, or a later
  /// solve's residual check reports the factor drifted.
  bool nodal_incremental = true;
  /// Largest patch (cells per mutation) handled incrementally; bigger
  /// patches invalidate the cache.  0 = auto (factor bandwidth / 8, the
  /// point where a batch of rank-1 sweeps stops being clearly cheaper than
  /// one refactorization).
  std::size_t nodal_update_batch_limit = 0;
  /// Accumulated rank-1 updates tolerated on one factorization before the
  /// next mutation forces a rebuild (bounds floating-point drift and keeps
  /// the amortised update cost below the refactorization it replaces).
  /// 0 = auto (factor bandwidth / 2).
  std::size_t nodal_update_limit = 0;
};

/// Outcome of a nodal solve (kNodal mode).
struct SolveStatus {
  bool converged = false;
  std::size_t iterations = 0;  ///< Gauss-Seidel sweeps (0 for a direct solve)
  double residual = 0.0;      ///< largest node update / scaled residual, V
  bool used_fallback = false; ///< analytic estimate substituted for an unconverged solve
  bool direct = false;        ///< solved via the cached factorization
};

/// Cost of one analog MVM through the array.
struct MvmCost {
  double latency = 0.0;  ///< s
  double energy = 0.0;   ///< J
};

class Crossbar {
 public:
  Crossbar(CrossbarConfig config, Rng& rng);

  /// Copies restart with a cold solver cache and cleared last-solve status
  /// (both are per-instance scratch, rebuilt lazily).
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
  /// stuck cells ignore the request and consume no RNG draw).
  /// Small patches update the cached nodal factorization incrementally
  /// instead of invalidating it; the logical weights from a previous
  /// program_weights() are kept (the patch models drift/repair around them).
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

  /// Raw column currents (A) for an input of per-row voltages in [0, 1]
  /// (scaled by read_voltage internally), DAC-quantised, with IR drop and
  /// read noise applied.
  std::vector<double> column_currents(const std::vector<double>& input) const;

  /// As above, reporting the nodal solve outcome per call (the status is
  /// only meaningful in kNodal mode; other modes leave it default).
  std::vector<double> column_currents(const std::vector<double>& input,
                                      SolveStatus& status) const;

  /// Batched raw readout: inputs is [batch x rows], the result [batch x cols],
  /// and row b is bit-identical to column_currents(row b of inputs) issued
  /// sequentially in index order (read-noise draws are applied in that order).
  /// In kNodal mode all vectors share one cached factorization and the
  /// forward/back substitutions run in parallel over the batch via
  /// util::parallel — per-vector results are thread-count invariant.  When
  /// `statuses` is non-null it receives one SolveStatus per batch row.
  MatrixD readout_batch(const MatrixD& inputs,
                        std::vector<SolveStatus>* statuses = nullptr) const;

  /// Signed MVM using differential pairs: returns ADC-quantised dot products
  /// scaled back to weight×input units.  Input entries in [0, 1].
  std::vector<double> mvm(const std::vector<double>& input) const;

  /// Batched mvm(): inputs [batch x rows] -> outputs [batch x weights.cols()],
  /// row b bit-identical to mvm(row b) issued sequentially.
  MatrixD mvm_batch(const MatrixD& inputs) const;

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
  /// programming state (kNodal readouts build it lazily).  Incremental
  /// updates keep the factorization alive across small programming changes.
  bool nodal_factorized() const;

  /// Rank-1 up/down-dates applied to the current factorization since it was
  /// last built (0 when fresh or absent).
  std::size_t nodal_updates_applied() const;

 private:
  // Solver cache + Gauss-Seidel warm-start state.  Guarded by `mu` so
  // concurrent const readouts (the parallel evaluator shares arrays across
  // worker threads) build the factorization exactly once without racing.
  // Mutating the array (program/fault/age) while another thread reads is
  // outside the contract, as it always was for the conductances themselves.
  // The solver lives behind a shared_ptr so the rare drift-triggered
  // refactorization during a const readout can swap in a fresh factor while
  // concurrent readers keep solving against the old one (readers pin their
  // snapshot; nothing is ever mutated under them).
  struct NodalCache {
    std::mutex mu;
    std::shared_ptr<NodalSolver> solver;
    bool attempted = false;  ///< factorization tried since the last invalidation
    MatrixD warm_v, warm_u;  ///< last converged Gauss-Seidel iterate
    std::vector<double> warm_vin;  ///< driver voltages that iterate solved
    bool warm = false;
  };

  std::vector<double> currents_ideal(const std::vector<double>& v_in) const;
  std::vector<double> currents_analytic(const std::vector<double>& v_in) const;
  /// Dispatch: direct solve when enabled and factorizable, else Gauss-Seidel.
  std::vector<double> currents_nodal(const std::vector<double>& v_in,
                                     SolveStatus& status) const;
  /// Iterative red-black Gauss-Seidel path (optionally warm-started).
  std::vector<double> currents_nodal_gs(const std::vector<double>& v_in,
                                        SolveStatus& status) const;
  /// Factorized multi-RHS path over queries [first, batch); rhs/out are
  /// [batch x rows]/[batch x cols], statuses has one entry per query.
  void currents_nodal_batch(const NodalSolver& solver, const MatrixD& v_in,
                            std::size_t first, MatrixD& out,
                            std::vector<SolveStatus>& statuses) const;
  /// DAC-quantised, read_voltage-scaled row voltages for one input vector.
  std::vector<double> quantise_input(const std::vector<double>& input) const;
  /// Lazily build (once per programming state) and return the cached direct
  /// solver, or nullptr when disabled/declined.
  std::shared_ptr<const NodalSolver> ensure_factorized() const;
  /// Replace a drifted factorization with a fresh one built from the current
  /// conductances (readers holding the old shared_ptr are unaffected).
  std::shared_ptr<const NodalSolver> refactorize_fresh() const;
  void invalidate_nodal_cache();
  /// Route a programming patch to the cached factorization: apply it as
  /// rank-1 up/down-dates when the incremental policy accepts it, otherwise
  /// invalidate the cache.  The Gauss-Seidel warm iterate is dropped either
  /// way (it belongs to the previous programming state).
  void note_cell_updates(const CellDelta* deltas, std::size_t count);
  /// Read-noise + dead-lane post-processing (consumes the instance RNG).
  void apply_readout_noise(double* currents) const;

  CrossbarConfig config_;
  device::RramModel model_;
  double wire_r_per_cell_;  ///< ohm per crosspoint pitch
  mutable Rng rng_;
  mutable NodalCache nodal_cache_;
  mutable std::atomic<bool> nodal_warned_{false};  ///< non-convergence warning throttle
  MatrixD g_;               ///< programmed conductances [rows x cols]
  Matrix<std::uint8_t> stuck_;  ///< 1 = crosspoint pinned by a defect
  std::vector<std::uint8_t> adc_dead_;  ///< 1 = the column's sensing lane is dead
  MatrixD weights_;         ///< logical weights (when program_weights used)
};

}  // namespace xlds::xbar
