#include "xbar/crossbar.hpp"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <utility>

#include "core/counters.hpp"
#include "kernels/mvm.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::xbar {

namespace {
constexpr std::uint64_t kXbarStreamTag = 0xC205BA2;

// Status of a direct solve: converged iff its Jacobi-scaled residual clears
// the Gauss-Seidel acceptance bar `tol`.
SolveStatus direct_status(const NodalSolver::Result& res, double tol) {
  SolveStatus s;
  s.direct = true;
  s.residual = res.residual;
  s.converged = res.residual < tol;
  return s;
}
}  // namespace

std::string to_string(IrDropMode mode) {
  switch (mode) {
    case IrDropMode::kNone: return "none";
    case IrDropMode::kAnalytic: return "analytic";
    case IrDropMode::kNodal: return "nodal";
  }
  return "?";
}

Crossbar::Crossbar(CrossbarConfig config, Rng& rng)
    : config_(config),
      model_(config.rram),
      wire_r_per_cell_(device::tech_node(config.tech).wire_r_per_m * config.cell_pitch_f *
                       device::tech_node(config.tech).feature_m),
      rng_(rng.fork(kXbarStreamTag)),
      g_(config.rows, config.cols, config.rram.g_min),
      stuck_(config.rows, config.cols, 0),
      adc_dead_(config.cols, 0) {
  XLDS_REQUIRE(config_.rows >= 1 && config_.cols >= 1);
  XLDS_REQUIRE(config_.read_voltage > 0.0);
  XLDS_REQUIRE(config_.adcs_per_array >= 1);
  XLDS_REQUIRE(config_.settle_time > 0.0);
  XLDS_REQUIRE(config_.nodal_max_iters >= 1);
}

Crossbar::Crossbar(const Crossbar& other)
    : config_(other.config_),
      model_(other.model_),
      wire_r_per_cell_(other.wire_r_per_cell_),
      rng_(other.rng_),
      g_(other.g_),
      stuck_(other.stuck_),
      adc_dead_(other.adc_dead_),
      weights_(other.weights_) {}

Crossbar::Crossbar(Crossbar&& other) noexcept
    : config_(std::move(other.config_)),
      model_(std::move(other.model_)),
      wire_r_per_cell_(other.wire_r_per_cell_),
      rng_(other.rng_),
      g_(std::move(other.g_)),
      stuck_(std::move(other.stuck_)),
      adc_dead_(std::move(other.adc_dead_)),
      weights_(std::move(other.weights_)) {}

void Crossbar::invalidate_nodal_cache() {
  std::lock_guard<std::mutex> lk(nodal_cache_.mu);
  // A live factor dropped by a mutation (the counter's historical name).
  if (nodal_cache_.solver != nullptr) core::Profiler::count_update_decline();
  nodal_cache_.solver = nullptr;
  nodal_cache_.attempted = false;
}

std::shared_ptr<const NodalSolver> Crossbar::ensure_factorized() const {
  NodalCache& cache = nodal_cache_;
  std::lock_guard<std::mutex> lk(cache.mu);
  if (!cache.attempted) {
    cache.attempted = true;
    auto solver = std::make_shared<NodalSolver>();
    if (solver->factorize(g_, 1.0 / wire_r_per_cell_, config_.nodal_direct_max_bytes))
      cache.solver = std::move(solver);
  }
  return cache.solver;  // only ever a ready factor, or null
}

bool Crossbar::nodal_factorized() const {
  std::lock_guard<std::mutex> lk(nodal_cache_.mu);
  return nodal_cache_.solver != nullptr;
}

void Crossbar::program_conductances(const MatrixD& targets) {
  XLDS_REQUIRE_MSG(targets.rows() == config_.rows && targets.cols() == config_.cols,
                   "conductance matrix " << targets.rows() << 'x' << targets.cols()
                                         << " does not fit " << config_.rows << 'x'
                                         << config_.cols << " array");
  const auto& p = model_.params();
  bool changed = false;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      if (stuck_(r, c)) continue;  // defects ignore programming
      const double target = std::clamp(targets(r, c), p.g_min, p.g_max);
      const double val = config_.apply_variation ? model_.program_verify(target, rng_) : target;
      if (val != g_(r, c)) {
        g_(r, c) = val;
        changed = true;
      }
    }
  }
  weights_ = MatrixD{};
  // A re-program that lands every cell exactly where it was (e.g. identical
  // noiseless targets) changes nothing electrically: the factorization
  // stays valid.
  if (changed) invalidate_nodal_cache();
}

void Crossbar::program_cells(const std::vector<CellDelta>& cells) {
  const auto& p = model_.params();
  bool changed = false;
  for (const CellDelta& cell : cells) {
    XLDS_REQUIRE_MSG(cell.row < config_.rows && cell.col < config_.cols,
                     "cell (" << cell.row << ',' << cell.col << ") outside " << config_.rows
                              << 'x' << config_.cols << " array");
    if (stuck_(cell.row, cell.col)) continue;  // defects ignore programming
    const double target = std::clamp(cell.g_new, p.g_min, p.g_max);
    const double val = config_.apply_variation ? model_.program_verify(target, rng_) : target;
    if (val != g_(cell.row, cell.col)) {
      g_(cell.row, cell.col) = val;
      changed = true;
    }
  }
  if (changed) invalidate_nodal_cache();
}

void Crossbar::program_weights(const MatrixD& weights) {
  XLDS_REQUIRE_MSG(weights.cols() * 2 == config_.cols,
                   "differential weights need " << weights.cols() * 2 << " physical columns, have "
                                                << config_.cols);
  XLDS_REQUIRE(weights.rows() == config_.rows);
  const auto& p = model_.params();
  MatrixD targets(config_.rows, config_.cols, p.g_min);
  for (std::size_t r = 0; r < weights.rows(); ++r) {
    for (std::size_t j = 0; j < weights.cols(); ++j) {
      const double w = std::clamp(weights(r, j), -1.0, 1.0);
      targets(r, 2 * j) = p.g_min + (p.g_max - p.g_min) * std::max(w, 0.0);
      targets(r, 2 * j + 1) = p.g_min + (p.g_max - p.g_min) * std::max(-w, 0.0);
    }
  }
  program_conductances(targets);
  weights_ = weights;
}

void Crossbar::program_stochastic_hrs() {
  for (std::size_t r = 0; r < config_.rows; ++r)
    for (std::size_t c = 0; c < config_.cols; ++c)
      if (!stuck_(r, c)) g_(r, c) = model_.sample_hrs(rng_);
  weights_ = MatrixD{};
  invalidate_nodal_cache();
}

void Crossbar::age(double dt) {
  XLDS_REQUIRE(dt >= 0.0);
  bool changed = false;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      if (stuck_(r, c)) continue;
      const double g_new = model_.relax(g_(r, c), dt, rng_);
      if (g_new != g_(r, c)) {
        g_(r, c) = g_new;
        changed = true;
      }
    }
  }
  if (changed) invalidate_nodal_cache();
}

void Crossbar::inject_stuck_fault(std::size_t row, std::size_t col, double g_stuck) {
  XLDS_REQUIRE(row < config_.rows && col < config_.cols);
  XLDS_REQUIRE(g_stuck >= 0.0);
  stuck_(row, col) = 1;
  // Lower bound is 0 (an open cell draws no current), upper the device max.
  const double g_new = std::clamp(g_stuck, 0.0, config_.rram.g_max);
  if (g_new == g_(row, col)) return;  // electrically unchanged
  g_(row, col) = g_new;
  invalidate_nodal_cache();
}

void Crossbar::apply_fault_map(const fault::FaultMap& map) {
  XLDS_REQUIRE_MSG(map.rows() == config_.rows && map.cols() == config_.cols,
                   "fault map " << map.rows() << 'x' << map.cols() << " does not fit "
                                << config_.rows << 'x' << config_.cols << " array");
  bool changed = false;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      double pin = 0.0;
      switch (map.effective(r, c)) {
        case fault::CellFault::kNone: continue;
        case fault::CellFault::kStuckOn: pin = config_.rram.g_max; break;
        case fault::CellFault::kStuckOff: pin = config_.rram.g_min; break;
        case fault::CellFault::kOpen: pin = 0.0; break;
      }
      stuck_(r, c) = 1;
      const double g_new = std::clamp(pin, 0.0, config_.rram.g_max);
      if (g_new != g_(r, c)) {
        g_(r, c) = g_new;
        changed = true;
      }
    }
  }
  for (std::size_t c = 0; c < config_.cols; ++c)
    if (map.col_sense_dead(c)) adc_dead_[c] = 1;
  if (changed) invalidate_nodal_cache();
}

std::size_t Crossbar::dead_adc_lanes() const {
  std::size_t n = 0;
  for (std::uint8_t d : adc_dead_) n += d;
  return n;
}

std::size_t Crossbar::inject_random_stuck_faults(double fraction, double g_stuck) {
  XLDS_REQUIRE(fraction >= 0.0 && fraction <= 1.0);
  std::size_t count = 0;
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c) {
      if (!stuck_(r, c) && rng_.bernoulli(fraction)) {
        inject_stuck_fault(r, c, g_stuck);
        ++count;
      }
    }
  }
  return count;
}

std::size_t Crossbar::stuck_cell_count() const {
  std::size_t n = 0;
  for (std::uint8_t v : stuck_.data()) n += v;
  return n;
}

double Crossbar::conductance(std::size_t row, std::size_t col) const {
  XLDS_REQUIRE(row < config_.rows && col < config_.cols);
  return g_(row, col);
}

std::vector<double> Crossbar::currents_ideal(const std::vector<double>& v_in) const {
  // Same accumulation order (and zero-row skip) as the old in-place loop;
  // the kernel adds the restrict qualification and column tiling.
  std::vector<double> out(config_.cols);
  kernels::matvec_t(g_.data().data(), config_.rows, config_.cols, v_in.data(), out.data());
  return out;
}

std::vector<double> Crossbar::currents_analytic(const std::vector<double>& v_in) const {
  // Two-pass fixed point: compute cell currents at nominal voltages, derive
  // row/column wire drops from the accumulated currents, then recompute cell
  // currents at the depressed voltages.  Captures the first-order IR-drop
  // signature (far corner sees the largest deficit) at O(RC) cost.
  const std::size_t R = config_.rows, C = config_.cols;
  MatrixD i_cell(R, C, 0.0);
  for (std::size_t r = 0; r < R; ++r)
    kernels::scale(g_.row_data(r), v_in[r], i_cell.row_data(r), C);

  std::vector<double> out(C, 0.0);
  // Row drops: driver on the left; segment k carries the suffix sum of
  // currents at columns >= k.  One scratch vector serves every row (and is
  // reused for the column pass below) — the per-row allocation was O(R+C)
  // vectors per MVM on the hottest sweep path.
  MatrixD v_eff(R, C, 0.0);
  std::vector<double> partial(std::max(R, C) + 1, 0.0);
  for (std::size_t r = 0; r < R; ++r) {
    partial[C] = 0.0;
    for (std::size_t c = C; c-- > 0;) partial[c] = partial[c + 1] + i_cell(r, c);
    double drop = 0.0;
    for (std::size_t c = 0; c < C; ++c) {
      drop += wire_r_per_cell_ * partial[c];
      v_eff(r, c) = v_in[r] - drop;
    }
  }
  // Column drops: ADC (virtual ground) at the bottom; segment below row k
  // carries the prefix sum of currents at rows <= k.
  for (std::size_t c = 0; c < C; ++c) {
    partial[0] = 0.0;
    for (std::size_t r = 0; r < R; ++r) partial[r + 1] = partial[r] + i_cell(r, c);
    double drop = 0.0;
    for (std::size_t r = R; r-- > 0;) {
      drop += wire_r_per_cell_ * partial[r + 1];
      v_eff(r, c) -= drop;
    }
  }
  for (std::size_t r = 0; r < R; ++r) {
    const double* __restrict gr = g_.row_data(r);
    const double* __restrict ve = v_eff.row_data(r);
    double* __restrict po = out.data();
    for (std::size_t c = 0; c < C; ++c) po[c] += gr[c] * std::max(ve[c], 0.0);
  }
  return out;
}

std::vector<double> Crossbar::currents_nodal(const std::vector<double>& v_in,
                                             SolveStatus& status) const {
  if (config_.nodal_direct) {
    if (auto solver = ensure_factorized()) {
      std::vector<double> out(config_.cols);
      NodalSolver::Workspace ws;
      status = direct_status(solver->solve(v_in.data(), out.data(), ws),
                             kNodalTolRel * config_.read_voltage);
      if (status.converged) return out;
      // Residual above the Gauss-Seidel acceptance bar (pathological
      // conditioning): fall through to the iterative cross-check rather than
      // return a worse answer than the tolerance promises.
    }
  }
  return currents_nodal_gs(v_in, status);
}

std::vector<double> Crossbar::currents_nodal_gs(const std::vector<double>& v_in,
                                                SolveStatus& status) const {
  // Red-black Gauss-Seidel nodal solve of the two-wire-layer resistive
  // network.  Nodes are coloured by (r + c) parity; within one colour the
  // row-node update only reads same-cell and same-row opposite-colour
  // neighbours, and the column-node update only reads opposite-colour
  // neighbours in adjacent rows — so all rows of one colour can relax
  // concurrently with no races, and the update order (hence the iterate
  // sequence and iteration count) is fixed regardless of thread count.
  core::Profiler::count_gs_solve();
  const std::size_t R = config_.rows, C = config_.cols;
  const double gw = 1.0 / wire_r_per_cell_;
  // Cold start: every row wire at its driver voltage, column wires at
  // ground.  The result is then a function of (conductances, input) alone.
  MatrixD v(R, C, 0.0);  // row-wire node voltages
  MatrixD u(R, C, 0.0);  // column-wire node voltages
  for (std::size_t r = 0; r < R; ++r)
    for (std::size_t c = 0; c < C; ++c) v(r, c) = v_in[r];

  // Relax every cell of `colour` in row r (v first, then u) and return the
  // row's largest update.  Row-pointer sweep: within one colour pass the
  // cells written stride by 2 and every neighbour read is the opposite
  // colour, so hoisting the row base pointers (instead of going through the
  // bounds-checked Matrix accessor per read) changes no arithmetic.
  const auto relax_row = [&](std::size_t r, std::size_t colour) {
    double row_delta = 0.0;
    const double* gr = g_.row_data(r);
    double* vr = v.row_data(r);
    double* ur = u.row_data(r);
    const double* u_above = r > 0 ? u.row_data(r - 1) : nullptr;
    const double* u_below = r + 1 < R ? u.row_data(r + 1) : nullptr;
    const double vin_r = v_in[r];
    for (std::size_t c = (r + colour) & 1u; c < C; c += 2) {
      const double gc = gr[c];
      // Row node: neighbours along the row wire; the c==0 node ties to the
      // driver (ideal source v_in) through one wire segment.
      double num = gc * ur[c];
      double den = gc;
      if (c == 0) {
        num += gw * vin_r;
        den += gw;
      } else {
        num += gw * vr[c - 1];
        den += gw;
      }
      if (c + 1 < C) {
        num += gw * vr[c + 1];
        den += gw;
      }
      const double nv = num / den;
      row_delta = std::max(row_delta, std::abs(nv - vr[c]));
      vr[c] = nv;

      // Column node: neighbours along the column wire; the bottom node ties
      // to the ADC virtual ground through one segment.
      double cnum = gc * vr[c];
      double cden = gc;
      if (u_above != nullptr) {
        cnum += gw * u_above[c];
        cden += gw;
      }
      if (u_below != nullptr) {
        cnum += gw * u_below[c];
        cden += gw;
      } else {
        cnum += gw * 0.0;  // virtual ground
        cden += gw;
      }
      const double nu = cnum / cden;
      row_delta = std::max(row_delta, std::abs(nu - ur[c]));
      ur[c] = nu;
    }
    return row_delta;
  };

  // Chunk size is a function of R only — determinism contract.
  const std::size_t row_chunk = std::max<std::size_t>(8, R / 16);
  std::vector<double> row_delta(R, 0.0);
  status = SolveStatus{};
  for (int iter = 0; iter < config_.nodal_max_iters; ++iter) {
    ++status.iterations;
    double max_delta = 0.0;
    for (std::size_t colour = 0; colour < 2; ++colour) {
      parallel_for(R, row_chunk, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t r = begin; r < end; ++r) row_delta[r] = relax_row(r, colour);
      });
      // max() over a fixed index order: bit-identical at any thread count.
      for (std::size_t r = 0; r < R; ++r) max_delta = std::max(max_delta, row_delta[r]);
    }
    status.residual = max_delta;
    if (max_delta < kNodalTolRel * config_.read_voltage) {
      status.converged = true;
      break;
    }
  }
  if (!status.converged) {
    // An unconverged iterate is a silently wrong answer; the two-pass analytic
    // estimate is a bounded-error approximation of the same network, so fall
    // back to it and say so (once per array — sweeps reuse the instance).
    status.used_fallback = true;
    if (!nodal_warned_.exchange(true, std::memory_order_relaxed)) {
      std::cerr << "[xlds] warning: nodal solve did not converge after "
                << status.iterations << " iterations (residual "
                << status.residual << " V on a " << R << 'x' << C
                << " array); falling back to the analytic IR-drop estimate\n";
    }
    return currents_analytic(v_in);
  }
  // Read the column current as the sum of cell currents: identical to the
  // bottom-segment current at convergence, but far better conditioned than
  // u_last * g_wire (a tiny voltage times a huge conductance).
  std::vector<double> out(C, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    double i_col = 0.0;
    for (std::size_t r = 0; r < R; ++r)
      i_col += g_.row_data(r)[c] * (v.row_data(r)[c] - u.row_data(r)[c]);
    out[c] = i_col;
  }
  return out;
}

void Crossbar::currents_nodal_batch(const NodalSolver& solver, const MatrixD& v_in,
                                    MatrixD& out, std::vector<SolveStatus>& statuses) const {
  // Every query against the shared factorization, in blocks of
  // NodalSolver::kBlock that each stream the factor once; a ragged last
  // block solves its queries one at a time.  Either way every query gets
  // solve()'s exact arithmetic, and each block touches only its own rows of
  // v_in/out/statuses, so the batch parallelises over blocks with
  // bit-identical per-query results at any thread count (the factorization
  // itself is read-only here).
  constexpr std::size_t kBlock = NodalSolver::kBlock;
  const std::size_t batch = v_in.rows();
  const double tol = kNodalTolRel * config_.read_voltage;
  const std::size_t blocks = (batch + kBlock - 1) / kBlock;
  parallel_for(blocks, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    // One scratch per pool thread, reused across every block it solves
    // (n * kBlock doubles), so batched readouts do not churn the allocator.
    thread_local NodalSolver::Workspace ws;
    for (std::size_t blk = begin; blk < end; ++blk) {
      const std::size_t b0 = blk * kBlock;
      if (b0 + kBlock <= batch) {
        NodalSolver::Result res[kBlock];
        solver.solve_block(v_in.row_data(b0), v_in.cols(), out.row_data(b0), out.cols(), res,
                           ws);
        for (std::size_t k = 0; k < kBlock; ++k) statuses[b0 + k] = direct_status(res[k], tol);
      } else {
        for (std::size_t b = b0; b < batch; ++b)
          statuses[b] = direct_status(solver.solve(v_in.row_data(b), out.row_data(b), ws), tol);
      }
    }
  });
}

std::vector<double> Crossbar::quantise_input(const std::vector<double>& input) const {
  XLDS_REQUIRE_MSG(input.size() == config_.rows,
                   "input length " << input.size() << " != " << config_.rows << " rows");
  std::vector<double> v_in(config_.rows);
  circuit::DacModel dac(config_.dac);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    XLDS_REQUIRE_MSG(input[r] >= 0.0 && input[r] <= 1.0, "input " << input[r] << " not in [0,1]");
    v_in[r] = dac.quantise(input[r], 0.0, 1.0) * config_.read_voltage;
  }
  return v_in;
}

void Crossbar::apply_readout_noise(double* currents) const {
  if (config_.read_noise_rel > 0.0) {
    // Peripheral read noise scales with the measured current (shot noise +
    // ADC reference error are both signal-proportional), with a floor set by
    // the minimum column current the array can present.
    const double i_floor = config_.rram.g_min * config_.read_voltage *
                           std::sqrt(static_cast<double>(config_.rows));
    for (std::size_t c = 0; c < config_.cols; ++c) {
      const double sigma = config_.read_noise_rel * (currents[c] + i_floor);
      currents[c] = std::max(0.0, currents[c] + rng_.normal(0.0, sigma));
    }
  }
  // A dead sensing lane resolves nothing: the column reads as zero current.
  for (std::size_t c = 0; c < config_.cols; ++c)
    if (adc_dead_[c]) currents[c] = 0.0;
}

std::vector<double> Crossbar::column_currents(const std::vector<double>& input) const {
  SolveStatus status;
  return column_currents(input, status);
}

std::vector<double> Crossbar::column_currents(const std::vector<double>& input,
                                              SolveStatus& status) const {
  const std::vector<double> v_in = quantise_input(input);
  status = SolveStatus{};
  std::vector<double> currents;
  switch (config_.ir_drop) {
    case IrDropMode::kNone: currents = currents_ideal(v_in); break;
    case IrDropMode::kAnalytic: currents = currents_analytic(v_in); break;
    case IrDropMode::kNodal: currents = currents_nodal(v_in, status); break;
  }
  apply_readout_noise(currents.data());
  return currents;
}

MatrixD Crossbar::readout_batch(const MatrixD& inputs,
                                std::vector<SolveStatus>* statuses) const {
  XLDS_REQUIRE_MSG(inputs.cols() == config_.rows,
                   "batch inputs have " << inputs.cols() << " columns, need " << config_.rows
                                        << " (one input vector per row)");
  const std::size_t batch = inputs.rows();
  if (statuses != nullptr) statuses->assign(batch, SolveStatus{});

  // DAC quantisation is pure (no RNG): all rows up front.
  MatrixD v_in(batch, config_.rows);
  {
    circuit::DacModel dac(config_.dac);
    for (std::size_t b = 0; b < batch; ++b) {
      const double* in = inputs.row_data(b);
      double* out = v_in.row_data(b);
      for (std::size_t r = 0; r < config_.rows; ++r) {
        XLDS_REQUIRE_MSG(in[r] >= 0.0 && in[r] <= 1.0,
                         "input " << in[r] << " not in [0,1]");
        out[r] = dac.quantise(in[r], 0.0, 1.0) * config_.read_voltage;
      }
    }
  }

  MatrixD out(batch, config_.cols, 0.0);
  switch (config_.ir_drop) {
    case IrDropMode::kNone:
      parallel_for(batch, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t b = begin; b < end; ++b)
          kernels::matvec_t(g_.data().data(), config_.rows, config_.cols, v_in.row_data(b),
                            out.row_data(b));
      });
      break;
    case IrDropMode::kAnalytic:
      parallel_for(batch, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t b = begin; b < end; ++b) {
          std::vector<double> v(v_in.row_data(b), v_in.row_data(b) + config_.rows);
          const std::vector<double> i = currents_analytic(v);
          std::copy(i.begin(), i.end(), out.row_data(b));
        }
      });
      break;
    case IrDropMode::kNodal: {
      std::vector<SolveStatus> local(batch);
      const std::shared_ptr<const NodalSolver> solver =
          config_.nodal_direct ? ensure_factorized() : nullptr;
      if (solver != nullptr) currents_nodal_batch(*solver, v_in, out, local);
      // A query without a converged direct solve (direct path off or
      // declined, or a residual above the tolerance) takes the iterative
      // path, exactly as a single-query readout would.
      for (std::size_t b = 0; b < batch; ++b) {
        if (local[b].converged) continue;
        std::vector<double> v(v_in.row_data(b), v_in.row_data(b) + config_.rows);
        const std::vector<double> i = currents_nodal_gs(v, local[b]);
        std::copy(i.begin(), i.end(), out.row_data(b));
      }
      if (statuses != nullptr) *statuses = std::move(local);
      break;
    }
  }

  // Read noise consumes the instance RNG: strictly in row order, so the draw
  // sequence matches repeated single-query readouts.
  for (std::size_t b = 0; b < batch; ++b) apply_readout_noise(out.row_data(b));
  return out;
}

std::vector<double> Crossbar::mvm(const std::vector<double>& input) const {
  XLDS_REQUIRE_MSG(!weights_.empty(), "mvm() requires program_weights(); use column_currents() "
                                      "for raw-conductance arrays");
  const std::vector<double> currents = column_currents(input);
  circuit::AdcModel adc(config_.adc);
  const double i_fs =
      config_.rram.g_max * config_.read_voltage * static_cast<double>(config_.rows);
  const double unit = config_.read_voltage * (config_.rram.g_max - config_.rram.g_min);
  std::vector<double> out(weights_.cols());
  for (std::size_t j = 0; j < out.size(); ++j) {
    const double ip = adc.quantise(currents[2 * j], 0.0, i_fs);
    const double in = adc.quantise(currents[2 * j + 1], 0.0, i_fs);
    // Baseline g_min contributions cancel in the differential pair.
    out[j] = (ip - in) / unit;
  }
  return out;
}

MatrixD Crossbar::mvm_batch(const MatrixD& inputs) const {
  XLDS_REQUIRE_MSG(!weights_.empty(), "mvm_batch() requires program_weights(); use "
                                      "readout_batch() for raw-conductance arrays");
  const MatrixD currents = readout_batch(inputs);
  const std::size_t batch = inputs.rows();
  circuit::AdcModel adc(config_.adc);
  const double i_fs =
      config_.rram.g_max * config_.read_voltage * static_cast<double>(config_.rows);
  const double unit = config_.read_voltage * (config_.rram.g_max - config_.rram.g_min);
  MatrixD out(batch, weights_.cols(), 0.0);
  // ADC quantisation is pure — parallel over the batch, bit-identical per row.
  parallel_for(batch, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t b = begin; b < end; ++b) {
      const double* i_row = currents.row_data(b);
      double* o_row = out.row_data(b);
      for (std::size_t j = 0; j < weights_.cols(); ++j) {
        const double ip = adc.quantise(i_row[2 * j], 0.0, i_fs);
        const double in = adc.quantise(i_row[2 * j + 1], 0.0, i_fs);
        o_row[j] = (ip - in) / unit;
      }
    }
  });
  return out;
}

std::vector<double> Crossbar::ideal_mvm(const std::vector<double>& input) const {
  XLDS_REQUIRE_MSG(!weights_.empty(), "ideal_mvm() requires program_weights()");
  XLDS_REQUIRE(input.size() == config_.rows);
  std::vector<double> out(weights_.cols());
  kernels::matvec_t(weights_.data().data(), weights_.rows(), weights_.cols(), input.data(),
                    out.data());
  return out;
}

MvmCost Crossbar::mvm_cost() const {
  circuit::AdcModel adc(config_.adc);
  circuit::DacModel dac(config_.dac);
  MvmCost cost;
  const auto rounds = static_cast<double>(
      (config_.cols + config_.adcs_per_array - 1) / config_.adcs_per_array);
  cost.latency = dac.latency() + config_.settle_time + rounds * adc.latency_per_conversion();

  double g_sum = 0.0;
  for (double g : g_.data()) g_sum += g;
  const double v = config_.read_voltage;
  cost.energy = static_cast<double>(config_.rows) * dac.energy_per_conversion() +
                static_cast<double>(config_.cols) * adc.energy_per_conversion() +
                g_sum * v * v * config_.settle_time;
  return cost;
}

double Crossbar::ir_drop_worst_case() const {
  std::vector<double> ones(config_.rows, config_.read_voltage);
  const std::vector<double> ideal = currents_ideal(ones);
  const std::vector<double> actual = currents_analytic(ones);
  double worst = 0.0;
  for (std::size_t c = 0; c < config_.cols; ++c) {
    if (ideal[c] <= 0.0) continue;
    worst = std::max(worst, (ideal[c] - actual[c]) / ideal[c]);
  }
  return worst;
}

}  // namespace xlds::xbar
