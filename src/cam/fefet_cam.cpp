#include "cam/fefet_cam.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>

#include "circuit/converter.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::cam {

namespace {
constexpr std::uint64_t kCamStreamTag = 0xCA11AB1E;
}

FeFetCamArray::FeFetCamArray(FeFetCamConfig config, Rng& rng)
    : config_(config),
      model_(config.fefet),
      wire_(device::tech_node(config.tech), config.cell_pitch_f),
      matchline_(
          [&] {
            circuit::MatchlineParams p = config.matchline;
            if (p.cell_drain_cap == 0.0) {
              // Two FeFET drains load the matchline per cell.
              p.cell_drain_cap =
                  2.0 * device::tech_node(config.tech)
                            .tx_drain_cap(device::tech_node(config.tech).min_tx_width_um);
            }
            // A matching cell still leaks at the sub-threshold bias point;
            // that (not Ioff) is the matchline's per-cell leak floor.
            const auto& fp = model_.params();
            p.leak_conductance_per_cell =
                2.0 * model_.conductance(fp.vth_low - model_.search_margin(), fp.vth_low);
            return p;
          }(),
          wire_, config.cols),
      sense_(config.sense),
      rng_(rng.fork(kCamStreamTag)),
      cells_(config.rows, std::vector<Cell>(config.cols)),
      row_sense_dead_(config.rows, 0) {
  XLDS_REQUIRE(config_.rows >= 1 && config_.cols >= 1);
  XLDS_REQUIRE(config_.sense_levels >= 2);
  XLDS_REQUIRE(config_.sense_noise_rel >= 0.0);
}

void FeFetCamArray::write_word(std::size_t row, const std::vector<int>& digits) {
  XLDS_REQUIRE_MSG(row < config_.rows, "row " << row << " out of range");
  XLDS_REQUIRE_MSG(digits.size() == config_.cols,
                   "word width " << digits.size() << " != " << config_.cols << " cols");
  const int n_levels = levels();
  for (std::size_t c = 0; c < config_.cols; ++c) {
    const int d = digits[c];
    XLDS_REQUIRE_MSG(d == kDontCare || (d >= 0 && d < n_levels),
                     "digit " << d << " invalid for " << n_levels << "-level cell");
    Cell& cell = cells_[row][c];
    cell.stored = d;
    if (cell.fault != fault::CellFault::kNone) continue;
    if (d == kDontCare) {
      // Both devices at the highest V_th: never conduct for any legal query.
      const double top = model_.params().vth_high;
      cell.vth_a = config_.apply_variation ? rng_.normal(top, model_.params().sigma_program) : top;
      cell.vth_b = config_.apply_variation ? rng_.normal(top, model_.params().sigma_program) : top;
      continue;
    }
    const int comp = n_levels - 1 - d;
    if (config_.apply_variation) {
      cell.vth_a = model_.program_vth(d, rng_);
      cell.vth_b = model_.program_vth(comp, rng_);
    } else {
      cell.vth_a = model_.level_vth(d);
      cell.vth_b = model_.level_vth(comp);
    }
  }
}

int FeFetCamArray::readback_digit(std::size_t row, std::size_t col) const {
  XLDS_REQUIRE(row < config_.rows && col < config_.cols);
  const Cell& cell = cells_[row][col];
  if (cell.stored == kDontCare) return kDontCare;
  return model_.readback_level(cell.vth_a);
}

double FeFetCamArray::cell_conductance(const Cell& cell, int query_digit) const {
  switch (cell.fault) {
    case fault::CellFault::kStuckOn: return stuck_on_conductance();
    case fault::CellFault::kStuckOff:
    case fault::CellFault::kOpen: return 0.0;
    case fault::CellFault::kNone: break;
  }
  const int n_levels = levels();
  const double v_a = model_.search_voltage(query_digit);
  const double v_b = model_.search_voltage(n_levels - 1 - query_digit);
  return model_.conductance(v_a, cell.vth_a) + model_.conductance(v_b, cell.vth_b);
}

double FeFetCamArray::stuck_on_conductance() const {
  return 2.0 * model_.conductance(model_.search_voltage(levels() - 1), model_.level_vth(0));
}

void FeFetCamArray::apply_fault_map(const fault::FaultMap& map) {
  XLDS_REQUIRE_MSG(map.rows() == config_.rows && map.cols() == config_.cols,
                   "fault map " << map.rows() << "x" << map.cols() << " != array "
                                << config_.rows << "x" << config_.cols);
  for (std::size_t r = 0; r < config_.rows; ++r) {
    for (std::size_t c = 0; c < config_.cols; ++c)
      cells_[r][c].fault = map.effective(r, c);
    row_sense_dead_[r] = map.row_sense_dead(r) ? 1 : 0;
  }
}

void FeFetCamArray::age(double dt) {
  XLDS_REQUIRE(dt >= 0.0);
  if (dt == 0.0) return;
  for (auto& row : cells_) {
    for (Cell& cell : row) {
      if (cell.fault != fault::CellFault::kNone) continue;
      cell.vth_a = model_.retain(cell.vth_a, dt, rng_);
      cell.vth_b = model_.retain(cell.vth_b, dt, rng_);
    }
  }
}

std::size_t FeFetCamArray::faulty_cell_count() const {
  std::size_t n = 0;
  for (const auto& row : cells_)
    for (const Cell& cell : row)
      if (cell.fault != fault::CellFault::kNone) ++n;
  return n;
}

std::size_t FeFetCamArray::dead_sense_rows() const {
  std::size_t n = 0;
  for (auto dead : row_sense_dead_)
    if (dead) ++n;
  return n;
}

double FeFetCamArray::cell_transfer_conductance(double v_in, int stored_level) const {
  const int n_levels = levels();
  XLDS_REQUIRE(stored_level >= 0 && stored_level < n_levels);
  const auto& p = model_.params();
  // Continuous extension of the search encoding: the complementary gate sees
  // the reflected voltage such that v_in == search_voltage(q) maps to
  // v_b == search_voltage(L-1-q).
  const double v_b = (p.vth_low + p.vth_high - 2.0 * model_.search_margin()) - v_in;
  const double vth_a = model_.level_vth(stored_level);
  const double vth_b = model_.level_vth(n_levels - 1 - stored_level);
  return model_.conductance(v_in, vth_a) + model_.conductance(v_b, vth_b);
}

double FeFetCamArray::match_baseline_conductance() const {
  Cell ref;
  ref.stored = 0;
  ref.vth_a = model_.level_vth(0);
  ref.vth_b = model_.level_vth(levels() - 1);
  return cell_conductance(ref, 0);
}

double FeFetCamArray::unit_conductance() const {
  // Conductance step of a single one-level mismatch over the match baseline:
  // the sensing full scale is mismatch_limit() of these units.
  Cell ref;
  ref.stored = 0;
  ref.vth_a = model_.level_vth(0);
  ref.vth_b = model_.level_vth(levels() - 1);
  const double g1 = cell_conductance(ref, std::min(1, levels() - 1));
  const double g_match = match_baseline_conductance();
  XLDS_ASSERT(g1 > g_match);
  return g1 - g_match;
}

std::size_t FeFetCamArray::mismatch_limit() const {
  const std::size_t limit =
      matchline_.mismatch_limit(unit_conductance(), config_.sense.min_margin_v);
  return std::max<std::size_t>(limit, 1);
}

std::vector<SearchResult> FeFetCamArray::search_batch(
    const std::vector<std::vector<int>>& queries, std::size_t repeats) const {
  XLDS_REQUIRE_MSG(repeats >= 1, "a search needs at least one repeat");
  const std::size_t n_rows = config_.rows, n_cols = config_.cols, n_queries = queries.size();
  const int n_levels = levels();
  const auto n_digits = static_cast<std::size_t>(n_levels);
  // present[c * n_digits + d]: some query drives digit d on column c.
  std::vector<std::uint8_t> present(n_cols * n_digits, 0);
  for (const std::vector<int>& query : queries) {
    XLDS_REQUIRE_MSG(query.size() == n_cols,
                     "query width " << query.size() << " != " << n_cols);
    for (std::size_t c = 0; c < n_cols; ++c) {
      const int q = query[c];
      XLDS_REQUIRE_MSG(q >= 0 && q < n_levels, "query digit " << q);
      present[c * n_digits + static_cast<std::size_t>(q)] = 1;
    }
  }
  if (n_queries == 0) return {};
  // Those (column, digit) pairs, in column order: a row's table holds only
  // these, so for one query it holds one conductance per cell.
  std::vector<std::pair<std::size_t, int>> driven;
  driven.reserve(n_cols);
  for (std::size_t c = 0; c < n_cols; ++c)
    for (int d = 0; d < n_levels; ++d)
      if (present[c * n_digits + static_cast<std::size_t>(d)] != 0) driven.emplace_back(c, d);

  // Matchline conductance of every (query, row).  cell_conductance is a pure
  // function of (cell, digit), so one table of a row's conductances per
  // driven digit serves every query, and each sum adds the same doubles in
  // the same column order as a cell-by-cell loop: rows are independent, and
  // any split of them across lanes gives the same bytes.  A chunk covers at
  // least kMinChunkWork table entries and summed cells, so a small search
  // runs inline.
  constexpr std::size_t kMinChunkWork = 4096;
  const std::size_t row_work = driven.size() + n_queries * n_cols;
  const std::size_t chunk_rows = std::max<std::size_t>(1, kMinChunkWork / row_work);
  std::vector<double> g_rows(n_queries * n_rows);
  parallel_for(n_rows, chunk_rows, [&](std::size_t begin, std::size_t end, std::size_t) {
    std::vector<double> table(n_cols * n_digits);
    for (std::size_t r = begin; r < end; ++r) {
      const std::vector<Cell>& row = cells_[r];
      for (const auto& [c, d] : driven)
        table[c * n_digits + static_cast<std::size_t>(d)] = cell_conductance(row[c], d);
      for (std::size_t qi = 0; qi < n_queries; ++qi) {
        const int* query = queries[qi].data();
        double g_row = 0.0;
        for (std::size_t c = 0; c < n_cols; ++c)
          g_row += table[c * n_digits + static_cast<std::size_t>(query[c])];
        g_rows[qi * n_rows + r] = g_row;
      }
    }
  });

  const double g_unit = unit_conductance();
  const double g_baseline = match_baseline_conductance() * static_cast<double>(n_cols);

  // Discharge-time sensing digitises the matchline's *time constant*, which
  // is uniform in log-conductance: small distances resolve finely (long
  // discharge, many time codes apart), large distances compress (everything
  // far discharges almost instantly).  Full scale is a row of maximal
  // mismatches; the floor (half a mismatch unit) reads as a clean match.
  Cell worst;
  worst.stored = 0;
  worst.vth_a = model_.level_vth(0);
  worst.vth_b = model_.level_vth(n_levels - 1);
  const double max_r =
      (cell_conductance(worst, n_levels - 1) - match_baseline_conductance()) / g_unit;
  const double full_scale = static_cast<double>(n_cols) * std::max(max_r, 1.0);
  constexpr double kFloor = 0.5;
  const double log_step =
      std::log(full_scale / kFloor) / static_cast<double>(config_.sense_levels);
  const SearchCost cost = search_cost();

  // Sensing draws from the array's one stream, so it runs serially, in
  // (query, repeat, row) order.
  std::vector<SearchResult> results(n_queries * repeats);
  for (std::size_t k = 0; k < results.size(); ++k) {
    const double* g_row = &g_rows[(k / repeats) * n_rows];
    SearchResult& result = results[k];
    result.sensed_distance.resize(n_rows);
    double best = HUGE_VAL;
    for (std::size_t r = 0; r < n_rows; ++r) {
      // Self-referenced: subtract the all-match baseline, express in single-
      // mismatch units; time jitter appears as noise proportional to the
      // metric (plus a one-unit floor from comparator offset).
      double metric = (g_row[r] - g_baseline) / g_unit;
      if (config_.sense_noise_rel > 0.0)
        metric += rng_.normal(0.0, config_.sense_noise_rel * (std::abs(metric) + 1.0));
      metric = std::clamp(metric, 0.0, full_scale);
      double sensed = 0.0;
      if (metric >= kFloor) {
        const double code = std::round(std::log(metric / kFloor) / log_step);
        sensed = kFloor * std::exp(code * log_step);
      }
      // A dead matchline sense amp reads full scale regardless of the match
      // state; the row can never win.  (The metric/noise path above still
      // runs so the RNG stream is identical with and without dead amps.)
      if (row_sense_dead_[r]) sensed = full_scale;
      result.sensed_distance[r] = sensed;
      if (!row_sense_dead_[r] && sensed < best) {
        best = sensed;
        result.best_row = r;
      }
    }
    if (result.best_row >= n_rows) result.best_row = 0;  // every amp dead
    result.cost = cost;
  }
  return results;
}

SearchResult FeFetCamArray::search(const std::vector<int>& query) const {
  return std::move(search_batch({query})[0]);
}

std::vector<std::size_t> FeFetCamArray::threshold_match(const std::vector<int>& query,
                                                        double threshold) const {
  const SearchResult res = search(query);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < res.sensed_distance.size(); ++r)
    if (res.sensed_distance[r] <= threshold) rows.push_back(r);
  return rows;
}

std::vector<std::size_t> FeFetCamArray::exact_match(const std::vector<int>& query) const {
  // A full match senses strictly below the half-unit floor and reads 0; the
  // smallest real mismatch reads >= 0.5 units.
  return threshold_match(query, 0.25);
}

double FeFetCamArray::ideal_distance(std::size_t row, const std::vector<int>& query) const {
  XLDS_REQUIRE(row < config_.rows);
  XLDS_REQUIRE(query.size() == config_.cols);
  double d = 0.0;
  for (std::size_t c = 0; c < config_.cols; ++c) {
    const int s = cells_[row][c].stored;
    if (s == kDontCare) continue;
    const double delta = static_cast<double>(query[c] - s);
    d += delta * delta;
  }
  return d;
}

SearchCost FeFetCamArray::search_cost() const {
  const auto& node = device::tech_node(config_.tech);
  // Search-line drivers: two vertical lines per column, each loaded by the
  // wire spanning all rows plus one gate per row.
  const circuit::WireSegment sl = wire_.span(config_.rows);
  circuit::DriverModel driver;
  driver.load_capacitance =
      sl.capacitance + static_cast<double>(config_.rows) * node.tx_gate_cap(node.min_tx_width_um);
  driver.swing = model_.params().vth_high;

  // Reference discharge: a one-unit mismatch — the slowest event the sensing
  // scheme must wait for.
  const double t_discharge =
      matchline_.discharge_time(matchline_.total_conductance(unit_conductance()));

  SearchCost cost;
  cost.latency = driver.latency() + t_discharge + sense_.latency() + wta_.latency(config_.rows);
  cost.energy = static_cast<double>(config_.rows) * matchline_.search_energy() +
                static_cast<double>(config_.rows) * sense_.energy() +
                2.0 * static_cast<double>(config_.cols) * driver.energy() +
                wta_.energy(config_.rows);
  return cost;
}

std::string to_string(MatchType t) {
  switch (t) {
    case MatchType::kExact: return "EX";
    case MatchType::kBest: return "BE";
    case MatchType::kThreshold: return "TH";
  }
  return "?";
}

std::string to_string(DistanceKind k) {
  switch (k) {
    case DistanceKind::kHamming: return "Hamming";
    case DistanceKind::kSquaredEuclidean: return "SquaredEuclidean";
  }
  return "?";
}

}  // namespace xlds::cam
