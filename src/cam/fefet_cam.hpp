// Functional multi-bit FeFET CAM subarray (Secs. II-B1 and III).
//
// Cell: two FeFETs sharing a matchline (Fig. 2B).  A cell storing level s out
// of L encodes V_th(s) in one device and the complementary V_th(L-1-s) in the
// other; the query drives the first gate with the search voltage for level q
// and the second with the complement.  A matching cell leaves both devices
// below threshold; a mismatching cell turns one device on with gate overdrive
// proportional to |q - s| level steps, so the square-law device conducts
// ~|q - s|^2 — the cell natively computes a squared-Euclidean contribution
// (Fig. 3D).  With 1-bit cells this degenerates to the classic XNOR TCAM and
// a Hamming distance.
//
// The array senses each matchline's total pull-down conductance through a
// quantising distance sensor with a saturation point set by the matchline
// mismatch limit — exactly the peripheral-resolution constraint that forces
// the subarray partitioning studied in Fig. 3F.
#pragma once

#include <cstddef>
#include <vector>

#include "cam/types.hpp"
#include "circuit/matchline.hpp"
#include "circuit/senseamp.hpp"
#include "circuit/wire.hpp"
#include "device/fefet.hpp"
#include "device/technology.hpp"
#include "fault/fault_map.hpp"
#include "util/rng.hpp"

namespace xlds::cam {

struct FeFetCamConfig {
  device::FeFetParams fefet;       ///< device model parameters (bits per cell...)
  std::size_t rows = 64;           ///< words per subarray
  std::size_t cols = 64;           ///< cells per word
  std::string tech = "40nm";       ///< technology node for parasitics
  double cell_pitch_f = 12.0;      ///< matchline pitch per 2-FeFET cell, in F
  circuit::MatchlineParams matchline;  ///< precharge/sense voltages, leakage
  circuit::SenseAmpParams sense;   ///< sensing circuit capabilities
  bool apply_variation = true;     ///< sample programming variation on writes
  std::size_t sense_levels = 128;  ///< quantisation steps of distance sensing
  double sense_noise_rel = 0.02;   ///< sensing noise sigma, fraction of full scale
};

class FeFetCamArray {
 public:
  /// The RNG seeds per-cell programming variation; it is forked internally so
  /// the caller's stream is perturbed exactly once per constructed array.
  FeFetCamArray(FeFetCamConfig config, Rng& rng);

  std::size_t rows() const noexcept { return config_.rows; }
  std::size_t cols() const noexcept { return config_.cols; }
  int levels() const { return model_.params().levels(); }
  const FeFetCamConfig& config() const noexcept { return config_; }
  const device::FeFetModel& device_model() const noexcept { return model_; }

  /// Program a word: `digits` holds one level in [0, levels) or kDontCare per
  /// cell.  Programming variation is sampled here (write-time, not search-
  /// time, matching physical behaviour).  Faulted cells record the intended
  /// digit but are not programmed (their conductance stays pinned).
  void write_word(std::size_t row, const std::vector<int>& digits);

  /// Apply a defect map (same geometry as the array).  Stuck-on cells pull
  /// the matchline permanently (a mismatch for every query), stuck-off and
  /// open cells never conduct (a permanent match), and rows whose matchline
  /// sense amp is dead sense full scale and are excluded from best-row
  /// selection.  Consumes no RNG.
  void apply_fault_map(const fault::FaultMap& map);

  /// Apply `dt` seconds of retention loss to every non-faulted device.
  void age(double dt);

  std::size_t faulty_cell_count() const;
  std::size_t dead_sense_rows() const;

  /// Stored digit as it would be *read back* level-wise (post-variation).
  int readback_digit(std::size_t row, std::size_t col) const;

  /// Search a batch of full-width queries (one level per cell), each
  /// `repeats` times (majority re-query): one result per (query, repeat), in
  /// that order, each with the sensed distances per row, the best row and
  /// the circuit-level cost.  Results equal `repeats` search() calls per
  /// query in batch order, bit for bit, at any thread count: a row's
  /// conductance sum is a pure function of the query, and sense noise is
  /// drawn from the array's stream in (query, repeat, row) order.
  std::vector<SearchResult> search_batch(const std::vector<std::vector<int>>& queries,
                                         std::size_t repeats = 1) const;

  /// One query's search: a one-row search_batch.
  SearchResult search(const std::vector<int>& query) const;

  /// Rows whose sensed distance is <= `threshold` (in sensed-metric units of
  /// squared level steps) — the TH match of Fig. 2C.
  std::vector<std::size_t> threshold_match(const std::vector<int>& query, double threshold) const;

  /// True exact match (EX): rows whose sensed distance is at the zero code.
  std::vector<std::size_t> exact_match(const std::vector<int>& query) const;

  /// Analog conductance of a single cell for a continuous input voltage —
  /// the Fig. 3D transfer-curve probe.  `stored_level` uses nominal V_th
  /// (no variation) so the curve is the ideal cell characteristic.
  double cell_transfer_conductance(double v_in, int stored_level) const;

  /// Ideal (noise-free, unquantised) distance between query and the stored
  /// word: sum of squared level differences (don't-care cells contribute 0).
  double ideal_distance(std::size_t row, const std::vector<int>& query) const;

  /// Circuit-level cost of one search over this subarray.
  SearchCost search_cost() const;

  /// Mismatch limit of the matchline at this geometry (max distinguishable
  /// distance steps), from the circuit model.
  std::size_t mismatch_limit() const;

 private:
  struct Cell {
    int stored = kDontCare;
    double vth_a = 0.0;  ///< programmed V_th of the "upper" device
    double vth_b = 0.0;  ///< programmed V_th of the complementary device
    fault::CellFault fault = fault::CellFault::kNone;
  };

  double cell_conductance(const Cell& cell, int query_digit) const;
  /// Pull-down of a stuck-on defect: both devices fully on at the maximum
  /// gate overdrive — a worst-case, query-independent mismatch.
  double stuck_on_conductance() const;
  /// Conductance of a nominally matching cell (both devices at the
  /// sub-threshold bias) — the self-reference the sensing subtracts.
  double match_baseline_conductance() const;
  /// Incremental conductance of a one-level-step mismatch over the match
  /// baseline — the sensing's unit.
  double unit_conductance() const;

  FeFetCamConfig config_;
  device::FeFetModel model_;
  circuit::WireModel wire_;
  circuit::MatchlineModel matchline_;
  circuit::SenseAmp sense_;
  circuit::WinnerTakeAll wta_;
  mutable Rng rng_;
  std::vector<std::vector<Cell>> cells_;  ///< [row][col]
  std::vector<std::uint8_t> row_sense_dead_;  ///< 1 = matchline SA dead
};

}  // namespace xlds::cam
