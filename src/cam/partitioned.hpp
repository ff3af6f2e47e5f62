// Subarray-partitioned associative search (Fig. 3F mechanism).
//
// A hypervector of N elements cannot be searched on one matchline: peripheral
// circuitry can only distinguish a bounded number of mismatch units, so the
// word is split across ceil(N / n) subarrays of width n.  How the per-
// subarray results are combined determines the aggregation error:
//   * kVote        — each subarray reports only its best-matching row; the
//                    row with the most votes wins.  Cheapest periphery, but
//                    produces the Fig. 3F-i failure case (globally-best row
//                    loses segment-by-segment).
//   * kSumSensed   — each subarray reports its quantised/saturated sensed
//                    distance; the sums are compared.  More periphery, less
//                    error — but saturation at the mismatch limit still
//                    loses information for small subarrays.
#pragma once

#include <cstddef>
#include <vector>

#include "cam/fefet_cam.hpp"
#include "cam/types.hpp"
#include "fault/policy.hpp"
#include "util/rng.hpp"

namespace xlds::cam {

enum class Aggregation {
  kVote,
  kSumSensed,
};

std::string to_string(Aggregation a);

struct PartitionedCamConfig {
  FeFetCamConfig subarray;    ///< geometry of one subarray; `cols` = segment width
  std::size_t total_width = 1024;  ///< full word width (HV dimensionality)
  Aggregation aggregation = Aggregation::kVote;
};

class PartitionedCam {
 public:
  PartitionedCam(PartitionedCamConfig config, Rng& rng);

  std::size_t segments() const noexcept { return segments_.size(); }
  std::size_t rows() const noexcept { return config_.subarray.rows; }
  std::size_t total_width() const noexcept { return config_.total_width; }

  /// Program a full-width word across all segments.  The final segment is
  /// padded with don't-care cells when total_width is not a multiple of the
  /// segment width.
  void write_word(std::size_t row, const std::vector<int>& digits);

  /// Best-match search for a batch of full-width queries, each `repeats`
  /// times, using the configured aggregation: one result per (query,
  /// repeat), in that order.  Also reports each search's combined circuit
  /// cost (segments operate in parallel: latency is the max, energy the
  /// sum).  Each segment owns its sense-noise stream, so the enabled
  /// segments search side by side (FeFetCamArray::search_batch) and their
  /// results combine in segment order: the results equal `repeats` search()
  /// calls per query in batch order, bit for bit, at any thread count.
  std::vector<SearchResult> search_batch(const std::vector<std::vector<int>>& queries,
                                         std::size_t repeats = 1) const;

  /// One query's search: a one-row search_batch.
  SearchResult search(const std::vector<int>& query) const;

  /// Ideal (software) best match: exact summed distance over the full word.
  std::size_t ideal_best_match(const std::vector<int>& query) const;

  /// Sample one defect map per segment from `spec`, apply spare remapping per
  /// the policies, load the residual maps into the subarrays, and (when
  /// subarray exclusion is enabled) disable segments whose residual fault
  /// fraction exceeds the threshold — always keeping at least one segment.
  /// One map is drawn per segment in index order from `rng`, so the stream
  /// advance is thread-count independent.
  fault::FaultInjectionStats inject_faults(const fault::FaultSpec& spec,
                                           const fault::GracefulPolicies& policies, Rng& rng);

  /// Apply `dt` seconds of retention loss to every segment.
  void age(double dt);

  std::size_t enabled_segments() const;
  std::size_t faulty_cell_count() const;

 private:
  std::vector<int> segment_slice(const std::vector<int>& full, std::size_t seg,
                                 int pad_value) const;

  PartitionedCamConfig config_;
  std::vector<FeFetCamArray> segments_;
  std::vector<std::uint8_t> segment_enabled_;  ///< 0 = excluded by policy
  std::vector<std::vector<int>> stored_words_;  ///< intended digits per row
};

}  // namespace xlds::cam
