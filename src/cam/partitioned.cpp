#include "cam/partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::cam {

std::string to_string(Aggregation a) {
  switch (a) {
    case Aggregation::kVote: return "vote";
    case Aggregation::kSumSensed: return "sum-sensed";
  }
  return "?";
}

PartitionedCam::PartitionedCam(PartitionedCamConfig config, Rng& rng) : config_(config) {
  XLDS_REQUIRE(config_.total_width >= 1);
  XLDS_REQUIRE(config_.subarray.cols >= 1);
  const std::size_t n_seg =
      (config_.total_width + config_.subarray.cols - 1) / config_.subarray.cols;
  segments_.reserve(n_seg);
  for (std::size_t s = 0; s < n_seg; ++s) segments_.emplace_back(config_.subarray, rng);
  segment_enabled_.assign(n_seg, 1);
  stored_words_.assign(config_.subarray.rows, {});
}

fault::FaultInjectionStats PartitionedCam::inject_faults(const fault::FaultSpec& spec,
                                                         const fault::GracefulPolicies& policies,
                                                         Rng& rng) {
  fault::FaultInjectionStats stats;
  const std::size_t seg_cells = config_.subarray.rows * config_.subarray.cols;
  std::vector<double> residual_fraction(segments_.size(), 0.0);
  for (std::size_t s = 0; s < segments_.size(); ++s) {
    const fault::RemapOutcome out = fault::remapped_fault_map(
        config_.subarray.rows, config_.subarray.cols, spec, policies, rng);
    segments_[s].apply_fault_map(out.residual);
    stats.injected_cells += out.unrepaired_faults;
    stats.residual_cells += out.residual.fault_count();
    stats.remapped_rows += out.plan.remapped_rows;
    stats.remapped_cols += out.plan.remapped_cols;
    residual_fraction[s] = static_cast<double>(out.plan.residual_faults) /
                           static_cast<double>(seg_cells);
  }
  segment_enabled_.assign(segments_.size(), 1);
  if (policies.exclude_subarrays) {
    for (std::size_t s = 0; s < segments_.size(); ++s)
      if (residual_fraction[s] > policies.exclusion_threshold) segment_enabled_[s] = 0;
    // Aggregation needs at least one live segment; keep the cleanest.
    if (std::find(segment_enabled_.begin(), segment_enabled_.end(), 1) ==
        segment_enabled_.end()) {
      const std::size_t best = static_cast<std::size_t>(
          std::min_element(residual_fraction.begin(), residual_fraction.end()) -
          residual_fraction.begin());
      segment_enabled_[best] = 1;
    }
    for (auto enabled : segment_enabled_)
      if (!enabled) ++stats.excluded_segments;
  }
  return stats;
}

void PartitionedCam::age(double dt) {
  for (FeFetCamArray& seg : segments_) seg.age(dt);
}

std::size_t PartitionedCam::enabled_segments() const {
  std::size_t n = 0;
  for (auto enabled : segment_enabled_)
    if (enabled) ++n;
  return n;
}

std::size_t PartitionedCam::faulty_cell_count() const {
  std::size_t n = 0;
  for (const FeFetCamArray& seg : segments_) n += seg.faulty_cell_count();
  return n;
}

std::vector<int> PartitionedCam::segment_slice(const std::vector<int>& full, std::size_t seg,
                                               int pad_value) const {
  const std::size_t w = config_.subarray.cols;
  std::vector<int> slice(w, pad_value);
  const std::size_t begin = seg * w;
  const std::size_t end = std::min(begin + w, full.size());
  for (std::size_t i = begin; i < end; ++i) slice[i - begin] = full[i];
  return slice;
}

void PartitionedCam::write_word(std::size_t row, const std::vector<int>& digits) {
  XLDS_REQUIRE_MSG(digits.size() == config_.total_width,
                   "word width " << digits.size() << " != " << config_.total_width);
  for (std::size_t s = 0; s < segments_.size(); ++s)
    segments_[s].write_word(row, segment_slice(digits, s, kDontCare));
  stored_words_[row] = digits;
}

std::vector<SearchResult> PartitionedCam::search_batch(
    const std::vector<std::vector<int>>& queries, std::size_t repeats) const {
  XLDS_REQUIRE_MSG(repeats >= 1, "a search needs at least one repeat");
  for (const std::vector<int>& query : queries)
    XLDS_REQUIRE_MSG(query.size() == config_.total_width,
                     "query width " << query.size() << " != " << config_.total_width);
  const std::size_t n_rows = config_.subarray.rows;

  // Each segment draws sense noise from its own stream, so the segments are
  // independent: any split of them across lanes gives the same bytes.  A
  // task covers at least kMinTaskCells cells searched, so a small search
  // runs inline.
  constexpr std::size_t kMinTaskCells = 4096;
  const std::size_t segment_cells =
      std::max<std::size_t>(1, queries.size() * n_rows * config_.subarray.cols);
  std::vector<std::vector<SearchResult>> per_segment(segments_.size());
  parallel_for(
      segments_.size(), 1,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t seg_index = begin; seg_index < end; ++seg_index) {
          if (!segment_enabled_[seg_index]) continue;  // excluded by the fault policy
          // Queries into padded tail cells use level 0; the stored pad cells
          // are don't-care so they contribute no conductance either way.
          std::vector<std::vector<int>> slices(queries.size());
          for (std::size_t qi = 0; qi < queries.size(); ++qi)
            slices[qi] = segment_slice(queries[qi], seg_index, 0);
          per_segment[seg_index] = segments_[seg_index].search_batch(slices, repeats);
        }
      },
      (kMinTaskCells + segment_cells - 1) / segment_cells);

  std::vector<SearchResult> results(queries.size() * repeats);
  std::vector<double> votes(n_rows);
  for (std::size_t k = 0; k < results.size(); ++k) {
    SearchResult& combined = results[k];
    combined.sensed_distance.assign(n_rows, 0.0);
    std::fill(votes.begin(), votes.end(), 0.0);
    double max_latency = 0.0;
    for (std::size_t seg_index = 0; seg_index < segments_.size(); ++seg_index) {
      if (!segment_enabled_[seg_index]) continue;
      const SearchResult& res = per_segment[seg_index][k];
      max_latency = std::max(max_latency, res.cost.latency);
      combined.cost.energy += res.cost.energy;
      for (std::size_t r = 0; r < n_rows; ++r)
        combined.sensed_distance[r] += res.sensed_distance[r];
      if (config_.aggregation == Aggregation::kVote) votes[res.best_row] += 1.0;
    }
    combined.cost.latency = max_latency;

    if (config_.aggregation == Aggregation::kVote) {
      // Most votes wins; ties break toward the smaller summed sensed
      // distance, then the lower row index.
      std::size_t best = 0;
      for (std::size_t r = 1; r < n_rows; ++r) {
        if (votes[r] > votes[best] ||
            (votes[r] == votes[best] &&
             combined.sensed_distance[r] < combined.sensed_distance[best]))
          best = r;
      }
      combined.best_row = best;
    } else {
      combined.best_row =
          static_cast<std::size_t>(std::min_element(combined.sensed_distance.begin(),
                                                    combined.sensed_distance.end()) -
                                   combined.sensed_distance.begin());
    }
  }
  return results;
}

SearchResult PartitionedCam::search(const std::vector<int>& query) const {
  return std::move(search_batch({query})[0]);
}

std::size_t PartitionedCam::ideal_best_match(const std::vector<int>& query) const {
  XLDS_REQUIRE(query.size() == config_.total_width);
  std::size_t best = 0;
  double best_d = HUGE_VAL;
  for (std::size_t r = 0; r < stored_words_.size(); ++r) {
    XLDS_REQUIRE_MSG(!stored_words_[r].empty(), "row " << r << " was never written");
    double d = 0.0;
    for (std::size_t i = 0; i < config_.total_width; ++i) {
      const int s = stored_words_[r][i];
      if (s == kDontCare) continue;
      const double delta = static_cast<double>(query[i] - s);
      d += delta * delta;
    }
    if (d < best_d) {
      best_d = d;
      best = r;
    }
  }
  return best;
}

}  // namespace xlds::cam
