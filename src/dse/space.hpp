// The search space a DSE run explores: a (possibly axis-restricted) view of
// the core device x architecture x algorithm grid for one application.
//
// Points are addressed by their device-major index within the resolved axes
// (core::point_index), which gives every design a stable 64-bit identity —
// the key the result journal, the dedup set and the drivers all share.
// Structural culls (core::incompatibility) are exposed here because they are
// *free*: a driver that checks culled() before proposing never spends budget
// on a point enumeration would have discarded anyway, keeping the "budget =
// fraction of full enumeration's evaluator calls" comparison honest.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/design_space.hpp"

namespace xlds::dse {

class SearchSpace {
 public:
  /// Axes are resolved (empty -> full) at construction.
  explicit SearchSpace(core::SpaceAxes axes = {}, std::string application = "isolet-like");

  const core::SpaceAxes& axes() const noexcept { return axes_; }
  const std::string& application() const noexcept { return application_; }

  /// Raw combinations in the space — the denominator of a search budget.
  std::size_t size() const noexcept { return size_; }

  core::DesignPoint at(std::size_t index) const;
  std::size_t index_of(const core::DesignPoint& p) const;

  /// Structural incompatibility check (free — no evaluator budget).
  bool culled(std::size_t index) const;

  /// Number of structurally viable points (computed once at construction):
  /// the ceiling on how many distinct designs any search can evaluate.
  std::size_t viable_count() const noexcept { return viable_; }

  /// Identity hash of (axes, application) — journal compatibility guard.
  std::uint64_t hash() const noexcept { return hash_; }

 private:
  core::SpaceAxes axes_;
  std::string application_;
  std::size_t size_ = 0;
  std::size_t viable_ = 0;
  std::uint64_t hash_ = 0;
};

}  // namespace xlds::dse
