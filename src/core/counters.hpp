// Process-wide event counters for the hot solver paths (relaxed atomics;
// header-only so low-level libraries — the nodal solver lives below
// xlds_core in the link order — can bump them without a dependency edge).
// Benches and the DSE engine snapshot these to report how often the nodal
// solver factorizes, substitutes and falls back to Gauss-Seidel; they are
// diagnostics, never inputs, so reading or resetting them cannot change any
// result.
//
// Each counts struct lists its fields once, in each(); the arithmetic, the
// Profiler's snapshot/fold/reset and the shard wire's counts blocks all walk
// that list.
#pragma once

#include <atomic>
#include <cstdint>

namespace xlds::core {

/// Nodal-solver counters.
struct NodalCounts {
  std::uint64_t factorizations = 0;     ///< full envelope LDL^T builds
  std::uint64_t direct_solves = 0;      ///< substitutions against a cached factor
  std::uint64_t gs_solves = 0;          ///< iterative Gauss-Seidel solves
  std::uint64_t incremental_updates = 0;///< always 0; kept only because perfbench reads it
  std::uint64_t update_declines = 0;    ///< live factors dropped by a mutation

  /// Calls f with the same field of every argument, field by field.
  template <class F, class... S>
  static void each(F&& f, S&... s) {
    f(s.factorizations...);
    f(s.direct_solves...);
    f(s.gs_solves...);
    f(s.incremental_updates...);
    f(s.update_declines...);
  }

  NodalCounts& operator+=(const NodalCounts& d) noexcept {
    each([](std::uint64_t& a, std::uint64_t b) { a += b; }, *this, d);
    return *this;
  }
  friend NodalCounts operator-(NodalCounts a, const NodalCounts& b) noexcept {
    each([](std::uint64_t& x, std::uint64_t y) { x -= y; }, a, b);
    return a;
  }
  bool operator==(const NodalCounts&) const = default;
};

/// Serving-loop counters; bumped by src/serve/ as requests flow.
struct ServeCounts {
  std::uint64_t requests_served = 0;     ///< classified and answered
  std::uint64_t requests_shed = 0;       ///< refused by admission control
  std::uint64_t requests_degraded = 0;   ///< answered in degraded mode
  std::uint64_t recalibrations = 0;      ///< refresh/reprogram events
  std::uint64_t cells_reprogrammed = 0;  ///< CAM + crossbar cells rewritten

  template <class F, class... S>
  static void each(F&& f, S&... s) {
    f(s.requests_served...);
    f(s.requests_shed...);
    f(s.requests_degraded...);
    f(s.recalibrations...);
    f(s.cells_reprogrammed...);
  }
};

/// Task-scheduler counters; bumped by util::parallel as jobs dispatch.
struct SchedCounts {
  std::uint64_t jobs = 0;            ///< batches dispatched to the pool
  std::uint64_t inline_jobs = 0;     ///< batches run inline (below the work floor / no lanes)
  std::uint64_t tasks = 0;           ///< tasks executed by their submitting lane
  std::uint64_t stolen_tasks = 0;    ///< tasks executed by a different lane
  std::uint64_t steal_failures = 0;  ///< full deque scans that found nothing
  std::uint64_t nested_cooperative = 0;  ///< nested jobs run via shared deques
  std::uint64_t nested_inlined = 0;      ///< nested jobs degraded to inline serial

  template <class F, class... S>
  static void each(F&& f, S&... s) {
    f(s.jobs...);
    f(s.inline_jobs...);
    f(s.tasks...);
    f(s.stolen_tasks...);
    f(s.steal_failures...);
    f(s.nested_cooperative...);
    f(s.nested_inlined...);
  }

  SchedCounts& operator+=(const SchedCounts& d) noexcept {
    each([](std::uint64_t& a, std::uint64_t b) { a += b; }, *this, d);
    return *this;
  }
  friend SchedCounts operator-(SchedCounts a, const SchedCounts& b) noexcept {
    each([](std::uint64_t& x, std::uint64_t y) { x -= y; }, a, b);
    return a;
  }
  bool operator==(const SchedCounts&) const = default;
};

class Profiler {
 public:
  using NodalCounts = core::NodalCounts;
  using ServeCounts = core::ServeCounts;
  using SchedCounts = core::SchedCounts;

  static void count_factorization() noexcept { bump(nodal_.factorizations); }
  static void count_direct_solve() noexcept { bump(nodal_.direct_solves); }
  static void count_gs_solve() noexcept { bump(nodal_.gs_solves); }
  static void count_update_decline() noexcept { bump(nodal_.update_declines); }

  static void count_request_served() noexcept { bump(serve_.requests_served); }
  static void count_request_shed() noexcept { bump(serve_.requests_shed); }
  static void count_request_degraded() noexcept { bump(serve_.requests_degraded); }
  static void count_recalibration(std::uint64_t cells) noexcept {
    bump(serve_.recalibrations);
    bump(serve_.cells_reprogrammed, cells);
  }

  static void count_sched_job() noexcept { bump(sched_.jobs); }
  static void count_sched_inline_job() noexcept { bump(sched_.inline_jobs); }
  static void count_sched_task(bool stolen) noexcept {
    bump(stolen ? sched_.stolen_tasks : sched_.tasks);
  }
  static void count_steal_failure() noexcept { bump(sched_.steal_failures); }
  static void count_sched_nested(bool cooperative) noexcept {
    bump(cooperative ? sched_.nested_cooperative : sched_.nested_inlined);
  }

  /// Snapshots, monotonic since process start or the last reset.
  static NodalCounts nodal() noexcept { return load(nodal_); }
  static ServeCounts serve() noexcept { return load(serve_); }
  static SchedCounts sched() noexcept { return load(sched_); }

  static void reset_nodal() noexcept { reset(nodal_); }
  static void reset_serve() noexcept { reset(serve_); }

  /// Fold an externally measured delta into the counters — the shard pool
  /// uses this to credit the parent process with the nodal/scheduler work
  /// its forked workers reported over the wire, so per-run deltas keep
  /// meaning "work done on behalf of this run" at any shard count.
  static void add_nodal(const NodalCounts& d) noexcept { add(nodal_, d); }
  static void add_sched(const SchedCounts& d) noexcept { add(sched_, d); }

 private:
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  using Cell = std::atomic_ref<std::uint64_t>;
  static_assert(alignof(std::uint64_t) >= Cell::required_alignment);

  static void bump(std::uint64_t& cell, std::uint64_t n = 1) noexcept {
    Cell(cell).fetch_add(n, kOrder);
  }
  template <class Counts>
  static Counts load(Counts& cells) noexcept {
    Counts c;
    Counts::each([](std::uint64_t& v, std::uint64_t& cell) { v = Cell(cell).load(kOrder); }, c,
                 cells);
    return c;
  }
  template <class Counts>
  static void add(Counts& cells, const Counts& d) noexcept {
    Counts::each([](std::uint64_t& cell, std::uint64_t v) { bump(cell, v); }, cells, d);
  }
  template <class Counts>
  static void reset(Counts& cells) noexcept {
    Counts::each([](std::uint64_t& cell) { Cell(cell).store(0, kOrder); }, cells);
  }

  // Plain structs, touched only through std::atomic_ref, so the one field
  // list per struct also drives the snapshot, the fold and the reset.
  inline static NodalCounts nodal_{};
  inline static ServeCounts serve_{};
  inline static SchedCounts sched_{};
};

}  // namespace xlds::core
