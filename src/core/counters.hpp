// Process-wide event counters for the hot solver paths (relaxed atomics;
// header-only so low-level libraries — the nodal solver lives below
// xlds_core in the link order — can bump them without a dependency edge).
// Benches and the DSE engine snapshot these to report how often the nodal
// solver factorizes, substitutes and falls back to Gauss-Seidel; they are
// diagnostics, never inputs, so reading or resetting them cannot change any
// result.
#pragma once

#include <atomic>
#include <cstdint>

namespace xlds::core {

class Profiler {
 public:
  /// Snapshot of the nodal-solver counters (monotonic since process start or
  /// the last reset_nodal()).
  struct NodalCounts {
    std::uint64_t factorizations = 0;     ///< full envelope LDL^T builds
    std::uint64_t direct_solves = 0;      ///< substitutions against a cached factor
    std::uint64_t gs_solves = 0;          ///< iterative Gauss-Seidel solves
    std::uint64_t incremental_updates = 0;///< always 0; kept only because perfbench reads it
    std::uint64_t update_declines = 0;    ///< live factors dropped by a mutation
  };

  static void count_factorization() noexcept { nodal_factorizations_.fetch_add(1, kOrder); }
  static void count_direct_solve() noexcept { nodal_direct_solves_.fetch_add(1, kOrder); }
  static void count_gs_solve() noexcept { nodal_gs_solves_.fetch_add(1, kOrder); }
  static void count_update_decline() noexcept { nodal_update_declines_.fetch_add(1, kOrder); }

  /// Snapshot of the serving-loop counters (monotonic since process start or
  /// the last reset_serve()); bumped by src/serve/ as requests flow.
  struct ServeCounts {
    std::uint64_t requests_served = 0;     ///< classified and answered
    std::uint64_t requests_shed = 0;       ///< refused by admission control
    std::uint64_t requests_degraded = 0;   ///< answered in degraded mode
    std::uint64_t recalibrations = 0;      ///< refresh/reprogram events
    std::uint64_t cells_reprogrammed = 0;  ///< CAM + crossbar cells rewritten
  };

  static void count_request_served() noexcept { serve_served_.fetch_add(1, kOrder); }
  static void count_request_shed() noexcept { serve_shed_.fetch_add(1, kOrder); }
  static void count_request_degraded() noexcept { serve_degraded_.fetch_add(1, kOrder); }
  static void count_recalibration(std::uint64_t cells) noexcept {
    serve_recals_.fetch_add(1, kOrder);
    serve_cells_.fetch_add(cells, kOrder);
  }

  static ServeCounts serve() noexcept {
    ServeCounts c;
    c.requests_served = serve_served_.load(kOrder);
    c.requests_shed = serve_shed_.load(kOrder);
    c.requests_degraded = serve_degraded_.load(kOrder);
    c.recalibrations = serve_recals_.load(kOrder);
    c.cells_reprogrammed = serve_cells_.load(kOrder);
    return c;
  }

  static void reset_serve() noexcept {
    serve_served_.store(0, kOrder);
    serve_shed_.store(0, kOrder);
    serve_degraded_.store(0, kOrder);
    serve_recals_.store(0, kOrder);
    serve_cells_.store(0, kOrder);
  }

  /// Snapshot of the task-scheduler counters (monotonic since process start
  /// or the last reset_sched()); bumped by util::parallel as jobs dispatch.
  struct SchedCounts {
    std::uint64_t jobs = 0;            ///< batches dispatched to the pool
    std::uint64_t inline_jobs = 0;     ///< batches run inline (below the work floor / no lanes)
    std::uint64_t tasks = 0;           ///< tasks executed by their submitting lane
    std::uint64_t stolen_tasks = 0;    ///< tasks executed by a different lane
    std::uint64_t steal_failures = 0;  ///< full deque scans that found nothing
    std::uint64_t nested_cooperative = 0;  ///< nested jobs run via shared deques
    std::uint64_t nested_inlined = 0;      ///< nested jobs degraded to inline serial
  };

  static void count_sched_job() noexcept { sched_jobs_.fetch_add(1, kOrder); }
  static void count_sched_inline_job() noexcept { sched_inline_jobs_.fetch_add(1, kOrder); }
  static void count_sched_task(bool stolen) noexcept {
    (stolen ? sched_stolen_tasks_ : sched_tasks_).fetch_add(1, kOrder);
  }
  static void count_steal_failure() noexcept { sched_steal_failures_.fetch_add(1, kOrder); }
  static void count_sched_nested(bool cooperative) noexcept {
    (cooperative ? sched_nested_coop_ : sched_nested_inline_).fetch_add(1, kOrder);
  }

  static SchedCounts sched() noexcept {
    SchedCounts c;
    c.jobs = sched_jobs_.load(kOrder);
    c.inline_jobs = sched_inline_jobs_.load(kOrder);
    c.tasks = sched_tasks_.load(kOrder);
    c.stolen_tasks = sched_stolen_tasks_.load(kOrder);
    c.steal_failures = sched_steal_failures_.load(kOrder);
    c.nested_cooperative = sched_nested_coop_.load(kOrder);
    c.nested_inlined = sched_nested_inline_.load(kOrder);
    return c;
  }

  static void reset_sched() noexcept {
    sched_jobs_.store(0, kOrder);
    sched_inline_jobs_.store(0, kOrder);
    sched_tasks_.store(0, kOrder);
    sched_stolen_tasks_.store(0, kOrder);
    sched_steal_failures_.store(0, kOrder);
    sched_nested_coop_.store(0, kOrder);
    sched_nested_inline_.store(0, kOrder);
  }

  /// Fold an externally measured delta into the counters — the shard pool
  /// uses this to credit the parent process with the nodal/scheduler work
  /// its forked workers reported over the wire, so per-run deltas keep
  /// meaning "work done on behalf of this run" at any shard count.
  static void add_nodal(const NodalCounts& d) noexcept {
    nodal_factorizations_.fetch_add(d.factorizations, kOrder);
    nodal_direct_solves_.fetch_add(d.direct_solves, kOrder);
    nodal_gs_solves_.fetch_add(d.gs_solves, kOrder);
    nodal_update_declines_.fetch_add(d.update_declines, kOrder);
  }

  static void add_sched(const SchedCounts& d) noexcept {
    sched_jobs_.fetch_add(d.jobs, kOrder);
    sched_inline_jobs_.fetch_add(d.inline_jobs, kOrder);
    sched_tasks_.fetch_add(d.tasks, kOrder);
    sched_stolen_tasks_.fetch_add(d.stolen_tasks, kOrder);
    sched_steal_failures_.fetch_add(d.steal_failures, kOrder);
    sched_nested_coop_.fetch_add(d.nested_cooperative, kOrder);
    sched_nested_inline_.fetch_add(d.nested_inlined, kOrder);
  }

  static NodalCounts nodal() noexcept {
    NodalCounts c;
    c.factorizations = nodal_factorizations_.load(kOrder);
    c.direct_solves = nodal_direct_solves_.load(kOrder);
    c.gs_solves = nodal_gs_solves_.load(kOrder);
    c.update_declines = nodal_update_declines_.load(kOrder);
    return c;
  }

  static void reset_nodal() noexcept {
    nodal_factorizations_.store(0, kOrder);
    nodal_direct_solves_.store(0, kOrder);
    nodal_gs_solves_.store(0, kOrder);
    nodal_update_declines_.store(0, kOrder);
  }

 private:
  static constexpr std::memory_order kOrder = std::memory_order_relaxed;
  inline static std::atomic<std::uint64_t> nodal_factorizations_{0};
  inline static std::atomic<std::uint64_t> nodal_direct_solves_{0};
  inline static std::atomic<std::uint64_t> nodal_gs_solves_{0};
  inline static std::atomic<std::uint64_t> nodal_update_declines_{0};
  inline static std::atomic<std::uint64_t> serve_served_{0};
  inline static std::atomic<std::uint64_t> serve_shed_{0};
  inline static std::atomic<std::uint64_t> serve_degraded_{0};
  inline static std::atomic<std::uint64_t> serve_recals_{0};
  inline static std::atomic<std::uint64_t> serve_cells_{0};
  inline static std::atomic<std::uint64_t> sched_jobs_{0};
  inline static std::atomic<std::uint64_t> sched_inline_jobs_{0};
  inline static std::atomic<std::uint64_t> sched_tasks_{0};
  inline static std::atomic<std::uint64_t> sched_stolen_tasks_{0};
  inline static std::atomic<std::uint64_t> sched_steal_failures_{0};
  inline static std::atomic<std::uint64_t> sched_nested_coop_{0};
  inline static std::atomic<std::uint64_t> sched_nested_inline_{0};
};

}  // namespace xlds::core
