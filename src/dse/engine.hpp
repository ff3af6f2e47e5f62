// The exploration engine: wires a SearchDriver to the fidelity ladder, the
// budget ledger, the journal and the thread pool, and distils the raw
// request stream into a Pareto front + triage ranking.
//
// Determinism contract (tested): for a fixed EngineConfig, explore() returns
// bit-identical results at any XLDS_THREADS — and a run that crashed mid-way
// and is re-launched against its journal produces bit-identical results to a
// run that never crashed.  The engine gets this by construction rather than
// by careful bookkeeping: driver trajectories are pure functions of the seed
// (never of journal or memo state), FOM values are pure functions of the
// job, and budget is charged per first request, so a journal only changes
// *how fast* values arrive, never *which* values arrive.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/pareto.hpp"
#include "dse/driver.hpp"
#include "dse/fidelity.hpp"
#include "dse/space.hpp"
#include "surrogate/model.hpp"

namespace xlds::dse {

struct EngineConfig {
  core::SpaceAxes axes;                       ///< empty = full grid
  std::string application = "isolet-like";
  std::string strategy = "nsga2";
  /// Unique (point, tier) charges the search may make.  0 = one per viable
  /// point, i.e. the cost of brute-force enumeration at a single tier.
  std::size_t budget = 0;
  std::uint64_t seed = 1;
  DriverParams driver;
  FidelityConfig fidelity;
  /// Learned tier-0 rung: when enabled, drivers screen candidates through a
  /// regression forest trained on this job's evaluation history and promote
  /// only uncertain or front-candidate points to the physics tiers.  Every
  /// prediction is journaled, so resume stays bit-identical by construction.
  surrogate::SurrogateConfig surrogate;
  std::string journal_path;                   ///< empty: in-memory, no resume
  core::TriageWeights weights;
  /// Evaluation shard processes for the physics tiers: 1 = in-process; N > 1
  /// forks N workers (src/shard/).  0 = read XLDS_SHARDS (default 1).
  /// Speed-only by contract: FOMs, journal bytes and results are
  /// bit-identical at any shard count.
  std::size_t shards = 0;
  /// Persistent cross-run result cache file (shard::ResultCache); empty =
  /// off.  Also speed-only: cached values are bit-exact, so journal bytes
  /// and results match a cache-less run.
  std::string cache_path;
  /// Test hook simulating a crash: after this many journal appends the
  /// engine throws AbortInjected, leaving the journal exactly as a kill -9
  /// at that moment would.  0 disables.
  std::size_t abort_after_computed = 0;
  /// Test hook: SIGKILL one shard worker after this many shard-evaluated
  /// point results have merged (0 = off) — exercises crash recovery.
  std::size_t kill_shard_worker_after = 0;
};

struct ExplorationStats {
  std::size_t charges = 0;         ///< unique (point, tier) *ladder* charges
  std::size_t computed = 0;        ///< pairs paid with model/predict time
  std::size_t journal_hits = 0;    ///< pairs served from the journal
  std::size_t repeat_requests = 0; ///< free re-requests of charged pairs
  std::size_t culled_requests = 0; ///< free structural-cull requests
  /// [kSurrogate] counts queries (exchanged at queries_per_charge), the
  /// physics tiers count full budget charges.
  std::array<std::size_t, kFidelityTiers> charges_by_tier{};
  bool resumed = false;            ///< journal file existed at open
  std::size_t journal_replayed = 0;
  std::size_t journal_dropped_bytes = 0;
  // Surrogate-rung accounting.
  std::size_t surrogate_queries = 0;        ///< unique points predicted
  std::size_t surrogate_hits = 0;           ///< queries that never promoted
  std::size_t surrogate_promotions = 0;     ///< predicted points later paid real
  std::size_t surrogate_refits = 0;         ///< forest fits this run
  std::size_t surrogate_disagreements = 0;  ///< real-vs-predicted rel err over limit
  /// Ladder-charge equivalents the queries cost (queries / queries_per_charge).
  double surrogate_budget_units = 0.0;
  // Shard-pool + persistent-cache accounting.  Speed-only diagnostics, like
  // `nodal` below: none of these influence any value or search decision.
  std::size_t shards_used = 1;          ///< evaluation processes (1 = in-process)
  std::size_t shard_requests = 0;       ///< wire requests dispatched
  std::size_t shard_redispatches = 0;   ///< always 0; kept only because perfbench reads it
  std::size_t shard_respawns = 0;       ///< workers respawned after dying
  std::size_t cache_hits = 0;           ///< pairs served from the persistent cache
  std::size_t cache_appends = 0;        ///< pairs appended to the persistent cache
  /// Nodal-solver work done on behalf of this run (delta of the process-wide
  /// core::Profiler counters across explore()): how many envelope
  /// factorizations and substitutions the high-fidelity tiers paid for.
  /// Diagnostics only — never an input to any search decision — so they are
  /// omitted from resume-comparable (--no-stats) output.
  core::Profiler::NodalCounts nodal{};
  /// Task-scheduler work done on behalf of this run (delta of the
  /// process-wide util::parallel counters across explore()) plus the wall
  /// time the evaluation lanes spent busy per fidelity tier.  Same
  /// diagnostics-only status as `nodal`.
  struct SchedulerStats {
    core::Profiler::SchedCounts counts{};
    std::array<double, kFidelityTiers> tier_busy_s{};
  };
  SchedulerStats scheduler{};
};

struct ExplorationResult {
  std::string strategy;
  std::uint64_t seed = 0;
  std::size_t budget = 0;
  std::uint64_t job_hash = 0;
  /// Every distinct design the search paid for, in first-charge order, each
  /// carrying its FOM from the highest tier it reached.  Distinct by
  /// construction — the budget ledger is the dedup set.
  std::vector<core::ScoredPoint> evaluated;
  std::vector<Fidelity> tiers;       ///< tier of each evaluated[i]'s FOM
  std::vector<std::size_t> front;    ///< Pareto indices into evaluated
  std::vector<std::size_t> ranking;  ///< triage order, indices into evaluated
  ExplorationStats stats;
};

/// Thrown by the abort_after_computed test hook (never during normal runs).
class AbortInjected : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Journal compatibility hash: everything a stored FOM value depends on —
/// space axes, application, fidelity settings — and nothing a search
/// trajectory depends on, so one journal serves any strategy/seed/budget.
std::uint64_t job_hash(const SearchSpace& space, const FidelityLadder& ladder);

ExplorationResult explore(const EngineConfig& config);

}  // namespace xlds::dse
