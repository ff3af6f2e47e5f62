// Multi-process evaluation shard pool.
//
// Why processes and not just the in-process thread pool: the heavy fidelity
// tiers sit on top of memoized per-device caches (IR-drop envelopes, Monte
// Carlo probe curves) guarded by mutexes that serialise first-touch, and a
// single address space caps the useful width at one machine's cores anyway.
// Forked shards give each worker its own cache arena and scheduler.
//
// Determinism contract (inherits the journal's): sharding changes *where* a
// point is priced, never *what* it evaluates to.  The pool guarantees the
// FOMs it returns for a batch are exactly what in-process evaluation would
// have produced, in the same caller-visible order, because
//
//   1. the caller hands the batch already sorted (the engine's LPT order) and
//      results are merged back by batch position, not by arrival time;
//   2. every worker runs the same pure evaluator, so a request dispatched
//      twice — work stealing below is *steal by redispatch* — returns
//      bit-identical bytes whichever copy lands first;
//   3. a SIGKILLed worker only loses un-acknowledged requests, which are
//      re-queued ahead of pending work and charged once by the engine's
//      first-request ledger rule exactly as if the crash never happened.
//
// Dispatch: the batch is cut into contiguous groups of at most
// `max_points_per_request` points; each worker keeps up to
// `inflight_per_worker` requests in flight (so the socket hides latency).
// When the queue drains, an idle worker is handed a *duplicate* of the
// in-flight group with the fewest copies — the slow-shard tail shrinks to
// one group's cost without any result ever depending on who won.
//
// Fork safety: every spawn calls parallel_quiesce_for_fork() first (see
// util/parallel.hpp for the contract), so the child is born single-threaded
// and rebuilds its own pool lazily at the width the Hello names.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include <sys/types.h>

#include "shard/worker.hpp"

namespace xlds::shard {

/// Validated XLDS_SHARDS (warning + fallback on garbage); 1 when unset.
std::size_t env_shard_count();

struct ShardConfig {
  std::size_t shards = 2;
  /// Pool width each worker runs at; 0 = parent width / shards (min 1).
  /// Clamped to 1 when built under ThreadSanitizer (a forked child must not
  /// create threads under TSan).
  std::size_t worker_threads = 0;
  std::size_t inflight_per_worker = 2;
  std::size_t max_points_per_request = 32;
  /// Worker deaths tolerated before the pool gives up respawning; the pool
  /// only throws once no worker is left alive.
  std::size_t max_respawns = 8;

  std::uint64_t job_hash = 0;   ///< identity every worker must ack
  std::string job_json;         ///< kept only because perfbench/dse_workloads.cpp assigns it
  std::string application;      ///< application bound to every wire point
  PointEvaluator evaluator;     ///< required; each forked worker inherits it

  /// Test hook: SIGKILL worker 0 once this many point results have merged
  /// (0 = off) — drives the crash-recovery tests deterministically.
  std::size_t kill_worker_after_results = 0;
};

struct ShardStats {
  std::size_t requests = 0;      ///< EvalRequests dispatched (incl. duplicates)
  std::size_t points = 0;        ///< points dispatched (incl. duplicates)
  std::size_t redispatches = 0;  ///< steal-by-redispatch duplicates issued
  std::size_t respawns = 0;      ///< workers respawned after dying
};

struct BatchItem {
  std::uint64_t index = 0;  ///< caller's identity for the point (echoed back)
  core::DesignPoint point;
};

struct BatchResult {
  std::vector<core::Fom> foms;  ///< aligned with the input items
  std::uint64_t busy_ns = 0;    ///< summed worker evaluation wall time
  core::Profiler::NodalCounts nodal{};  ///< summed worker profiler deltas
  core::Profiler::SchedCounts sched{};
};

class ShardPool {
 public:
  /// Spawns and handshakes every worker; throws if any worker acks the wrong
  /// job hash or dies during the handshake.
  explicit ShardPool(ShardConfig config);

  /// Sends Shutdown, waits briefly, SIGKILLs stragglers.
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Evaluate one batch at one tier across the shards.  `items` should
  /// already be in the order the caller wants results consumed (the engine
  /// passes LPT order); foms come back aligned with it.  If any point's
  /// evaluation threw in a worker, rethrows the failure at the lowest batch
  /// position after the batch completes — matching the in-process
  /// lowest-chunk-wins rule.  Duplicate results from redispatched requests
  /// are bit-identical, so whichever arrives first is merged and the rest
  /// are dropped.
  BatchResult evaluate(const std::vector<BatchItem>& items, std::uint32_t tier);

  std::size_t shards() const noexcept { return workers_.size(); }
  const ShardStats& stats() const noexcept { return stats_; }

 private:
  struct Worker {
    int fd = -1;
    pid_t pid = -1;
    bool alive = false;
    std::vector<std::uint64_t> outstanding;  ///< request ids awaiting a reply
  };

  struct Group;  // per-batch dispatch unit (defined in the .cpp)

  void spawn(std::size_t slot);
  void shutdown_worker(Worker& w, bool send_shutdown);

  ShardConfig cfg_;
  std::vector<Worker> workers_;
  ShardStats stats_;
  std::uint64_t next_request_id_ = 1;
  /// request id -> (batch generation, group index); stale entries from
  /// duplicate requests that outlived their batch are dropped on arrival.
  std::unordered_map<std::uint64_t, std::pair<std::uint64_t, std::size_t>> request_group_;
  std::uint64_t batch_generation_ = 0;
  bool kill_hook_fired_ = false;
};

}  // namespace xlds::shard
