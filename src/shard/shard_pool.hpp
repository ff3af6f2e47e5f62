// Multi-process evaluation shard pool.
//
// Why processes and not just the in-process thread pool: a single address
// space caps the useful width at one machine's cores, and each forked worker
// gets its own scheduler and, by inheritance, a copy of every memo the parent
// built before the fork (the engine primes the ladder's shared rungs first,
// so no worker rebuilds them).
//
// Determinism contract (inherits the journal's): sharding changes *where* a
// point is priced, never *what* it evaluates to.  The pool guarantees the
// FOMs it returns for a batch are exactly what in-process evaluation would
// have produced, in the same caller-visible order, because
//
//   1. the caller hands the batch already sorted (the engine's LPT order) and
//      results are merged back by batch position, not by arrival time;
//   2. every worker runs the same pure evaluator, so which worker prices a
//      group never changes its bytes; a group is in flight at one worker at
//      a time and is sent again only if that worker dies first;
//   3. a SIGKILLed worker only loses un-acknowledged requests, which are
//      re-queued ahead of pending work and charged once by the engine's
//      first-request ledger rule exactly as if the crash never happened.
//
// Dispatch: the batch is cut into contiguous groups of at most
// `max_points_per_request` points; each worker keeps up to
// `inflight_per_worker` requests in flight (so the socket hides latency) and
// takes the next pending group when a reply frees a slot.  Each group is
// sent once.  So a hung worker (alive, never answering) stalls its batch:
// the pool polls without a timeout.  Idle workers used to re-run in-flight
// groups, which hid a hang; the fix is the per-request deadline that
// ROADMAP.md plans (item 5): kill and respawn the worker, re-queue its groups.
//
// Lifecycle: the constructor forks every worker, then sends every Hello,
// then reads every ack, and reaps every forked worker before it rethrows a
// failure.  The destructor sends Shutdown to every live worker before it
// waits on any, waits for each socket to read EOF against one shared 5 s
// deadline, then SIGKILLs and reaps whatever is left.
//
// Fork safety: every spawn calls parallel_quiesce_for_fork() first (see
// util/parallel.hpp for the contract), so the child is born single-threaded
// and rebuilds its own pool lazily at the width the Hello names.
#pragma once

#include <cstdint>
#include <string>
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
  std::size_t requests = 0;  ///< EvalRequests dispatched (incl. re-sends after a death)
  std::size_t points = 0;    ///< points dispatched (incl. re-sends after a death)
  std::size_t respawns = 0;  ///< workers respawned after dying
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
  /// Spawns and handshakes every worker; throws, with every forked worker
  /// reaped, if any worker acks the wrong job hash or dies during the
  /// handshake.
  explicit ShardPool(ShardConfig config);

  /// Shuts every worker down and reaps it (see Lifecycle above).
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Evaluate one batch at one tier across the shards.  `items` should
  /// already be in the order the caller wants results consumed (the engine
  /// passes LPT order); foms come back aligned with it.  If any point's
  /// evaluation threw in a worker, rethrows the failure at the lowest batch
  /// position after the batch completes — matching the in-process
  /// lowest-chunk-wins rule.
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

  /// Fork workers [first, last), then send every Hello, then read every
  /// ack; a worker that fails its handshake is killed and reaped, and throws.
  void spawn(std::size_t first, std::size_t last);
  /// Close, SIGKILL and reap one worker.
  void kill_worker(Worker& w);
  void shutdown_all() noexcept;

  ShardConfig cfg_;
  std::vector<Worker> workers_;
  ShardStats stats_;
  std::uint64_t next_request_id_ = 1;
  bool kill_hook_fired_ = false;
};

}  // namespace xlds::shard
