#include "shard/shard_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include "util/env.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

// A forked child must not create threads under ThreadSanitizer, so shard
// workers run their pools single-lane in TSan builds (speed-only: lane count
// never changes results).
#if defined(__SANITIZE_THREAD__)
#define XLDS_SHARD_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define XLDS_SHARD_TSAN 1
#endif
#endif

namespace xlds::shard {

std::size_t env_shard_count() { return util::env_positive_count("XLDS_SHARDS", 1); }

/// Per-batch dispatch unit: a contiguous run of the caller's (LPT-ordered)
/// items.  `live_dispatches` counts copies in flight at live workers — a
/// group is re-queued after a worker death only when it reaches zero, because
/// a surviving duplicate will still deliver the identical bytes.
struct ShardPool::Group {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool done = false;
  bool failed = false;
  std::string error;
  bool queued = false;
  std::size_t live_dispatches = 0;
  std::vector<std::size_t> dispatched_to;  ///< worker slots ever handed this group
};

ShardPool::ShardPool(ShardConfig config) : cfg_(std::move(config)) {
  XLDS_REQUIRE_MSG(cfg_.shards >= 1, "a shard pool needs at least one worker");
  XLDS_REQUIRE_MSG(cfg_.evaluator, "ShardConfig needs an evaluator");
  if (cfg_.inflight_per_worker == 0) cfg_.inflight_per_worker = 1;
  if (cfg_.max_points_per_request == 0) cfg_.max_points_per_request = 1;
  if (cfg_.worker_threads == 0)
    cfg_.worker_threads = std::max<std::size_t>(1, parallel_thread_count() / cfg_.shards);
#ifdef XLDS_SHARD_TSAN
  cfg_.worker_threads = 1;
#endif
  workers_.resize(cfg_.shards);
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) spawn(slot);
}

ShardPool::~ShardPool() {
  for (Worker& w : workers_) shutdown_worker(w, /*send_shutdown=*/true);
}

void ShardPool::spawn(std::size_t slot) {
  Worker& w = workers_[slot];
  int sv[2];
  XLDS_REQUIRE_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                   "socketpair failed: " << std::strerror(errno));

  parallel_quiesce_for_fork();
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(sv[0]);
    ::close(sv[1]);
    XLDS_REQUIRE_MSG(false, "fork failed: " << std::strerror(errno));
  }

  if (pid == 0) {
    // Child: keep only our end of our own channel; the parent-side fds of
    // sibling workers must not survive into this process, or a sibling's
    // death would never surface as EOF at the parent.
    ::close(sv[0]);
    for (const Worker& other : workers_)
      if (other.fd >= 0) ::close(other.fd);
    WorkerJob job;
    job.application = cfg_.application;
    job.evaluate = cfg_.evaluator;
    ::_exit(serve_worker(sv[1], job));
  }

  // Parent.
  ::close(sv[1]);
  w.fd = sv[0];
  w.pid = pid;
  w.alive = true;
  w.outstanding.clear();

  Hello hello;
  hello.job_hash = cfg_.job_hash;
  hello.worker_threads = static_cast<std::uint32_t>(cfg_.worker_threads);

  std::string body;
  HelloAck ack;
  const bool ok = write_frame(w.fd, encode_hello(hello)) &&
                  read_frame(w.fd, body) == ReadStatus::kOk && decode_hello_ack(body, ack);
  if (!ok) {
    shutdown_worker(w, /*send_shutdown=*/false);
    XLDS_REQUIRE_MSG(false, "shard worker " << slot << " died during the handshake");
  }
  if (ack.job_hash != cfg_.job_hash) {
    shutdown_worker(w, /*send_shutdown=*/false);
    XLDS_REQUIRE_MSG(false, "shard worker " << slot << " acked job hash " << std::hex
                                            << ack.job_hash << ", parent has " << cfg_.job_hash);
  }
}

void ShardPool::shutdown_worker(Worker& w, bool send_shutdown) {
  if (w.fd >= 0) {
    if (send_shutdown && w.alive) write_frame(w.fd, encode_shutdown());
    ::close(w.fd);
    w.fd = -1;
  }
  if (w.pid > 0) {
    // Grace period: the worker exits on Shutdown (or on EOF from the close
    // above) once it drains any in-flight duplicate requests.
    for (int i = 0; i < 500 && w.pid > 0; ++i) {
      const pid_t r = ::waitpid(w.pid, nullptr, WNOHANG);
      if (r != 0) w.pid = -1;
      if (w.pid > 0) {
        const struct timespec ts = {0, 10 * 1000 * 1000};
        ::nanosleep(&ts, nullptr);
      }
    }
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
  }
  w.alive = false;
}

BatchResult ShardPool::evaluate(const std::vector<BatchItem>& items, std::uint32_t tier) {
  BatchResult out;
  out.foms.resize(items.size());
  if (items.empty()) return out;
  ++batch_generation_;

  // Group size: aim for ~4 groups per worker so the tail stays short, capped
  // so a request's results always fit comfortably in the socket buffer.
  const std::size_t n = items.size();
  const std::size_t target = std::max<std::size_t>(1, n / (workers_.size() * 4));
  const std::size_t group_points = std::min(cfg_.max_points_per_request, target);

  std::vector<Group> groups;
  groups.reserve((n + group_points - 1) / group_points);
  for (std::size_t b = 0; b < n; b += group_points) {
    Group g;
    g.begin = b;
    g.end = std::min(b + group_points, n);
    groups.push_back(std::move(g));
  }

  std::deque<std::size_t> pending;
  for (std::size_t gid = 0; gid < groups.size(); ++gid) {
    pending.push_back(gid);
    groups[gid].queued = true;
  }
  std::size_t done_groups = 0;
  std::size_t merged_points = 0;

  const auto enqueue_front = [&](std::size_t gid) {
    Group& g = groups[gid];
    if (!g.done && !g.queued && g.live_dispatches == 0) {
      pending.push_front(gid);
      g.queued = true;
    }
  };

  const auto send_group = [&](std::size_t slot, std::size_t gid) -> bool {
    Worker& w = workers_[slot];
    Group& g = groups[gid];
    EvalRequest req;
    req.request_id = next_request_id_++;
    req.tier = tier;
    req.points.reserve(g.end - g.begin);
    for (std::size_t k = g.begin; k < g.end; ++k) {
      WirePoint p;
      p.index = items[k].index;
      p.device = static_cast<std::uint32_t>(items[k].point.device);
      p.arch = static_cast<std::uint32_t>(items[k].point.arch);
      p.algo = static_cast<std::uint32_t>(items[k].point.algo);
      req.points.push_back(p);
    }
    if (!write_frame(w.fd, encode_eval_request(req))) return false;
    w.outstanding.push_back(req.request_id);
    request_group_[req.request_id] = {batch_generation_, gid};
    ++g.live_dispatches;
    g.dispatched_to.push_back(slot);
    ++stats_.requests;
    stats_.points += g.end - g.begin;
    return true;
  };

  // handle_death / top_up recurse through each other (a failed send while
  // topping up is a death; a respawn wants an immediate top-up), hence the
  // std::function forward declaration.
  std::function<void(std::size_t)> handle_death;

  const auto top_up = [&](std::size_t slot) {
    while (workers_[slot].alive &&
           workers_[slot].outstanding.size() < cfg_.inflight_per_worker && !pending.empty()) {
      const std::size_t gid = pending.front();
      pending.pop_front();
      groups[gid].queued = false;
      if (groups[gid].done) continue;
      if (!send_group(slot, gid)) {
        enqueue_front(gid);
        handle_death(slot);
        return;
      }
    }
  };

  // Steal by redispatch: an idle worker with nothing pending duplicates the
  // in-flight group with the fewest live copies that it has never been
  // handed itself.  First result wins; duplicates are bit-identical.
  const auto try_steal = [&](std::size_t slot) {
    Worker& w = workers_[slot];
    if (!w.alive || !w.outstanding.empty() || !pending.empty()) return;
    std::size_t best = SIZE_MAX;
    std::size_t best_copies = SIZE_MAX;
    for (std::size_t gid = 0; gid < groups.size(); ++gid) {
      const Group& g = groups[gid];
      if (g.done || g.live_dispatches == 0 || g.live_dispatches >= best_copies) continue;
      if (std::find(g.dispatched_to.begin(), g.dispatched_to.end(), slot) !=
          g.dispatched_to.end())
        continue;
      best = gid;
      best_copies = g.live_dispatches;
    }
    if (best == SIZE_MAX) return;
    ++stats_.redispatches;
    if (!send_group(slot, best)) handle_death(slot);
  };

  handle_death = [&](std::size_t slot) {
    Worker& w = workers_[slot];
    if (!w.alive) return;
    w.alive = false;
    ::close(w.fd);
    w.fd = -1;
    if (w.pid > 0) {
      ::kill(w.pid, SIGKILL);  // a write-side failure can leave it running
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
    // Re-queue its unacknowledged groups *ahead* of pending work, preserving
    // their dispatch order (reverse iteration + push_front), unless a
    // duplicate is still alive elsewhere.
    for (auto it = w.outstanding.rbegin(); it != w.outstanding.rend(); ++it) {
      const auto entry = request_group_.find(*it);
      if (entry == request_group_.end()) continue;
      const auto [gen, gid] = entry->second;
      request_group_.erase(entry);
      if (gen != batch_generation_) continue;
      --groups[gid].live_dispatches;
      enqueue_front(gid);
    }
    w.outstanding.clear();

    if (stats_.respawns < cfg_.max_respawns) {
      ++stats_.respawns;
      spawn(slot);  // throws if the respawn handshake fails
      return;
    }
    bool any_alive = false;
    for (const Worker& other : workers_) any_alive = any_alive || other.alive;
    XLDS_REQUIRE_MSG(any_alive, "all shard workers died (respawn budget of "
                                    << cfg_.max_respawns << " exhausted)");
  };

  const auto ack_request = [&](Worker& w, std::uint64_t rid) {
    const auto it = std::find(w.outstanding.begin(), w.outstanding.end(), rid);
    if (it != w.outstanding.end()) w.outstanding.erase(it);
  };

  const auto fire_kill_hook = [&] {
    if (cfg_.kill_worker_after_results == 0 || kill_hook_fired_ ||
        merged_points < cfg_.kill_worker_after_results)
      return;
    kill_hook_fired_ = true;
    // Prefer a worker that still has work in flight so the recovery path
    // (re-queue + respawn + redispatch) is actually exercised.
    std::size_t victim = SIZE_MAX;
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (!workers_[slot].alive) continue;
      if (victim == SIZE_MAX) victim = slot;
      if (!workers_[slot].outstanding.empty()) {
        victim = slot;
        break;
      }
    }
    if (victim != SIZE_MAX) {
      ::kill(workers_[victim].pid, SIGKILL);
      handle_death(victim);
    }
  };

  std::string body;
  std::vector<struct pollfd> fds;
  std::vector<std::size_t> fd_slots;
  while (done_groups < groups.size()) {
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) top_up(slot);
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) try_steal(slot);
    if (done_groups >= groups.size()) break;

    fds.clear();
    fd_slots.clear();
    for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
      if (!workers_[slot].alive) continue;
      fds.push_back({workers_[slot].fd, POLLIN, 0});
      fd_slots.push_back(slot);
    }
    XLDS_ASSERT(!fds.empty());  // handle_death throws before we get here dead

    const int rc = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      XLDS_REQUIRE_MSG(false, "poll on shard workers failed: " << std::strerror(errno));
    }

    for (std::size_t i = 0; i < fds.size(); ++i) {
      if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const std::size_t slot = fd_slots[i];
      Worker& w = workers_[slot];
      if (!w.alive || w.fd != fds[i].fd) continue;  // died/respawned this pass

      const ReadStatus s = read_frame(w.fd, body);
      if (s != ReadStatus::kOk) {
        handle_death(slot);
        continue;
      }
      MsgType type;
      if (!decode_type(body, type)) {
        handle_death(slot);
        continue;
      }

      if (type == MsgType::kEvalResult) {
        EvalResult res;
        if (!decode_eval_result(body, res)) {
          handle_death(slot);
          continue;
        }
        ack_request(w, res.request_id);
        const auto entry = request_group_.find(res.request_id);
        if (entry == request_group_.end()) continue;  // stale duplicate
        const auto [gen, gid] = entry->second;
        request_group_.erase(entry);
        if (gen != batch_generation_) continue;
        Group& g = groups[gid];
        --g.live_dispatches;
        if (g.done) continue;  // a duplicate already delivered these bytes
        if (res.tier != tier || res.foms.size() != g.end - g.begin) {
          handle_death(slot);  // protocol violation: distrust the worker
          enqueue_front(gid);
          continue;
        }
        for (std::size_t k = 0; k < res.foms.size(); ++k)
          out.foms[g.begin + k] = std::move(res.foms[k]);
        out.busy_ns += res.busy_ns;
        core::Profiler::NodalCounts& nd = out.nodal;
        nd.factorizations += res.nodal.factorizations;
        nd.direct_solves += res.nodal.direct_solves;
        nd.gs_solves += res.nodal.gs_solves;
        nd.incremental_updates += res.nodal.incremental_updates;
        nd.updated_cells += res.nodal.updated_cells;
        nd.update_declines += res.nodal.update_declines;
        nd.drift_refactorizations += res.nodal.drift_refactorizations;
        core::Profiler::SchedCounts& sd = out.sched;
        sd.jobs += res.sched.jobs;
        sd.inline_jobs += res.sched.inline_jobs;
        sd.tasks += res.sched.tasks;
        sd.stolen_tasks += res.sched.stolen_tasks;
        sd.steal_failures += res.sched.steal_failures;
        sd.nested_cooperative += res.sched.nested_cooperative;
        sd.nested_inlined += res.sched.nested_inlined;
        g.done = true;
        ++done_groups;
        merged_points += g.end - g.begin;
        fire_kill_hook();
      } else if (type == MsgType::kEvalError) {
        EvalError errm;
        if (!decode_eval_error(body, errm)) {
          handle_death(slot);
          continue;
        }
        ack_request(w, errm.request_id);
        const auto entry = request_group_.find(errm.request_id);
        if (entry == request_group_.end()) continue;
        const auto [gen, gid] = entry->second;
        request_group_.erase(entry);
        if (gen != batch_generation_) continue;
        Group& g = groups[gid];
        --g.live_dispatches;
        if (g.done) continue;
        g.done = true;
        g.failed = true;
        g.error = errm.message;
        ++done_groups;
      } else {
        handle_death(slot);  // a worker must only send results and errors
      }
    }
  }

  // Deterministic failure semantics: like the in-process scheduler's
  // lowest-chunk-wins rule, the failure at the lowest batch position is the
  // one the caller sees (evaluator exceptions are XLDS_REQUIRE-style
  // precondition failures, so the type is preserved across the wire).
  const Group* first_failed = nullptr;
  for (const Group& g : groups)
    if (g.failed && (first_failed == nullptr || g.begin < first_failed->begin))
      first_failed = &g;
  if (first_failed != nullptr) throw PreconditionError(first_failed->error);

  return out;
}

}  // namespace xlds::shard
