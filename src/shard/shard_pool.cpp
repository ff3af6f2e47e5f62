#include "shard/shard_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <unordered_map>
#include <utility>

#ifdef __GLIBC__
#include <malloc.h>
#endif
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
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

namespace {

/// Per-batch dispatch unit: a contiguous run of the caller's (LPT-ordered)
/// items, in flight at no more than one worker at a time.
struct Group {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool failed = false;
  std::string error;
};

}  // namespace

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
  // A throwing constructor never reaches the destructor, so reap here.
  try {
    spawn(0, workers_.size());
  } catch (...) {
    shutdown_all();
    throw;
  }
}

ShardPool::~ShardPool() { shutdown_all(); }

void ShardPool::spawn(std::size_t first, std::size_t last) {
  parallel_quiesce_for_fork();
#ifdef __GLIBC__
  // Each worker inherits every resident page of this process, including the
  // free chunks glibc keeps in its arenas (mostly the nodal factors that
  // FidelityLadder::prime's one-shot tiles freed).  The process is
  // single-threaded here, so hand that free heap back once before the
  // copies are made.
  ::malloc_trim(0);
#endif
  for (std::size_t slot = first; slot < last; ++slot) {
    Worker& w = workers_[slot];
    int sv[2];
    XLDS_REQUIRE_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                     "socketpair failed: " << std::strerror(errno));
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
      int code = 20;  // an escaping exception must never unwind into the parent's code
      try {
        WorkerJob job;
        job.application = cfg_.application;
        job.evaluate = cfg_.evaluator;
        code = serve_worker(sv[1], job);
      } catch (...) {
      }
      ::_exit(code);
    }
    ::close(sv[1]);
    w.fd = sv[0];
    w.pid = pid;
    w.alive = true;
    w.outstanding.clear();
  }

  // Every Hello goes out before any ack is read, so the workers start up
  // side by side.  A Hello to a worker that already died fails its ack read.
  Hello hello;
  hello.job_hash = cfg_.job_hash;
  hello.worker_threads = static_cast<std::uint32_t>(cfg_.worker_threads);
  const std::string hello_frame = encode_hello(hello);
  for (std::size_t slot = first; slot < last; ++slot) write_frame(workers_[slot].fd, hello_frame);

  std::string body;
  for (std::size_t slot = first; slot < last; ++slot) {
    Worker& w = workers_[slot];
    HelloAck ack;
    const bool ok = read_frame(w.fd, body) == ReadStatus::kOk && decode_hello_ack(body, ack);
    if (ok && ack.job_hash == cfg_.job_hash) continue;
    kill_worker(w);
    XLDS_REQUIRE_MSG(ok, "shard worker " << slot << " died during the handshake");
    XLDS_REQUIRE_MSG(false, "shard worker " << slot << " acked job hash " << std::hex
                                            << ack.job_hash << ", parent has " << cfg_.job_hash);
  }
}

void ShardPool::kill_worker(Worker& w) {
  if (w.fd >= 0) ::close(w.fd);
  w.fd = -1;
  if (w.pid > 0) {
    ::kill(w.pid, SIGKILL);
    ::waitpid(w.pid, nullptr, 0);
  }
  w.pid = -1;
  w.alive = false;
  w.outstanding.clear();
}

void ShardPool::shutdown_all() noexcept {
  // Shutdown goes to every live worker before any is waited on.  A worker
  // exits on it once its current request is done (one still waiting for its
  // Hello exits on the unexpected frame), and its socket then reads EOF.
  const std::string shutdown = encode_shutdown();
  for (const Worker& w : workers_)
    if (w.alive) write_frame(w.fd, shutdown);

  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::vector<struct pollfd> fds;
  std::vector<Worker*> fd_workers;
  char sink[4096];
  for (;;) {
    fds.clear();
    fd_workers.clear();
    for (Worker& w : workers_) {
      if (w.fd < 0) continue;
      fds.push_back({w.fd, POLLIN, 0});
      fd_workers.push_back(&w);
    }
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - std::chrono::steady_clock::now())
                          .count();
    if (fds.empty() || left <= 0) break;
    if (::poll(fds.data(), static_cast<nfds_t>(fds.size()), static_cast<int>(left)) < 0 &&
        errno != EINTR)
      break;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const ssize_t r = ::read(fds[i].fd, sink, sizeof sink);
      if (r > 0 || (r < 0 && errno == EINTR)) continue;  // a late reply: drop it
      Worker& w = *fd_workers[i];  // EOF: the worker has exited
      ::close(w.fd);
      w.fd = -1;
      ::waitpid(w.pid, nullptr, 0);
      w.pid = -1;
    }
  }
  for (Worker& w : workers_) kill_worker(w);  // whatever the deadline left; marks all dead
}

BatchResult ShardPool::evaluate(const std::vector<BatchItem>& items, std::uint32_t tier) {
  BatchResult out;
  out.foms.resize(items.size());
  if (items.empty()) return out;

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
  for (std::size_t gid = 0; gid < groups.size(); ++gid) pending.push_back(gid);
  // Request id -> group.  A reply whose id is missing answers a request of an
  // earlier batch that threw before the reply arrived; it is dropped.
  std::unordered_map<std::uint64_t, std::size_t> group_of;
  std::size_t done_groups = 0;
  std::size_t merged_points = 0;

  const auto send_group = [&](std::size_t slot, std::size_t gid) -> bool {
    Worker& w = workers_[slot];
    const Group& g = groups[gid];
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
    group_of[req.request_id] = gid;
    ++stats_.requests;
    stats_.points += g.end - g.begin;
    return true;
  };

  const auto handle_death = [&](std::size_t slot) {
    Worker& w = workers_[slot];
    if (!w.alive) return;
    // Re-queue its unacknowledged groups *ahead* of pending work, preserving
    // their dispatch order (reverse iteration + push_front).
    for (auto it = w.outstanding.rbegin(); it != w.outstanding.rend(); ++it) {
      const auto entry = group_of.find(*it);
      if (entry == group_of.end()) continue;
      pending.push_front(entry->second);
      group_of.erase(entry);
    }
    kill_worker(w);  // a write-side failure can leave it running

    if (stats_.respawns < cfg_.max_respawns) {
      ++stats_.respawns;
      spawn(slot, slot + 1);  // throws if the respawn handshake fails
      return;
    }
    bool any_alive = false;
    for (const Worker& other : workers_) any_alive = any_alive || other.alive;
    XLDS_REQUIRE_MSG(any_alive, "all shard workers died (respawn budget of "
                                    << cfg_.max_respawns << " exhausted)");
  };

  const auto top_up = [&](std::size_t slot) {
    while (workers_[slot].alive &&
           workers_[slot].outstanding.size() < cfg_.inflight_per_worker && !pending.empty()) {
      const std::size_t gid = pending.front();
      pending.pop_front();
      if (!send_group(slot, gid)) {
        pending.push_front(gid);
        handle_death(slot);
        return;
      }
    }
  };

  // The group a reply answers, or SIZE_MAX for a stale reply.
  const auto take_reply = [&](Worker& w, std::uint64_t rid) {
    const auto it = std::find(w.outstanding.begin(), w.outstanding.end(), rid);
    if (it != w.outstanding.end()) w.outstanding.erase(it);
    const auto entry = group_of.find(rid);
    if (entry == group_of.end()) return SIZE_MAX;
    const std::size_t gid = entry->second;
    group_of.erase(entry);
    return gid;
  };

  const auto fire_kill_hook = [&] {
    if (cfg_.kill_worker_after_results == 0 || kill_hook_fired_ ||
        merged_points < cfg_.kill_worker_after_results)
      return;
    kill_hook_fired_ = true;
    // Prefer a worker that still has work in flight so the recovery path
    // (re-queue + respawn) is actually exercised.
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
        const std::size_t gid = take_reply(w, res.request_id);
        if (gid == SIZE_MAX) continue;
        Group& g = groups[gid];
        if (res.tier != tier || res.foms.size() != g.end - g.begin) {
          handle_death(slot);  // protocol violation: distrust the worker
          pending.push_front(gid);
          continue;
        }
        for (std::size_t k = 0; k < res.foms.size(); ++k)
          out.foms[g.begin + k] = std::move(res.foms[k]);
        out.busy_ns += res.busy_ns;
        out.nodal += res.nodal;
        out.sched += res.sched;
        ++done_groups;
        merged_points += g.end - g.begin;
        fire_kill_hook();
      } else if (type == MsgType::kEvalError) {
        EvalError errm;
        if (!decode_eval_error(body, errm)) {
          handle_death(slot);
          continue;
        }
        const std::size_t gid = take_reply(w, errm.request_id);
        if (gid == SIZE_MAX) continue;
        groups[gid].failed = true;
        groups[gid].error = errm.message;
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
  // Groups are in batch order, so the first failed one is the lowest.
  for (const Group& g : groups)
    if (g.failed) throw PreconditionError(g.error);
  return out;
}

}  // namespace xlds::shard
