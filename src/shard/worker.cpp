#include "shard/worker.hpp"

#include <chrono>
#include <exception>

#include <unistd.h>

#include "util/parallel.hpp"

namespace xlds::shard {

namespace {

core::Profiler::NodalCounts nodal_delta(const core::Profiler::NodalCounts& a,
                                        const core::Profiler::NodalCounts& b) {
  core::Profiler::NodalCounts d;
  d.factorizations = b.factorizations - a.factorizations;
  d.direct_solves = b.direct_solves - a.direct_solves;
  d.gs_solves = b.gs_solves - a.gs_solves;
  d.update_declines = b.update_declines - a.update_declines;
  return d;
}

core::Profiler::SchedCounts sched_delta(const core::Profiler::SchedCounts& a,
                                        const core::Profiler::SchedCounts& b) {
  core::Profiler::SchedCounts d;
  d.jobs = b.jobs - a.jobs;
  d.inline_jobs = b.inline_jobs - a.inline_jobs;
  d.tasks = b.tasks - a.tasks;
  d.stolen_tasks = b.stolen_tasks - a.stolen_tasks;
  d.steal_failures = b.steal_failures - a.steal_failures;
  d.nested_cooperative = b.nested_cooperative - a.nested_cooperative;
  d.nested_inlined = b.nested_inlined - a.nested_inlined;
  return d;
}

}  // namespace

int serve_worker(int fd, const WorkerJob& job) {
  std::string body;
  if (read_frame(fd, body) != ReadStatus::kOk) return 10;
  Hello hello;
  if (!decode_hello(body, hello)) return 11;

  set_parallel_threads(hello.worker_threads == 0 ? 1 : hello.worker_threads);

  HelloAck ack;
  ack.job_hash = hello.job_hash;
  ack.pid = static_cast<std::int32_t>(::getpid());
  if (!write_frame(fd, encode_hello_ack(ack))) return 13;

  for (;;) {
    const ReadStatus s = read_frame(fd, body);
    if (s == ReadStatus::kEof) return 0;  // parent gone: nothing left to serve
    if (s != ReadStatus::kOk) return 15;
    MsgType type;
    if (!decode_type(body, type)) return 16;
    if (type == MsgType::kShutdown) return 0;
    if (type != MsgType::kEvalRequest) return 17;
    EvalRequest req;
    if (!decode_eval_request(body, req)) return 18;

    EvalResult res;
    res.request_id = req.request_id;
    res.tier = req.tier;
    EvalError err;
    err.request_id = req.request_id;
    bool failed = false;

    const auto nodal0 = core::Profiler::nodal();
    const auto sched0 = core::Profiler::sched();
    const auto t0 = std::chrono::steady_clock::now();
    try {
      res.foms.reserve(req.points.size());
      for (const WirePoint& wp : req.points) {
        core::DesignPoint p;
        p.device = static_cast<device::DeviceKind>(wp.device);
        p.arch = static_cast<core::ArchKind>(wp.arch);
        p.algo = static_cast<core::AlgoKind>(wp.algo);
        p.application = job.application;
        res.foms.push_back(job.evaluate(p, req.tier));
      }
    } catch (const std::exception& e) {
      failed = true;
      err.message = e.what();
    } catch (...) {
      failed = true;
      err.message = "unknown evaluation error";
    }
    const auto t1 = std::chrono::steady_clock::now();
    res.busy_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count());
    res.nodal = nodal_delta(nodal0, core::Profiler::nodal());
    res.sched = sched_delta(sched0, core::Profiler::sched());

    if (!write_frame(fd, failed ? encode_eval_error(err) : encode_eval_result(res)))
      return 19;
  }
}

}  // namespace xlds::shard
