#include "shard/worker.hpp"

#include <chrono>
#include <exception>

#include <unistd.h>

#include "util/parallel.hpp"

namespace xlds::shard {

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
    res.nodal = core::Profiler::nodal() - nodal0;
    res.sched = core::Profiler::sched() - sched0;

    if (!write_frame(fd, failed ? encode_eval_error(err) : encode_eval_result(res)))
      return 19;
  }
}

}  // namespace xlds::shard
