// The evaluation-shard worker: serves EvalRequests on a stream fd until the
// parent shuts it down or disappears.
//
// The worker is deliberately ignorant of the DSE layer: it receives fully
// materialised design points over the wire and prices them through an
// injected evaluator callback, so src/shard/ depends only on core + util and
// the dependency arrow between dse and shard points one way (dse -> shard).
// ShardPool forks without exec, so the child inherits the evaluator closure
// (and every warm memo cache the parent had built) directly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"
#include "shard/protocol.hpp"

namespace xlds::shard {

/// Price one design point at one fidelity tier.  Must be a pure function of
/// (point, tier) — the shard contract inherits the ladder's.
using PointEvaluator =
    std::function<core::Fom(const core::DesignPoint& p, std::uint32_t tier)>;

struct WorkerJob {
  std::string application;  ///< application every wire point is bound to
  PointEvaluator evaluate;
};

/// Serve requests on `fd` until Shutdown or EOF (parent gone).  The worker
/// acks the Hello's job hash, so parent and child agree on the job identity
/// by construction.  Returns the process exit code: 0 on a clean shutdown,
/// non-zero on a protocol or handshake failure (each code is distinct to
/// make post-mortems legible).  Evaluation exceptions do NOT exit: they are
/// forwarded as EvalError frames and the worker keeps serving.
int serve_worker(int fd, const WorkerJob& job);

}  // namespace xlds::shard
