// Wire protocol between the DSE parent process and its evaluation shards.
//
// Transport: a stream fd (socketpair) carrying the frames of the shared
// record codec (util/record.hpp), the journal's framing applied to a pipe:
//
//   frame:  body length u32 | body | FNV-1a-64 checksum of the body
//   body:   message type u8 | type-specific payload (fixed-width LE fields)
//
// Messages (parent -> worker unless noted):
//
//   Hello        job hash u64 | worker threads u32 — identity handshake
//   HelloAck     (worker -> parent) the job hash the worker holds | pid —
//                a mismatch aborts the spawn before any evaluation runs
//   EvalRequest  request id u64 | tier u32 | n points, each the DesignPoint's
//                three axis enums + the parent-side space index (echoed back
//                verbatim so the parent never re-derives placement)
//   EvalResult   (worker -> parent) request id | tier | n FOMs in request
//                order (core/fom_codec.hpp) | busy-ns | nodal + scheduler
//                profiler deltas, each every field of its counts struct in
//                declaration order (NodalCounts::each / SchedCounts::each;
//                the nodal block carries incremental_updates too — both
//                ends are one binary and nothing stores these bytes)
//   EvalError    (worker -> parent) request id | what() of the evaluation
//                exception — forwarded so the parent rethrows the same
//                message the in-process path would have thrown
//   Shutdown     drain and _exit(0)
//
// Decoders return false on any malformed body (truncated field, a count
// the body cannot hold, trailing junk, wrong type byte) and read_frame()
// reports a checksum mismatch as kCorrupt — the parent treats either on a
// worker channel as worker death.  Values survive the trip bit-exactly
// (doubles are memcpy'd, never printed), which is what lets the merged
// journal stay byte-identical to in-process.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/evaluate.hpp"

namespace xlds::shard {

enum class MsgType : std::uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kEvalRequest = 3,
  kEvalResult = 4,
  kEvalError = 5,
  kShutdown = 6,
};

struct Hello {
  std::uint64_t job_hash = 0;
  std::uint32_t worker_threads = 1;  ///< pool width the worker should use
};

struct HelloAck {
  std::uint64_t job_hash = 0;  ///< must echo the Hello's
  std::int32_t pid = 0;
};

/// One design point on the wire: the three axis enums (the application
/// string travels once, in the Hello) plus the parent's space index.
struct WirePoint {
  std::uint64_t index = 0;
  std::uint32_t device = 0;
  std::uint32_t arch = 0;
  std::uint32_t algo = 0;
};

struct EvalRequest {
  std::uint64_t request_id = 0;
  std::uint32_t tier = 0;
  std::vector<WirePoint> points;
};

struct EvalResult {
  std::uint64_t request_id = 0;
  std::uint32_t tier = 0;
  std::vector<core::Fom> foms;  ///< one per request point, request order
  std::uint64_t busy_ns = 0;    ///< wall time the worker spent evaluating
  core::Profiler::NodalCounts nodal{};  ///< profiler deltas while serving
  core::Profiler::SchedCounts sched{};
};

struct EvalError {
  std::uint64_t request_id = 0;
  std::string message;
};

std::string encode_hello(const Hello& m);
std::string encode_hello_ack(const HelloAck& m);
std::string encode_eval_request(const EvalRequest& m);
std::string encode_eval_result(const EvalResult& m);
std::string encode_eval_error(const EvalError& m);
std::string encode_shutdown();

/// Type byte of a decoded frame body (false on an empty/unknown-type body).
bool decode_type(const std::string& body, MsgType& type);

bool decode_hello(const std::string& body, Hello& m);
bool decode_hello_ack(const std::string& body, HelloAck& m);
bool decode_eval_request(const std::string& body, EvalRequest& m);
bool decode_eval_result(const std::string& body, EvalResult& m);
bool decode_eval_error(const std::string& body, EvalError& m);

/// Sanity bound on one frame body: a batch of results with notes fits well
/// under this; a larger length field is corruption, not a real frame.
constexpr std::uint32_t kMaxFrameBody = 1u << 24;

enum class ReadStatus {
  kOk,
  kEof,      ///< clean close (or death) of the peer before a frame started
  kCorrupt,  ///< checksum mismatch, oversize length, or mid-frame close
  kError,    ///< transport error (errno-level failure)
};

/// Blocking write of one frame.  Never raises SIGPIPE (MSG_NOSIGNAL on
/// sockets; pipe users must ignore SIGPIPE themselves).  False on a closed
/// or broken peer.
bool write_frame(int fd, const std::string& body);

/// Blocking read of one complete frame into `body`.
ReadStatus read_frame(int fd, std::string& body);

}  // namespace xlds::shard
