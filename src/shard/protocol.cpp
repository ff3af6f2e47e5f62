#include "shard/protocol.hpp"

#include <cerrno>

#include <sys/socket.h>
#include <unistd.h>

#include "core/fom_codec.hpp"
#include "util/record.hpp"

namespace xlds::shard {

namespace {

/// Bytes of one WirePoint: index u64 and the three axis enums.
constexpr std::size_t kWirePointBytes = sizeof(std::uint64_t) + 3 * sizeof(std::uint32_t);

/// A profiler-count block: every field of the struct's one field list, in order.
template <class Counts>
void put_counts(std::string& out, const Counts& c) {
  Counts::each([&out](std::uint64_t v) { util::put_raw(out, v); }, c);
}

template <class Counts>
bool get_counts(std::string_view in, std::size_t& pos, Counts& c) {
  bool ok = true;
  Counts::each([&](std::uint64_t& v) { ok = ok && util::get_raw(in, pos, v); }, c);
  return ok;
}

bool expect_type(std::string_view body, std::size_t& pos, MsgType want) {
  std::uint8_t t = 0;
  return util::get_raw(body, pos, t) && t == static_cast<std::uint8_t>(want);
}

bool at_end(std::string_view body, std::size_t pos) { return pos == body.size(); }

}  // namespace

std::string encode_hello(const Hello& m) {
  std::string body;
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kHello));
  util::put_raw(body, m.job_hash);
  util::put_raw(body, m.worker_threads);
  return body;
}

bool decode_hello(const std::string& body, Hello& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kHello) && util::get_raw(body, pos, m.job_hash) &&
         util::get_raw(body, pos, m.worker_threads) && at_end(body, pos);
}

std::string encode_hello_ack(const HelloAck& m) {
  std::string body;
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kHelloAck));
  util::put_raw(body, m.job_hash);
  util::put_raw(body, m.pid);
  return body;
}

bool decode_hello_ack(const std::string& body, HelloAck& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kHelloAck) && util::get_raw(body, pos, m.job_hash) &&
         util::get_raw(body, pos, m.pid) && at_end(body, pos);
}

std::string encode_eval_request(const EvalRequest& m) {
  std::string body;
  body.reserve(16 + m.points.size() * sizeof(WirePoint));
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kEvalRequest));
  util::put_raw(body, m.request_id);
  util::put_raw(body, m.tier);
  util::put_raw(body, static_cast<std::uint32_t>(m.points.size()));
  for (const WirePoint& p : m.points) {
    util::put_raw(body, p.index);
    util::put_raw(body, p.device);
    util::put_raw(body, p.arch);
    util::put_raw(body, p.algo);
  }
  return body;
}

bool decode_eval_request(const std::string& body, EvalRequest& m) {
  std::size_t pos = 0;
  std::uint32_t n = 0;
  if (!expect_type(body, pos, MsgType::kEvalRequest) || !util::get_raw(body, pos, m.request_id) ||
      !util::get_raw(body, pos, m.tier) || !util::get_count(body, pos, kWirePointBytes, n))
    return false;
  m.points.clear();
  m.points.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WirePoint p;
    if (!util::get_raw(body, pos, p.index) || !util::get_raw(body, pos, p.device) ||
        !util::get_raw(body, pos, p.arch) || !util::get_raw(body, pos, p.algo))
      return false;
    m.points.push_back(p);
  }
  return at_end(body, pos);
}

std::string encode_eval_result(const EvalResult& m) {
  std::string body;
  body.reserve(160 + m.foms.size() * 64);
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kEvalResult));
  util::put_raw(body, m.request_id);
  util::put_raw(body, m.tier);
  util::put_raw(body, static_cast<std::uint32_t>(m.foms.size()));
  for (const core::Fom& fom : m.foms) core::put_fom(body, fom);
  util::put_raw(body, m.busy_ns);
  put_counts(body, m.nodal);
  put_counts(body, m.sched);
  return body;
}

bool decode_eval_result(const std::string& body, EvalResult& m) {
  std::size_t pos = 0;
  std::uint32_t n = 0;
  if (!expect_type(body, pos, MsgType::kEvalResult) || !util::get_raw(body, pos, m.request_id) ||
      !util::get_raw(body, pos, m.tier) || !util::get_count(body, pos, core::kFomMinBytes, n))
    return false;
  m.foms.clear();
  m.foms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::Fom fom;
    if (!core::get_fom(body, pos, fom)) return false;
    m.foms.push_back(std::move(fom));
  }
  return util::get_raw(body, pos, m.busy_ns) && get_counts(body, pos, m.nodal) &&
         get_counts(body, pos, m.sched) && at_end(body, pos);
}

std::string encode_eval_error(const EvalError& m) {
  std::string body;
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kEvalError));
  util::put_raw(body, m.request_id);
  util::put_string(body, m.message);
  return body;
}

bool decode_eval_error(const std::string& body, EvalError& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kEvalError) && util::get_raw(body, pos, m.request_id) &&
         util::get_string(body, pos, m.message) && at_end(body, pos);
}

std::string encode_shutdown() {
  std::string body;
  util::put_raw(body, static_cast<std::uint8_t>(MsgType::kShutdown));
  return body;
}

bool decode_type(const std::string& body, MsgType& type) {
  if (body.empty()) return false;
  const std::uint8_t t = static_cast<std::uint8_t>(body[0]);
  if (t < static_cast<std::uint8_t>(MsgType::kHello) ||
      t > static_cast<std::uint8_t>(MsgType::kShutdown))
    return false;
  type = static_cast<MsgType>(t);
  return true;
}

namespace {

/// write() the whole buffer; MSG_NOSIGNAL on sockets so a dead peer surfaces
/// as EPIPE instead of killing the process (ENOTSOCK falls back to plain
/// write() for pipe users, who must ignore SIGPIPE themselves).
bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w < 0 && errno == ENOTSOCK) w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// read() exactly n bytes.  Returns kOk, kEof (clean close before the first
/// byte), or kCorrupt (close mid-buffer) / kError.
ReadStatus read_all(int fd, char* data, std::size_t n) {
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, data + got, n - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      return ReadStatus::kError;
    }
    if (r == 0) return got == 0 ? ReadStatus::kEof : ReadStatus::kCorrupt;
    got += static_cast<std::size_t>(r);
  }
  return ReadStatus::kOk;
}

}  // namespace

bool write_frame(int fd, const std::string& body) {
  std::string framed;
  framed.reserve(util::kFrameHead + body.size() + util::kFrameTail);
  util::put_frame(framed, body);
  return write_all(fd, framed.data(), framed.size());
}

ReadStatus read_frame(int fd, std::string& body) {
  char head[util::kFrameHead];
  ReadStatus s = read_all(fd, head, sizeof head);
  if (s != ReadStatus::kOk) return s;
  std::size_t len = 0;
  if (!util::frame_body_length({head, sizeof head}, kMaxFrameBody, len))
    return ReadStatus::kCorrupt;
  // Body and tail arrive in one read; the tail is checked, then cut off.
  body.resize(len + util::kFrameTail);
  s = read_all(fd, body.data(), body.size());
  if (s != ReadStatus::kOk) return s == ReadStatus::kEof ? ReadStatus::kCorrupt : s;
  const bool intact = util::frame_tail_matches(body);
  body.resize(len);
  return intact ? ReadStatus::kOk : ReadStatus::kCorrupt;
}

}  // namespace xlds::shard
