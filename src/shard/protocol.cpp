#include "shard/protocol.hpp"

#include <cerrno>
#include <cstring>
#include <type_traits>

#include <sys/socket.h>
#include <unistd.h>

#include "util/hash.hpp"

namespace xlds::shard {

namespace {

template <class T>
void append_raw(std::string& buf, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const char* p = reinterpret_cast<const char*>(&v);
  buf.append(p, sizeof v);
}

template <class T>
bool read_raw(const std::string& buf, std::size_t& pos, T& out) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (pos + sizeof out > buf.size()) return false;
  std::memcpy(&out, buf.data() + pos, sizeof out);
  pos += sizeof out;
  return true;
}

void append_string(std::string& buf, const std::string& s) {
  append_raw(buf, static_cast<std::uint32_t>(s.size()));
  buf.append(s);
}

bool read_string(const std::string& buf, std::size_t& pos, std::string& out) {
  std::uint32_t len = 0;
  if (!read_raw(buf, pos, len)) return false;
  if (pos + len > buf.size()) return false;
  out.assign(buf, pos, len);
  pos += len;
  return true;
}

void append_fom(std::string& buf, const core::Fom& fom) {
  append_raw(buf, static_cast<std::uint8_t>(fom.feasible ? 1 : 0));
  buf.append(3, '\0');
  append_raw(buf, fom.latency);
  append_raw(buf, fom.energy);
  append_raw(buf, fom.area_mm2);
  append_raw(buf, fom.accuracy);
  append_string(buf, fom.note);
}

bool read_fom(const std::string& buf, std::size_t& pos, core::Fom& fom) {
  std::uint8_t feasible = 0;
  if (!read_raw(buf, pos, feasible)) return false;
  pos += 3;  // padding
  if (pos > buf.size() || !read_raw(buf, pos, fom.latency) ||
      !read_raw(buf, pos, fom.energy) || !read_raw(buf, pos, fom.area_mm2) ||
      !read_raw(buf, pos, fom.accuracy) || !read_string(buf, pos, fom.note))
    return false;
  fom.feasible = feasible != 0;
  return true;
}

void append_nodal(std::string& buf, const core::Profiler::NodalCounts& c) {
  append_raw(buf, c.factorizations);
  append_raw(buf, c.direct_solves);
  append_raw(buf, c.gs_solves);
  append_raw(buf, c.update_declines);
}

bool read_nodal(const std::string& buf, std::size_t& pos, core::Profiler::NodalCounts& c) {
  return read_raw(buf, pos, c.factorizations) && read_raw(buf, pos, c.direct_solves) &&
         read_raw(buf, pos, c.gs_solves) && read_raw(buf, pos, c.update_declines);
}

void append_sched(std::string& buf, const core::Profiler::SchedCounts& c) {
  append_raw(buf, c.jobs);
  append_raw(buf, c.inline_jobs);
  append_raw(buf, c.tasks);
  append_raw(buf, c.stolen_tasks);
  append_raw(buf, c.steal_failures);
  append_raw(buf, c.nested_cooperative);
  append_raw(buf, c.nested_inlined);
}

bool read_sched(const std::string& buf, std::size_t& pos, core::Profiler::SchedCounts& c) {
  return read_raw(buf, pos, c.jobs) && read_raw(buf, pos, c.inline_jobs) &&
         read_raw(buf, pos, c.tasks) && read_raw(buf, pos, c.stolen_tasks) &&
         read_raw(buf, pos, c.steal_failures) && read_raw(buf, pos, c.nested_cooperative) &&
         read_raw(buf, pos, c.nested_inlined);
}

bool expect_type(const std::string& body, std::size_t& pos, MsgType want) {
  std::uint8_t t = 0;
  return read_raw(body, pos, t) && t == static_cast<std::uint8_t>(want);
}

bool at_end(const std::string& body, std::size_t pos) { return pos == body.size(); }

}  // namespace

std::string encode_hello(const Hello& m) {
  std::string body;
  append_raw(body, static_cast<std::uint8_t>(MsgType::kHello));
  append_raw(body, m.job_hash);
  append_raw(body, m.worker_threads);
  return body;
}

bool decode_hello(const std::string& body, Hello& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kHello) && read_raw(body, pos, m.job_hash) &&
         read_raw(body, pos, m.worker_threads) && at_end(body, pos);
}

std::string encode_hello_ack(const HelloAck& m) {
  std::string body;
  append_raw(body, static_cast<std::uint8_t>(MsgType::kHelloAck));
  append_raw(body, m.job_hash);
  append_raw(body, m.pid);
  return body;
}

bool decode_hello_ack(const std::string& body, HelloAck& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kHelloAck) && read_raw(body, pos, m.job_hash) &&
         read_raw(body, pos, m.pid) && at_end(body, pos);
}

std::string encode_eval_request(const EvalRequest& m) {
  std::string body;
  body.reserve(16 + m.points.size() * sizeof(WirePoint));
  append_raw(body, static_cast<std::uint8_t>(MsgType::kEvalRequest));
  append_raw(body, m.request_id);
  append_raw(body, m.tier);
  append_raw(body, static_cast<std::uint32_t>(m.points.size()));
  for (const WirePoint& p : m.points) {
    append_raw(body, p.index);
    append_raw(body, p.device);
    append_raw(body, p.arch);
    append_raw(body, p.algo);
  }
  return body;
}

bool decode_eval_request(const std::string& body, EvalRequest& m) {
  std::size_t pos = 0;
  std::uint32_t n = 0;
  if (!expect_type(body, pos, MsgType::kEvalRequest) || !read_raw(body, pos, m.request_id) ||
      !read_raw(body, pos, m.tier) || !read_raw(body, pos, n))
    return false;
  m.points.clear();
  m.points.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    WirePoint p;
    if (!read_raw(body, pos, p.index) || !read_raw(body, pos, p.device) ||
        !read_raw(body, pos, p.arch) || !read_raw(body, pos, p.algo))
      return false;
    m.points.push_back(p);
  }
  return at_end(body, pos);
}

std::string encode_eval_result(const EvalResult& m) {
  std::string body;
  body.reserve(160 + m.foms.size() * 64);
  append_raw(body, static_cast<std::uint8_t>(MsgType::kEvalResult));
  append_raw(body, m.request_id);
  append_raw(body, m.tier);
  append_raw(body, static_cast<std::uint32_t>(m.foms.size()));
  for (const core::Fom& fom : m.foms) append_fom(body, fom);
  append_raw(body, m.busy_ns);
  append_nodal(body, m.nodal);
  append_sched(body, m.sched);
  return body;
}

bool decode_eval_result(const std::string& body, EvalResult& m) {
  std::size_t pos = 0;
  std::uint32_t n = 0;
  if (!expect_type(body, pos, MsgType::kEvalResult) || !read_raw(body, pos, m.request_id) ||
      !read_raw(body, pos, m.tier) || !read_raw(body, pos, n))
    return false;
  m.foms.clear();
  m.foms.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    core::Fom fom;
    if (!read_fom(body, pos, fom)) return false;
    m.foms.push_back(std::move(fom));
  }
  return read_raw(body, pos, m.busy_ns) && read_nodal(body, pos, m.nodal) &&
         read_sched(body, pos, m.sched) && at_end(body, pos);
}

std::string encode_eval_error(const EvalError& m) {
  std::string body;
  append_raw(body, static_cast<std::uint8_t>(MsgType::kEvalError));
  append_raw(body, m.request_id);
  append_string(body, m.message);
  return body;
}

bool decode_eval_error(const std::string& body, EvalError& m) {
  std::size_t pos = 0;
  return expect_type(body, pos, MsgType::kEvalError) && read_raw(body, pos, m.request_id) &&
         read_string(body, pos, m.message) && at_end(body, pos);
}

std::string encode_shutdown() {
  std::string body;
  append_raw(body, static_cast<std::uint8_t>(MsgType::kShutdown));
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
  framed.reserve(12 + body.size());
  append_raw(framed, static_cast<std::uint32_t>(body.size()));
  framed.append(body);
  append_raw(framed, util::fnv1a64(body.data(), body.size()));
  return write_all(fd, framed.data(), framed.size());
}

ReadStatus read_frame(int fd, std::string& body) {
  std::uint32_t len = 0;
  ReadStatus s = read_all(fd, reinterpret_cast<char*>(&len), sizeof len);
  if (s != ReadStatus::kOk) return s;
  if (len > kMaxFrameBody) return ReadStatus::kCorrupt;
  body.resize(len);
  s = read_all(fd, body.data(), len);
  if (s != ReadStatus::kOk) return s == ReadStatus::kEof ? ReadStatus::kCorrupt : s;
  std::uint64_t checksum = 0;
  s = read_all(fd, reinterpret_cast<char*>(&checksum), sizeof checksum);
  if (s != ReadStatus::kOk) return s == ReadStatus::kEof ? ReadStatus::kCorrupt : s;
  if (checksum != util::fnv1a64(body.data(), body.size())) return ReadStatus::kCorrupt;
  return ReadStatus::kOk;
}

}  // namespace xlds::shard
