#include "util/record.hpp"

#include <filesystem>
#include <iterator>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace xlds::util {

void put_string(std::string& out, std::string_view s) {
  put_raw(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

bool get_string(std::string_view in, std::size_t& pos, std::string& s) {
  std::uint32_t len = 0;
  if (!get_raw(in, pos, len) || in.size() - pos < len) return false;
  s.assign(in.substr(pos, len));
  pos += len;
  return true;
}

bool get_count(std::string_view in, std::size_t& pos, std::size_t min_entry_bytes,
               std::uint32_t& n) {
  return get_raw(in, pos, n) && n <= (in.size() - pos) / min_entry_bytes;
}

void put_frame(std::string& out, std::string_view body) {
  put_raw(out, static_cast<std::uint32_t>(body.size()));
  out.append(body);
  put_raw(out, fnv1a64(body.data(), body.size()));
}

bool frame_body_length(std::string_view head, std::uint32_t max_body, std::size_t& len) {
  std::size_t pos = 0;
  std::uint32_t n = 0;
  if (!get_raw(head, pos, n) || n > max_body) return false;
  len = n;
  return true;
}

bool frame_tail_matches(std::string_view body_and_tail) {
  if (body_and_tail.size() < kFrameTail) return false;
  std::size_t pos = body_and_tail.size() - kFrameTail;
  std::uint64_t checksum = 0;
  return get_raw(body_and_tail, pos, checksum) &&
         checksum == fnv1a64(body_and_tail.data(), body_and_tail.size() - kFrameTail);
}

bool get_frame(std::string_view in, std::size_t& pos, std::uint32_t max_body,
               std::string_view& body) {
  std::size_t len = 0;
  if (pos > in.size() || !frame_body_length(in.substr(pos), max_body, len) ||
      in.size() - pos - kFrameHead < len + kFrameTail ||
      !frame_tail_matches(in.substr(pos + kFrameHead, len + kFrameTail)))
    return false;
  body = in.substr(pos + kFrameHead, len);
  pos += kFrameHead + len + kFrameTail;
  return true;
}

namespace {

bool read_file(const std::string& path, std::string& contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  contents.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  return true;
}

/// Checks the magic and header, replays the intact frames; returns the
/// offset just past them.
std::size_t replay(std::string_view contents, const std::string& path,
                   const RecordFormat& format, const HeaderCheck& check,
                   const BodyDecoder& decode) {
  XLDS_REQUIRE_MSG(contents.size() >= format.header_size && contents.starts_with(format.magic),
                   "'" << path << "' is not an XLDS " << format.what);
  check(contents.substr(0, format.header_size));
  std::size_t end = format.header_size;
  for (std::size_t next = end;; end = next) {
    std::string_view body;
    if (!get_frame(contents, next, format.max_body, body) || !decode(body)) return end;
  }
}

}  // namespace

RecordFile::RecordFile(std::string path, const RecordFormat& format, std::string_view header,
                       const HeaderCheck& check, const BodyDecoder& decode)
    : path_(std::move(path)), what_(format.what) {
  XLDS_REQUIRE(!path_.empty());
  std::string contents;
  existed_ = read_file(path_, contents);
  if (existed_) {
    const std::size_t end = replay(contents, path_, format, check, decode);
    dropped_ = contents.size() - end;
    if (dropped_ > 0) std::filesystem::resize_file(path_, end);
  }
  open_for_append();
  if (!existed_) {
    out_.write(header.data(), static_cast<std::streamsize>(header.size()));
    out_.flush();
    XLDS_REQUIRE_MSG(out_.good(), what_ << " header write to '" << path_ << "' failed");
  }
}

std::size_t RecordFile::inspect(const std::string& path, const RecordFormat& format,
                                const HeaderCheck& check, const BodyDecoder& decode) {
  std::string contents;
  XLDS_REQUIRE_MSG(read_file(path, contents), "cannot read " << format.what << " '" << path << "'");
  return contents.size() - replay(contents, path, format, check, decode);
}

bool RecordFile::append(std::string_view body) {
  std::string framed;
  framed.reserve(kFrameHead + body.size() + kFrameTail);
  put_frame(framed, body);
  out_.write(framed.data(), static_cast<std::streamsize>(framed.size()));
  out_.flush();
  return out_.good();
}

void RecordFile::replace(std::string_view contents) {
  const std::string tmp = path_ + ".upgrade.tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    XLDS_REQUIRE_MSG(out.is_open(), "cannot write " << what_ << " upgrade '" << tmp << "'");
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    XLDS_REQUIRE_MSG(out.good(), what_ << " upgrade write to '" << tmp << "' failed");
  }
  out_.close();
  std::filesystem::rename(tmp, path_);
  open_for_append();
}

void RecordFile::open_for_append() {
  out_.open(path_, std::ios::binary | std::ios::app);
  XLDS_REQUIRE_MSG(out_.is_open(), "cannot open " << what_ << " '" << path_ << "' for append");
}

}  // namespace xlds::util
