// The one record codec under every XLDS byte format: the DSE journal
// (dse/journal.*), the result cache (shard/result_cache.*) and the shard
// wire (shard/protocol.*).  Each layout decision is made here once:
//
//   value:   fixed-width little-endian field, memcpy'd (doubles bit-exact)
//   string:  length u32 | bytes
//   frame:   body length u32 | body | FNV-1a-64 checksum of the body
//   file:    header (magic first) | frame | frame | ...
//
// A record file is append-only, one frame per record written with one write
// and one flush, so a crash can only leave a torn tail.  Opening a file
// replays frames up to the first torn, checksum-failed or undecodable one;
// everything after it is garbage by construction.  A writable open
// truncates that tail, a read-only inspect leaves it and reports its size.
// The code never knows which format it serves: the caller passes the magic,
// header, body bound, header check and body decoder.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>

namespace xlds::util {

static_assert(std::endian::native == std::endian::little,
              "XLDS record formats are little-endian and memcpy their fields");

template <class T>
void put_raw(std::string& out, const T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  out.append(reinterpret_cast<const char*>(&v), sizeof v);
}

/// Reads a value at `pos` and advances; false when too few bytes remain.
template <class T>
bool get_raw(std::string_view in, std::size_t& pos, T& v) {
  static_assert(std::is_trivially_copyable_v<T>);
  if (pos > in.size() || in.size() - pos < sizeof v) return false;
  std::memcpy(&v, in.data() + pos, sizeof v);
  pos += sizeof v;
  return true;
}

void put_string(std::string& out, std::string_view s);
bool get_string(std::string_view in, std::size_t& pos, std::string& s);

/// Reads a u32 entry count; false when that many entries of at least
/// `min_entry_bytes` cannot fit in the bytes left, so a corrupt count never
/// sizes an allocation.
bool get_count(std::string_view in, std::size_t& pos, std::size_t min_entry_bytes,
               std::uint32_t& n);

constexpr std::size_t kFrameHead = sizeof(std::uint32_t);  ///< body length
constexpr std::size_t kFrameTail = sizeof(std::uint64_t);  ///< checksum

void put_frame(std::string& out, std::string_view body);

/// The body length a frame head announces; false above `max_body`.
bool frame_body_length(std::string_view head, std::uint32_t max_body, std::size_t& len);

/// True when `body_and_tail` ends in the checksum of the bytes before it.
bool frame_tail_matches(std::string_view body_and_tail);

/// Reads the whole frame at `pos` and advances; false when it is torn (cut
/// short, or longer than `max_body`) or its checksum fails.
bool get_frame(std::string_view in, std::size_t& pos, std::uint32_t max_body,
               std::string_view& body);

struct RecordFormat {
  const char* what;         ///< the format's name in error messages
  std::string_view magic;   ///< first bytes of every file of the format
  std::size_t header_size;  ///< bytes before the first frame, magic included
  std::uint32_t max_body;   ///< a longer body length is a torn or corrupt frame
};

/// Throws PreconditionError on a header (magic included) the caller cannot read.
using HeaderCheck = std::function<void(std::string_view header)>;
/// Takes one intact body; false marks it undecodable and stops the replay.
using BodyDecoder = std::function<bool(std::string_view body)>;

class RecordFile {
 public:
  RecordFile() = default;

  /// Opens `path` for append.  An existing file must carry the magic and
  /// pass `check`; its intact frames go to `decode` and the tail after them
  /// is truncated.  A missing file is created holding `header`.
  RecordFile(std::string path, const RecordFormat& format, std::string_view header,
             const HeaderCheck& check, const BodyDecoder& decode);

  /// Read-only replay; returns the size of the tail after the intact frames.
  static std::size_t inspect(const std::string& path, const RecordFormat& format,
                             const HeaderCheck& check, const BodyDecoder& decode);

  bool existed() const noexcept { return existed_; }
  std::size_t dropped_bytes() const noexcept { return dropped_; }

  /// Appends one frame with one write and one flush; false on a failed stream.
  bool append(std::string_view body);

  /// Atomically replaces the file by `contents` (temporary file + rename),
  /// as a format upgrade does, and keeps appending after them.
  void replace(std::string_view contents);

 private:
  void open_for_append();

  std::string path_;
  const char* what_ = "";
  std::ofstream out_;
  bool existed_ = false;
  std::size_t dropped_ = 0;
};

}  // namespace xlds::util
