#include "shard/result_cache.hpp"

#include "core/fom_codec.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"

namespace xlds::shard {

std::uint64_t cache_point_hash(const core::DesignPoint& p) {
  std::uint64_t h = util::fnv1a64("xlds-point-v1", 13);
  const auto mix = [&h](std::uint32_t v) { h = util::fnv1a64(&v, sizeof v, h); };
  mix(static_cast<std::uint32_t>(p.device));
  mix(static_cast<std::uint32_t>(p.arch));
  mix(static_cast<std::uint32_t>(p.algo));
  return util::fnv1a64(p.application.data(), p.application.size(), h);
}

namespace {

constexpr std::uint32_t kVersion = 1;
constexpr util::RecordFormat kFormat{"result cache", "XLDSRCH1", 8 + sizeof(std::uint32_t),
                                     1u << 20};

constexpr std::uint8_t kRecResult = 1;
constexpr std::uint8_t kRecSession = 2;

std::string header_bytes() {
  std::string header(kFormat.magic);
  util::put_raw(header, kVersion);
  return header;
}

/// Reads the version into `info`; PreconditionError on one this build
/// cannot read.
void read_header(std::string_view header, const std::string& path,
                 ResultCache::InspectInfo& info) {
  std::size_t pos = kFormat.magic.size();
  util::get_raw(header, pos, info.version);
  XLDS_REQUIRE_MSG(info.version == kVersion, "result cache '" << path << "' has format version "
                                                              << info.version
                                                              << ", this build reads " << kVersion);
}

std::string encode_result(std::uint64_t space_hash, std::uint64_t point_hash,
                          std::uint32_t tier, const core::Fom& fom) {
  std::string body;
  body.reserve(64 + fom.note.size());
  util::put_raw(body, kRecResult);
  util::put_raw(body, space_hash);
  util::put_raw(body, point_hash);
  util::put_raw(body, tier);
  core::put_fom(body, fom);
  return body;
}

/// False on any body that is not a well-formed result record.
bool decode_result(std::string_view body, ResultCache::ResultRecord& r) {
  std::size_t pos = 0;
  std::uint8_t type = 0;
  return util::get_raw(body, pos, type) && type == kRecResult &&
         util::get_raw(body, pos, r.space_hash) && util::get_raw(body, pos, r.point_hash) &&
         util::get_raw(body, pos, r.tier) && core::get_fom(body, pos, r.fom) &&
         pos == body.size();
}

std::string encode_session(std::uint64_t space_hash, std::uint64_t hits,
                           std::uint64_t misses) {
  std::string body;
  util::put_raw(body, kRecSession);
  util::put_raw(body, space_hash);
  util::put_raw(body, hits);
  util::put_raw(body, misses);
  return body;
}

/// False on any body that is not a well-formed session record.
bool decode_session(std::string_view body, ResultCache::SessionRecord& s) {
  std::size_t pos = 0;
  std::uint8_t type = 0;
  return util::get_raw(body, pos, type) && type == kRecSession &&
         util::get_raw(body, pos, s.space_hash) && util::get_raw(body, pos, s.hits) &&
         util::get_raw(body, pos, s.misses) && pos == body.size();
}

/// Decoder that appends each record to `info`.  A body that is neither
/// record type (malformed, or a type a future version writes) stops the
/// replay there.
util::BodyDecoder collect(ResultCache::InspectInfo& info) {
  return [&info](std::string_view body) {
    ResultCache::ResultRecord r;
    ResultCache::SessionRecord s;
    if (decode_result(body, r))
      info.results.push_back(std::move(r));
    else if (decode_session(body, s))
      info.sessions.push_back(s);
    else
      return false;
    return true;
  };
}

}  // namespace

ResultCache::ResultCache(std::string path) : path_(std::move(path)) {
  InspectInfo replayed;
  file_ = util::RecordFile(
      path_, kFormat, header_bytes(),
      [&](std::string_view header) { read_header(header, path_, replayed); }, collect(replayed));
  for (ResultRecord& r : replayed.results)
    index_[Key{r.space_hash, r.point_hash, r.tier}] = std::move(r.fom);
  stats_.existed = file_.existed();
  stats_.loaded = replayed.results.size();
  stats_.dropped_bytes = file_.dropped_bytes();
}

ResultCache::~ResultCache() {
  if (stats_.hits + stats_.misses == 0) return;
  // Best effort: a destructor must not throw, and a lost session record
  // costs only hit-rate history.
  file_.append(encode_session(session_space_, stats_.hits, stats_.misses));
}

const core::Fom* ResultCache::find(std::uint64_t space_hash, std::uint64_t point_hash,
                                   std::uint32_t tier) {
  if (session_space_ == 0) session_space_ = space_hash;
  const auto it = index_.find(Key{space_hash, point_hash, tier});
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  return &it->second;
}

void ResultCache::insert(std::uint64_t space_hash, std::uint64_t point_hash,
                         std::uint32_t tier, const core::Fom& fom) {
  if (session_space_ == 0) session_space_ = space_hash;
  XLDS_REQUIRE_MSG(file_.append(encode_result(space_hash, point_hash, tier, fom)),
                   "result cache append to '" << path_ << "' failed");
  ++stats_.appended;
  index_[Key{space_hash, point_hash, tier}] = fom;
}

ResultCache::InspectInfo ResultCache::inspect(const std::string& path) {
  InspectInfo info;
  info.dropped_bytes = util::RecordFile::inspect(
      path, kFormat, [&](std::string_view header) { read_header(header, path, info); },
      collect(info));
  return info;
}

}  // namespace xlds::shard
