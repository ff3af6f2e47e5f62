#include "dse/journal.hpp"

#include "core/fom_codec.hpp"
#include "dse/fidelity.hpp"
#include "util/error.hpp"

namespace xlds::dse {

namespace {

constexpr std::uint32_t kVersionLegacy3Tier = 1;
constexpr std::uint32_t kVersion = 2;
// Body bound: a note longer than this is a corrupt length field, not a real
// note.
constexpr util::RecordFormat kFormat{"journal", "XLDSJNL1",
                                     8 + sizeof(std::uint32_t) + sizeof(std::uint64_t), 1u << 20};

std::string header_bytes(std::uint64_t job_hash) {
  std::string header(kFormat.magic);
  util::put_raw(header, kVersion);
  util::put_raw(header, job_hash);
  return header;
}

/// Reads the version and job hash into `info`; PreconditionError on a
/// version this build cannot read.
void read_header(std::string_view header, const std::string& path, Journal::InspectInfo& info) {
  std::size_t pos = kFormat.magic.size();
  util::get_raw(header, pos, info.version);
  util::get_raw(header, pos, info.job_hash);
  XLDS_REQUIRE_MSG(info.version == kVersion || info.version == kVersionLegacy3Tier,
                   "journal '" << path << "' has format version " << info.version
                               << ", this build reads " << kVersionLegacy3Tier << " and "
                               << kVersion);
}

std::string encode_body(const Journal::Record& r) {
  std::string body;
  body.reserve(64 + r.fom.note.size());
  util::put_raw(body, r.key);
  util::put_raw(body, r.fidelity);
  core::put_fom_values(body, r.fom);
  util::put_raw(body, r.uncertainty);
  util::put_string(body, r.fom.note);
  return body;
}

bool decode_body(std::string_view body, std::uint32_t version, Journal::Record& r) {
  std::size_t pos = 0;
  if (!util::get_raw(body, pos, r.key) || !util::get_raw(body, pos, r.fidelity) ||
      !core::get_fom_values(body, pos, r.fom) ||
      (version == kVersion && !util::get_raw(body, pos, r.uncertainty)) ||
      !util::get_string(body, pos, r.fom.note) || pos != body.size())
    return false;
  // Legacy tiers were numbered before the surrogate rung existed; shifting
  // them is exactly the enum renumbering, so FOM semantics are unchanged.
  if (version == kVersionLegacy3Tier)
    r.fidelity += static_cast<std::uint32_t>(Fidelity::kAnalytic);
  return true;
}

/// Decoder that appends each record to `info` (whose version the header
/// check has read by then).
util::BodyDecoder collect(Journal::InspectInfo& info) {
  return [&info](std::string_view body) {
    Journal::Record r;
    if (!decode_body(body, info.version, r)) return false;
    info.records.push_back(std::move(r));
    return true;
  };
}

}  // namespace

Journal::Journal(std::string path, std::uint64_t job_hash)
    : path_(std::move(path)), job_hash_(job_hash) {
  InspectInfo replayed;
  const auto check = [&](std::string_view header) {
    read_header(header, path_, replayed);
    XLDS_REQUIRE_MSG(replayed.job_hash == job_hash_,
                     "journal '" << path_ << "' belongs to a different job "
                                 << "(space/application/fidelity settings changed); "
                                 << "delete it or point --journal elsewhere");
  };
  file_ = util::RecordFile(path_, kFormat, header_bytes(job_hash_), check, collect(replayed));
  records_ = std::move(replayed.records);
  open_info_.existed = file_.existed();
  open_info_.replayed = records_.size();
  open_info_.dropped_bytes = file_.dropped_bytes();

  if (open_info_.existed && replayed.version != kVersion) {
    // Upgrade in place: re-frame every intact record in the v2 layout and
    // atomically swap the file, so after this point only one version ever
    // exists on disk.
    std::string fresh = header_bytes(job_hash_);
    for (const Record& r : records_) util::put_frame(fresh, encode_body(r));
    file_.replace(fresh);
    open_info_.upgraded = true;
  }
}

void Journal::append(const Record& r) {
  XLDS_REQUIRE_MSG(file_.append(encode_body(r)), "journal append to '" << path_ << "' failed");
  ++appended_;
}

Journal::InspectInfo Journal::inspect(const std::string& path) {
  InspectInfo info;
  info.dropped_bytes = util::RecordFile::inspect(
      path, kFormat, [&](std::string_view header) { read_header(header, path, info); },
      collect(info));
  return info;
}

}  // namespace xlds::dse
