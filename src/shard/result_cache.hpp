// Persistent cross-run memo cache for fidelity-ladder evaluations.
//
// The journal answers "what did *this job* already pay for"; the result
// cache answers "what has *any compatible job on this machine* already paid
// for".  It shares the journal's durability discipline and differs in one
// deliberate way: records are keyed by
//
//   (space hash, point hash, tier)
//
// where the space hash covers the fidelity-ladder settings + application
// profile (everything a FOM *value* depends on besides the point itself) but
// NOT the job's axis restriction, and the point hash covers the design
// point's own axes.  A restricted sweep and a full-grid sweep therefore
// share entries for every overlapping point — exactly the reuse a journal's
// per-job index keys cannot express.
//
// The file is a record file of the shared codec (util/record.hpp: the
// frame, the append and the torn-tail replay) with this header and body:
//
//   header:  magic "XLDSRCH1" | format version u32
//   body:    record type u8 | payload
//     result:  space hash u64 | point hash u64 | tier u32 | FOM
//              (core/fom_codec.hpp)
//     session: space hash u64 | hits u64 | misses u64   (one per run close —
//              the hit-rate history xlds-journal's `cache` subcommand reads)
//
// Replay also stops at an unknown record type.  Values are stored
// bit-exactly, so a cache hit reproduces the journal bytes a fresh
// evaluation would have produced — the determinism pin the bench asserts.
//
// Surrogate-tier predictions are deliberately *never* cached: their values
// depend on a job's training history, not on the job config alone.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"
#include "util/record.hpp"

namespace xlds::shard {

/// Identity hash of a design point's own axes — the cache key half that,
/// unlike a SearchSpace index, survives axis restriction.
std::uint64_t cache_point_hash(const core::DesignPoint& p);

class ResultCache {
 public:
  struct Stats {
    bool existed = false;            ///< file was present at open
    std::size_t loaded = 0;          ///< intact result records replayed
    std::size_t dropped_bytes = 0;   ///< torn tail truncated at open
    std::size_t hits = 0;            ///< find() calls served this run
    std::size_t misses = 0;          ///< find() calls not served this run
    std::size_t appended = 0;        ///< result records written this run
  };

  /// Open `path` for append, creating it when absent; replays the intact
  /// record prefix into the in-memory index and truncates any torn tail.
  explicit ResultCache(std::string path);

  /// Writes this run's session (hits/misses) record, if any lookups ran.
  ~ResultCache();

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  const std::string& path() const noexcept { return path_; }
  const Stats& stats() const noexcept { return stats_; }

  /// Lookup; counts a hit or miss.  The pointer stays valid until the next
  /// insert().
  const core::Fom* find(std::uint64_t space_hash, std::uint64_t point_hash,
                        std::uint32_t tier);

  /// Durably append one evaluated FOM (write + flush) and index it.
  void insert(std::uint64_t space_hash, std::uint64_t point_hash, std::uint32_t tier,
              const core::Fom& fom);

  /// Read-only integrity scan for tooling (xlds-journal cache): never
  /// truncates or writes.
  struct ResultRecord {
    std::uint64_t space_hash = 0;
    std::uint64_t point_hash = 0;
    std::uint32_t tier = 0;
    core::Fom fom;
  };
  struct SessionRecord {
    std::uint64_t space_hash = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  struct InspectInfo {
    std::uint32_t version = 0;
    std::vector<ResultRecord> results;
    std::vector<SessionRecord> sessions;
    std::size_t dropped_bytes = 0;  ///< torn/corrupt tail (left in place)
  };
  static InspectInfo inspect(const std::string& path);

 private:
  using Key = std::tuple<std::uint64_t, std::uint64_t, std::uint32_t>;

  std::string path_;
  std::map<Key, core::Fom> index_;
  std::uint64_t session_space_ = 0;  ///< first space hash this run touched
  Stats stats_;
  util::RecordFile file_;
};

}  // namespace xlds::shard
