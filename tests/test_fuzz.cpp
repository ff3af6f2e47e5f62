// Deterministic mutation fuzzer over the binary decoders that read untrusted
// bytes: the DSE journal (v2 and the checked-in v1 fixture), the result
// cache, every shard wire message body and the wire's frame reader.  A
// fixed-seed xlds::Rng flips bytes, truncates and splices a small corpus of
// valid files and bodies.  Every mutant must be handled the documented way:
//
//   - a file opens or inspects, or throws PreconditionError (bad magic,
//     version or job hash), and never replays a record the test did not
//     write; a writable open leaves exactly its replayed records on disk;
//   - a wire decoder returns true or false, and a message it accepted
//     re-encodes to one that decodes equal;
//   - nothing crashes or throws anything else.
//
// No corpus download and no libFuzzer: the budget is kMutants per decoder,
// small enough for tier-1 and for the ASan+UBSan CI job.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "core/evaluate.hpp"
#include "dse/journal.hpp"
#include "shard/protocol.hpp"
#include "shard/result_cache.hpp"
#include "util/error.hpp"
#include "util/record.hpp"
#include "util/rng.hpp"

namespace xlds {
namespace {

namespace fs = std::filesystem;

constexpr int kMutants = 10000;

class TempPath {
 public:
  explicit TempPath(const std::string& stem)
      : path_((fs::temp_directory_path() /
               ("xlds_fuzz_" + stem + "_" + std::to_string(::getpid()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string()) {}
  ~TempPath() {
    fs::remove(path_);
    fs::remove(path_ + ".upgrade.tmp");
  }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::uint32_t below(Rng& rng, std::size_t n) {
  return rng.uniform_u32(static_cast<std::uint32_t>(n));
}

/// One to three stacked mutations of `seed`: byte flips, a truncation, or a
/// splice (insert or overwrite) of a chunk of `donor`.
std::string mutate(std::string m, const std::string& donor, Rng& rng) {
  const std::uint32_t ops = 1 + rng.uniform_u32(3);
  for (std::uint32_t op = 0; op < ops; ++op) {
    switch (rng.uniform_u32(3)) {
      case 0:
        if (m.empty()) break;
        for (std::uint32_t i = 0, flips = 1 + rng.uniform_u32(4); i < flips; ++i)
          m[below(rng, m.size())] ^= static_cast<char>(1 + rng.uniform_u32(255));
        break;
      case 1:
        m.resize(below(rng, m.size() + 1));
        break;
      default: {
        const std::size_t from = below(rng, donor.size() + 1);
        const std::size_t len = below(rng, donor.size() - from + 1);
        const std::size_t at = below(rng, m.size() + 1);
        if (rng.uniform_u32(2) == 0)
          m.insert(at, donor, from, len);
        else
          m.replace(at, len, donor, from, len);
      }
    }
  }
  return m;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

bool same_fom(const core::Fom& a, const core::Fom& b) {
  return same_bits(a.latency, b.latency) && same_bits(a.energy, b.energy) &&
         same_bits(a.area_mm2, b.area_mm2) && same_bits(a.accuracy, b.accuracy) &&
         a.feasible == b.feasible && a.note == b.note;
}

/// Calls `body` with kMutants mutants drawn from `seeds` and `donors`.
void for_each_mutant(std::uint64_t stream, const std::vector<std::string>& seeds,
                     const std::vector<std::string>& donors,
                     const std::function<void(const std::string&)>& body) {
  Rng rng(0x5eed5eedull, stream);
  for (int i = 0; i < kMutants; ++i) {
    const std::string& seed = seeds[below(rng, seeds.size())];
    const std::string& donor = donors[below(rng, donors.size())];
    body(mutate(seed, donor, rng));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// ------------------------------------------------------------------ journal

bool same_record(const dse::Journal::Record& a, const dse::Journal::Record& b) {
  return a.key == b.key && a.fidelity == b.fidelity && same_bits(a.uncertainty, b.uncertainty) &&
         same_fom(a.fom, b.fom);
}

bool written(const std::vector<dse::Journal::Record>& all, const dse::Journal::Record& r) {
  return std::any_of(all.begin(), all.end(),
                     [&](const dse::Journal::Record& w) { return same_record(w, r); });
}

bool same_records(const std::vector<dse::Journal::Record>& a,
                  const std::vector<dse::Journal::Record>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(), same_record);
}

std::vector<dse::Journal::Record> journal_records(std::uint64_t salt) {
  return {
      {3 + salt, 0, {1.5e-6, 2.25e-7, 0.125, 0.875, true, "predicted"}, 0.0625},
      {5 + salt, 1, {3.0e-6, 4.5e-7, 0.25, 0.75, true, ""}, 0.0},
      {8 + salt, 2, {6.0e-6, 9.0e-7, 0.5, 0.0, false, "culled: IR drop, too large\nretry"}, 0.0},
      {13 + salt, 3, {1.2e-5, 1.8e-6, 1.0, 0.625, true, "mc"}, 0.0},
      {21 + salt, 3, {2.4e-5, 3.6e-6, 2.0, 0.5, false, std::string(40, 'n')}, 0.0},
  };
}

TEST(Fuzz, JournalOpenAndInspect) {
  constexpr std::uint64_t kJob = 0x0123456789abcdefull;
  std::vector<dse::Journal::Record> all;
  std::vector<std::string> seeds;
  for (std::uint64_t salt : {0u, 100u}) {
    TempPath path("journal_seed");
    dse::Journal j(path.str(), kJob);
    for (const dse::Journal::Record& r : journal_records(salt)) {
      j.append(r);
      all.push_back(r);
    }
    seeds.push_back(read_bytes(path.str()));
  }
  // The checked-in v1 fixture: its records, in the current tier numbering,
  // are what inspecting it replays.
  const std::string v1 = read_bytes(std::string(XLDS_TEST_DATA_DIR) + "/legacy_3tier.xjl");
  ASSERT_FALSE(v1.empty());
  std::uint64_t v1_job = 0;
  {
    TempPath path("journal_v1");
    write_bytes(path.str(), v1);
    const dse::Journal::InspectInfo info = dse::Journal::inspect(path.str());
    ASSERT_EQ(info.version, 1u);
    ASSERT_FALSE(info.records.empty());
    v1_job = info.job_hash;
    all.insert(all.end(), info.records.begin(), info.records.end());
  }
  seeds.push_back(v1);

  TempPath path("journal");
  std::size_t opened = 0, replayed = 0;
  for_each_mutant(1, seeds, seeds, [&](const std::string& mutant) {
    write_bytes(path.str(), mutant);
    std::vector<dse::Journal::Record> inspected;
    bool inspect_ok = false;
    try {
      dse::Journal::InspectInfo info = dse::Journal::inspect(path.str());
      ASSERT_LE(info.dropped_bytes, mutant.size());
      for (const dse::Journal::Record& r : info.records)
        ASSERT_TRUE(written(all, r)) << "inspect replayed a record nobody wrote";
      inspected = std::move(info.records);
      inspect_ok = true;
    } catch (const PreconditionError&) {
    }
    for (const std::uint64_t job : {kJob, v1_job}) {
      write_bytes(path.str(), mutant);
      try {
        const dse::Journal j(path.str(), job);
        ASSERT_TRUE(inspect_ok) << "a file inspect refused opened for append";
        ASSERT_TRUE(same_records(j.records(), inspected));
        ++opened;
        replayed += j.records().size();
        // The open truncated the tail (or rewrote a v1 file): what is on
        // disk now is exactly the replayed prefix, in the current version.
        const dse::Journal::InspectInfo after = dse::Journal::inspect(path.str());
        ASSERT_EQ(after.version, 2u);
        ASSERT_EQ(after.dropped_bytes, 0u);
        ASSERT_TRUE(same_records(after.records, inspected));
      } catch (const PreconditionError&) {
      }
    }
  });
  EXPECT_GT(opened, 0u);
  EXPECT_GT(replayed, 0u);
}

// ------------------------------------------------------------- result cache

bool same_result(const shard::ResultCache::ResultRecord& a,
                 const shard::ResultCache::ResultRecord& b) {
  return a.space_hash == b.space_hash && a.point_hash == b.point_hash && a.tier == b.tier &&
         same_fom(a.fom, b.fom);
}

bool same_session(const shard::ResultCache::SessionRecord& a,
                  const shard::ResultCache::SessionRecord& b) {
  return a.space_hash == b.space_hash && a.hits == b.hits && a.misses == b.misses;
}

TEST(Fuzz, ResultCacheOpenAndInspect) {
  std::vector<shard::ResultCache::ResultRecord> results;
  std::vector<shard::ResultCache::SessionRecord> sessions;
  std::vector<std::string> seeds;
  for (std::uint64_t space : {0xaaaau, 0xbbbbu}) {
    TempPath path("cache_seed");
    {
      shard::ResultCache c(path.str());
      for (std::uint32_t tier = 1; tier <= 3; ++tier) {
        const shard::ResultCache::ResultRecord r{
            space, 0x1000u + tier, tier,
            {1e-6 * tier, 2e-7 * tier, 0.5 * tier, 0.9 - 0.1 * tier, tier != 2,
             tier == 1 ? "" : "note, with comma\nand newline"}};
        c.insert(r.space_hash, r.point_hash, r.tier, r.fom);
        results.push_back(r);
      }
      c.find(space, 0x1001u, 1);  // hit
      c.find(space, 0x9999u, 1);  // miss
    }  // the session record lands here
    sessions.push_back({space, 1, 1});
    seeds.push_back(read_bytes(path.str()));
  }

  TempPath path("cache");
  std::size_t opened = 0, replayed = 0;
  for_each_mutant(2, seeds, seeds, [&](const std::string& mutant) {
    write_bytes(path.str(), mutant);
    shard::ResultCache::InspectInfo before;
    bool inspect_ok = false;
    try {
      before = shard::ResultCache::inspect(path.str());
      ASSERT_LE(before.dropped_bytes, mutant.size());
      for (const auto& r : before.results)
        ASSERT_TRUE(std::any_of(results.begin(), results.end(),
                                [&](const auto& w) { return same_result(w, r); }))
            << "inspect replayed a result nobody wrote";
      for (const auto& s : before.sessions)
        ASSERT_TRUE(std::any_of(sessions.begin(), sessions.end(),
                                [&](const auto& w) { return same_session(w, s); }))
            << "inspect replayed a session nobody wrote";
      inspect_ok = true;
    } catch (const PreconditionError&) {
    }
    try {
      {
        const shard::ResultCache c(path.str());
        ASSERT_TRUE(inspect_ok) << "a file inspect refused opened for append";
        ASSERT_EQ(c.stats().loaded, before.results.size());
        ASSERT_EQ(c.stats().dropped_bytes, before.dropped_bytes);
        ++opened;
        replayed += c.stats().loaded;
      }  // no lookups ran, so no session record is written
      const shard::ResultCache::InspectInfo after = shard::ResultCache::inspect(path.str());
      ASSERT_EQ(after.dropped_bytes, 0u);
      ASSERT_EQ(after.results.size(), before.results.size());
      ASSERT_EQ(after.sessions.size(), before.sessions.size());
      for (std::size_t i = 0; i < after.results.size(); ++i)
        ASSERT_TRUE(same_result(after.results[i], before.results[i]));
    } catch (const PreconditionError&) {
    }
  });
  EXPECT_GT(opened, 0u);
  EXPECT_GT(replayed, 0u);
}

// ---------------------------------------------------------------- shard wire

bool same_msg(const shard::Hello& a, const shard::Hello& b) {
  return a.job_hash == b.job_hash && a.worker_threads == b.worker_threads;
}
bool same_msg(const shard::HelloAck& a, const shard::HelloAck& b) {
  return a.job_hash == b.job_hash && a.pid == b.pid;
}
bool same_msg(const shard::EvalRequest& a, const shard::EvalRequest& b) {
  return a.request_id == b.request_id && a.tier == b.tier &&
         std::equal(a.points.begin(), a.points.end(), b.points.begin(), b.points.end(),
                    [](const shard::WirePoint& x, const shard::WirePoint& y) {
                      return x.index == y.index && x.device == y.device && x.arch == y.arch &&
                             x.algo == y.algo;
                    });
}
bool same_msg(const shard::EvalResult& a, const shard::EvalResult& b) {
  return a.request_id == b.request_id && a.tier == b.tier && a.busy_ns == b.busy_ns &&
         a.nodal == b.nodal && a.sched == b.sched &&
         std::equal(a.foms.begin(), a.foms.end(), b.foms.begin(), b.foms.end(), same_fom);
}
bool same_msg(const shard::EvalError& a, const shard::EvalError& b) {
  return a.request_id == b.request_id && a.message == b.message;
}

/// Decodes `body` as an M; when accepted, the re-encoded message must decode
/// equal.  Returns whether `body` was accepted.
template <class M>
bool round_trip(const std::string& body, bool (*decode)(const std::string&, M&),
                std::string (*encode)(const M&)) {
  M m;
  if (!decode(body, m)) return false;
  M again;
  EXPECT_TRUE(decode(encode(m), again));
  EXPECT_TRUE(same_msg(m, again));
  return true;
}

/// Runs every wire decoder on `body`; returns how many accepted it.
int decode_everything(const std::string& body) {
  shard::MsgType type;
  shard::decode_type(body, type);
  return round_trip(body, shard::decode_hello, shard::encode_hello) +
         round_trip(body, shard::decode_hello_ack, shard::encode_hello_ack) +
         round_trip(body, shard::decode_eval_request, shard::encode_eval_request) +
         round_trip(body, shard::decode_eval_result, shard::encode_eval_result) +
         round_trip(body, shard::decode_eval_error, shard::encode_eval_error);
}

std::vector<std::vector<std::string>> wire_corpus() {
  shard::EvalRequest req{77, 3, {{11, 1, 2, 3}, {12, 4, 5, 0}, {13, 0, 6, 1}}};
  shard::EvalResult res;
  res.request_id = 77;
  res.tier = 3;
  res.foms = {{1e-6, 2e-7, 0.5, 0.9, true, ""},
              {2e-6, 4e-7, 1.0, 0.8, false, "culled: note, with comma\nand newline"}};
  res.busy_ns = 123456789;
  res.nodal.factorizations = 5;
  res.nodal.direct_solves = 40;
  res.sched.tasks = 17;
  res.sched.stolen_tasks = 9;
  shard::EvalResult empty_res;
  empty_res.request_id = 1;
  return {
      {shard::encode_hello({0xdeadbeefcafef00dull, 4})},
      {shard::encode_hello_ack({0x1234u, 4242})},
      {shard::encode_eval_request(req), shard::encode_eval_request({5, 1, {}})},
      {shard::encode_eval_result(res), shard::encode_eval_result(empty_res)},
      {shard::encode_eval_error({42, "boom: past the budget"}),
       shard::encode_eval_error({43, ""})},
  };
}

TEST(Fuzz, WireMessageDecoders) {
  const std::vector<std::vector<std::string>> corpus = wire_corpus();
  std::vector<std::string> donors;
  for (const auto& bodies : corpus) donors.insert(donors.end(), bodies.begin(), bodies.end());
  donors.push_back(shard::encode_shutdown());

  // Each decoder gets kMutants of its own message kind; every mutant also
  // goes through all the other decoders.
  for (std::size_t kind = 0; kind < corpus.size(); ++kind) {
    int accepted = 0;
    for_each_mutant(10 + kind, corpus[kind], donors,
                    [&](const std::string& mutant) { accepted += decode_everything(mutant); });
    EXPECT_GT(accepted, 0) << "message kind " << kind;
  }
}

TEST(Fuzz, WireFrameReader) {
  const std::vector<std::vector<std::string>> corpus = wire_corpus();
  std::vector<std::string> bodies;
  for (const auto& kind : corpus) bodies.insert(bodies.end(), kind.begin(), kind.end());
  std::string stream;
  for (const std::string& b : bodies) util::put_frame(stream, b);

  std::size_t intact = 0;
  for_each_mutant(20, {stream}, {stream}, [&](const std::string& mutant) {
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_EQ(::send(sv[0], mutant.data(), mutant.size(), 0),
              static_cast<ssize_t>(mutant.size()));
    ::close(sv[0]);
    std::string body;
    shard::ReadStatus s;
    while ((s = shard::read_frame(sv[1], body)) == shard::ReadStatus::kOk) {
      ASSERT_NE(std::find(bodies.begin(), bodies.end(), body), bodies.end())
          << "read_frame accepted a frame nobody wrote";
      ++intact;
    }
    ::close(sv[1]);
    ASSERT_TRUE(s == shard::ReadStatus::kEof || s == shard::ReadStatus::kCorrupt);
  });
  EXPECT_GT(intact, 0u);
}

}  // namespace
}  // namespace xlds
