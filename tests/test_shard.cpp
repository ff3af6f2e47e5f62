// Unit tests for the multi-process evaluation shard layer: the wire
// protocol's encode/decode and framing discipline, the persistent cross-run
// result cache, the forked shard pool, worker-death recovery, the validated
// XLDS_* env parsing — and the headline acceptance
// property: a sharded exploration (even one whose worker is SIGKILLed
// mid-batch, even one served from a warm cache) produces journal bytes and
// results bit-identical to the in-process run.
#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/evaluate.hpp"
#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "fault/resilience.hpp"
#include "shard/protocol.hpp"
#include "shard/result_cache.hpp"
#include "shard/shard_pool.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/record.hpp"

namespace xlds::shard {
namespace {

namespace fs = std::filesystem;

class TempPath {
 public:
  explicit TempPath(const std::string& stem)
      : path_((fs::temp_directory_path() /
               ("xlds_shard_" + stem + "_" +
                std::to_string(::testing::UnitTest::GetInstance()->random_seed()) + "_" +
                std::to_string(reinterpret_cast<std::uintptr_t>(this))))
                  .string()) {
    fs::remove(path_);
  }
  ~TempPath() { fs::remove(path_); }
  const std::string& str() const { return path_; }

 private:
  std::string path_;
};

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

core::Fom fom_fixture(double scale, bool feasible = true, const std::string& note = "") {
  core::Fom fom;
  fom.latency = 1.5e-6 * scale;
  fom.energy = 2.25e-7 * scale;
  fom.area_mm2 = 0.125 * scale;
  fom.accuracy = 0.75 + 0.001 * scale;
  fom.feasible = feasible;
  fom.note = note;
  return fom;
}

/// A pure synthetic evaluator: every FOM field is a distinct function of the
/// point's enums and the tier, so misrouted results are always detected.
core::Fom synth_eval(const core::DesignPoint& p, std::uint32_t tier) {
  core::Fom fom;
  const double d = static_cast<double>(p.device);
  const double a = static_cast<double>(p.arch);
  const double g = static_cast<double>(p.algo);
  const double t = static_cast<double>(tier);
  fom.latency = 1.0 + d + 0.1 * a + 0.01 * g + 0.001 * t;
  fom.energy = 2.0 + 10.0 * d + a + 0.1 * g + 0.01 * t;
  fom.area_mm2 = 3.0 + d * a + g;
  fom.accuracy = 0.5 + 0.001 * (d + a + g + t);
  fom.feasible = (static_cast<int>(p.device) + static_cast<int>(p.arch)) % 3 != 0;
  fom.note = p.to_string() + "@t" + std::to_string(tier);
  return fom;
}

std::vector<BatchItem> synth_batch(std::size_t n) {
  const auto& devices = device::all_device_kinds();
  const auto& archs = core::all_arch_kinds();
  const auto& algos = core::all_algo_kinds();
  std::vector<BatchItem> items;
  for (std::size_t i = 0; i < n; ++i) {
    BatchItem item;
    item.index = 1000 + i;
    item.point.device = devices[i % devices.size()];
    item.point.arch = archs[(i / 2) % archs.size()];
    item.point.algo = algos[(i / 3) % algos.size()];
    item.point.application = "isolet-like";
    items.push_back(std::move(item));
  }
  return items;
}

// ---------------------------------------------------------------- protocol

TEST(Protocol, HelloRoundTrips) {
  Hello in;
  in.job_hash = 0xdeadbeefcafef00dull;
  in.worker_threads = 3;
  Hello out;
  ASSERT_TRUE(decode_hello(encode_hello(in), out));
  EXPECT_EQ(out.job_hash, in.job_hash);
  EXPECT_EQ(out.worker_threads, in.worker_threads);

  HelloAck ack_in{0x1234u, 4242};
  HelloAck ack_out;
  ASSERT_TRUE(decode_hello_ack(encode_hello_ack(ack_in), ack_out));
  EXPECT_EQ(ack_out.job_hash, ack_in.job_hash);
  EXPECT_EQ(ack_out.pid, ack_in.pid);
}

TEST(Protocol, EvalMessagesRoundTripBitExactly) {
  EvalRequest req;
  req.request_id = 77;
  req.tier = 3;
  req.points = {{11, 1, 2, 3}, {12, 4, 5, 0}};
  EvalRequest req_out;
  ASSERT_TRUE(decode_eval_request(encode_eval_request(req), req_out));
  EXPECT_EQ(req_out.request_id, 77u);
  EXPECT_EQ(req_out.tier, 3u);
  ASSERT_EQ(req_out.points.size(), 2u);
  EXPECT_EQ(req_out.points[1].index, 12u);
  EXPECT_EQ(req_out.points[1].device, 4u);

  EvalResult res;
  res.request_id = 77;
  res.tier = 3;
  res.foms = {fom_fixture(1.0), fom_fixture(2.0, false, "culled: note, with comma")};
  res.busy_ns = 123456789;
  res.nodal.factorizations = 5;
  res.sched.stolen_tasks = 9;
  EvalResult res_out;
  ASSERT_TRUE(decode_eval_result(encode_eval_result(res), res_out));
  ASSERT_EQ(res_out.foms.size(), 2u);
  // Bit-exact doubles, not approximately equal: the journal-identity
  // guarantee rides on this.
  EXPECT_EQ(res_out.foms[0].latency, res.foms[0].latency);
  EXPECT_EQ(res_out.foms[1].accuracy, res.foms[1].accuracy);
  EXPECT_FALSE(res_out.foms[1].feasible);
  EXPECT_EQ(res_out.foms[1].note, "culled: note, with comma");
  EXPECT_EQ(res_out.busy_ns, 123456789u);
  EXPECT_EQ(res_out.nodal.factorizations, 5u);
  EXPECT_EQ(res_out.sched.stolen_tasks, 9u);

  EvalError err{42, "boom: past the budget"};
  EvalError err_out;
  ASSERT_TRUE(decode_eval_error(encode_eval_error(err), err_out));
  EXPECT_EQ(err_out.request_id, 42u);
  EXPECT_EQ(err_out.message, err.message);
}

TEST(Protocol, DecodersRejectMalformedBodies) {
  const std::string good = encode_eval_result([] {
    EvalResult r;
    r.request_id = 1;
    r.foms = {fom_fixture(1.0)};
    return r;
  }());
  EvalResult out;
  // Truncated at every prefix length: never accepted, never crashes.
  for (std::size_t len = 0; len < good.size(); ++len)
    EXPECT_FALSE(decode_eval_result(good.substr(0, len), out)) << "prefix " << len;
  // Trailing junk is rejected too (a frame is exactly one message).
  EXPECT_FALSE(decode_eval_result(good + "x", out));
  // A count the body cannot hold is rejected before it sizes an allocation:
  // type | request id | tier | n = 0xFFFFFFFF | 4 bytes, 21 bytes in all.
  for (const MsgType t : {MsgType::kEvalRequest, MsgType::kEvalResult}) {
    std::string huge(1, static_cast<char>(t));
    huge.append(8 + 4, '\0');
    huge.append(4, '\xff');
    huge.append(4, '\0');
    ASSERT_EQ(huge.size(), 21u);
    EvalRequest req;
    EXPECT_FALSE(decode_eval_request(huge, req));
    EXPECT_FALSE(decode_eval_result(huge, out));
  }
  // Wrong type byte.
  Hello hello;
  EXPECT_FALSE(decode_hello(good, hello));
  // decode_type rejects empty and unknown type bytes.
  MsgType type;
  EXPECT_FALSE(decode_type("", type));
  EXPECT_FALSE(decode_type(std::string(1, '\x63'), type));
  ASSERT_TRUE(decode_type(good, type));
  EXPECT_EQ(type, MsgType::kEvalResult);
}

TEST(Protocol, FramesSurviveTheSocketAndCorruptionIsDetected) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const std::string body = encode_shutdown() + std::string(100, 'z');  // arbitrary bytes

  ASSERT_TRUE(write_frame(sv[0], body));
  std::string got;
  ASSERT_EQ(read_frame(sv[1], got), ReadStatus::kOk);
  EXPECT_EQ(got, body);

  // Flip one payload byte in a manually framed copy: checksum must catch it.
  {
    std::string framed;
    const std::uint32_t len = static_cast<std::uint32_t>(body.size());
    framed.append(reinterpret_cast<const char*>(&len), sizeof len);
    framed.append(body);
    const std::uint64_t sum = util::fnv1a64(body.data(), body.size());
    framed.append(reinterpret_cast<const char*>(&sum), sizeof sum);
    framed[sizeof len + 5] ^= 0x40;
    ASSERT_EQ(::send(sv[0], framed.data(), framed.size(), 0),
              static_cast<ssize_t>(framed.size()));
    EXPECT_EQ(read_frame(sv[1], got), ReadStatus::kCorrupt);
  }

  // A peer that dies mid-frame: kCorrupt, not a silent short read.
  ASSERT_TRUE(write_frame(sv[0], body));
  int sv2[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv2), 0);
  const std::uint32_t big = 1000;
  ASSERT_EQ(::send(sv2[0], &big, sizeof big, 0), static_cast<ssize_t>(sizeof big));
  ::close(sv2[0]);
  EXPECT_EQ(read_frame(sv2[1], got), ReadStatus::kCorrupt);
  ::close(sv2[1]);

  // A cleanly closed peer between frames: kEof.
  ASSERT_EQ(read_frame(sv[1], got), ReadStatus::kOk);
  ::close(sv[0]);
  EXPECT_EQ(read_frame(sv[1], got), ReadStatus::kEof);
  ::close(sv[1]);
}

// ------------------------------------------------------------ result cache

TEST(ResultCache, RoundTripsAcrossReopen) {
  TempPath path("cache");
  const core::Fom fom = fom_fixture(3.0, true, "note with, comma");
  {
    ResultCache cache(path.str());
    EXPECT_FALSE(cache.stats().existed);
    EXPECT_EQ(cache.find(1, 2, 3), nullptr);  // miss
    cache.insert(1, 2, 3, fom);
    const core::Fom* hit = cache.find(1, 2, 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->latency, fom.latency);
    EXPECT_EQ(cache.stats().hits, 1u);
    EXPECT_EQ(cache.stats().misses, 1u);
  }
  {
    ResultCache cache(path.str());
    EXPECT_TRUE(cache.stats().existed);
    EXPECT_EQ(cache.stats().loaded, 1u);
    const core::Fom* hit = cache.find(1, 2, 3);
    ASSERT_NE(hit, nullptr);
    EXPECT_EQ(hit->latency, fom.latency);
    EXPECT_EQ(hit->energy, fom.energy);
    EXPECT_EQ(hit->accuracy, fom.accuracy);
    EXPECT_EQ(hit->note, fom.note);
    // Different tier / point / space: distinct keys, all misses.
    EXPECT_EQ(cache.find(1, 2, 0), nullptr);
    EXPECT_EQ(cache.find(1, 9, 3), nullptr);
    EXPECT_EQ(cache.find(9, 2, 3), nullptr);
  }
  // Both runs closed with lookups -> two session records on disk.
  const ResultCache::InspectInfo info = ResultCache::inspect(path.str());
  EXPECT_EQ(info.results.size(), 1u);
  EXPECT_EQ(info.sessions.size(), 2u);
  EXPECT_EQ(info.sessions[0].hits, 1u);
  EXPECT_EQ(info.sessions[0].misses, 1u);
  EXPECT_EQ(info.dropped_bytes, 0u);
}

TEST(ResultCache, TruncatesTornTailOnOpenAndInspectReportsIt) {
  TempPath path("torn");
  {
    ResultCache cache(path.str());
    cache.insert(1, 1, 1, fom_fixture(1.0));
    cache.insert(1, 2, 1, fom_fixture(2.0));
  }
  // Append half a record's worth of garbage, as a crash mid-append would.
  const std::size_t intact = fs::file_size(path.str());
  {
    std::ofstream out(path.str(), std::ios::binary | std::ios::app);
    out << "torn-rec";
  }
  EXPECT_EQ(ResultCache::inspect(path.str()).dropped_bytes, 8u);
  {
    ResultCache cache(path.str());
    EXPECT_EQ(cache.stats().loaded, 2u);
    EXPECT_EQ(cache.stats().dropped_bytes, 8u);
  }
  EXPECT_EQ(fs::file_size(path.str()), intact);  // truncated back to the good prefix

  // A corrupted byte *inside* an intact record drops it and everything after.
  {
    std::fstream f(path.str(), std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(intact) - 20);
    f.put('\x7f');
  }
  const ResultCache::InspectInfo info = ResultCache::inspect(path.str());
  EXPECT_LT(info.results.size(), 2u);
  EXPECT_GT(info.dropped_bytes, 0u);
}

TEST(ResultCache, ReplayStopsAtTheFirstUnknownRecordType) {
  // An intact frame of a record type a later version might write ends the
  // trusted prefix: the valid result after it goes with it.
  TempPath path("unknown"), other("unknown_other");
  { ResultCache(path.str()).insert(1, 1, 1, fom_fixture(1.0)); }
  { ResultCache(other.str()).insert(1, 2, 1, fom_fixture(2.0)); }
  const std::string intact = read_bytes(path.str());
  std::string tail;
  util::put_frame(tail, "\x09 a record from a future version");
  tail += read_bytes(other.str()).substr(12);  // its result frame, past the header
  {
    std::ofstream out(path.str(), std::ios::binary | std::ios::app);
    out << tail;
  }
  const ResultCache::InspectInfo info = ResultCache::inspect(path.str());
  EXPECT_EQ(info.results.size(), 1u);
  EXPECT_EQ(info.dropped_bytes, tail.size());
  { EXPECT_EQ(ResultCache(path.str()).stats().loaded, 1u); }
  EXPECT_EQ(read_bytes(path.str()), intact);
}

TEST(ResultCache, RejectsForeignFiles) {
  TempPath path("foreign");
  {
    std::ofstream out(path.str(), std::ios::binary);
    out << "this is not a cache file at all";
  }
  EXPECT_THROW(ResultCache cache(path.str()), PreconditionError);
  EXPECT_THROW(ResultCache::inspect(path.str()), PreconditionError);
}

TEST(ResultCache, PointHashSeparatesAxesAndApplication) {
  core::DesignPoint a;
  a.device = device::DeviceKind::kRram;
  a.arch = core::ArchKind::kCamAccelerator;
  a.algo = core::AlgoKind::kHdc;
  core::DesignPoint b = a;
  EXPECT_EQ(cache_point_hash(a), cache_point_hash(b));
  b.algo = core::AlgoKind::kMann;
  EXPECT_NE(cache_point_hash(a), cache_point_hash(b));
  b = a;
  b.application = "mnist-like";
  EXPECT_NE(cache_point_hash(a), cache_point_hash(b));
}

// -------------------------------------------------------------- shard pool

ShardConfig synth_config(std::size_t shards) {
  ShardConfig cfg;
  cfg.shards = shards;
  cfg.worker_threads = 1;
  cfg.job_hash = 0xab5ull;
  cfg.application = "isolet-like";
  cfg.evaluator = synth_eval;
  return cfg;
}

TEST(ShardPool, MatchesDirectEvaluationInOrder) {
  ShardPool pool(synth_config(3));
  const std::vector<BatchItem> items = synth_batch(23);
  const BatchResult got = pool.evaluate(items, 2);
  ASSERT_EQ(got.foms.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    const core::Fom want = synth_eval(items[i].point, 2);
    EXPECT_EQ(got.foms[i].latency, want.latency) << i;
    EXPECT_EQ(got.foms[i].energy, want.energy) << i;
    EXPECT_EQ(got.foms[i].feasible, want.feasible) << i;
    EXPECT_EQ(got.foms[i].note, want.note) << i;
  }
  EXPECT_GE(pool.stats().requests, 1u);
  EXPECT_EQ(pool.stats().respawns, 0u);

  // A second batch on the same pool (tier changes too).
  const BatchResult again = pool.evaluate(synth_batch(5), 1);
  ASSERT_EQ(again.foms.size(), 5u);
  EXPECT_EQ(again.foms[4].note, synth_eval(items[4].point, 1).note);

  // Empty batch is a no-op.
  EXPECT_TRUE(pool.evaluate({}, 1).foms.empty());
}

TEST(ShardPool, RecoversFromSigkilledWorkerMidBatch) {
  ShardConfig cfg = synth_config(3);
  cfg.max_points_per_request = 2;
  cfg.kill_worker_after_results = 3;  // SIGKILL a worker early in the batch
  cfg.evaluator = [](const core::DesignPoint& p, std::uint32_t tier) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));  // keep work in flight
    return synth_eval(p, tier);
  };
  ShardPool pool(std::move(cfg));
  const std::vector<BatchItem> items = synth_batch(40);
  const BatchResult got = pool.evaluate(items, 3);
  EXPECT_GE(pool.stats().respawns, 1u);
  ASSERT_EQ(got.foms.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(got.foms[i].note, synth_eval(items[i].point, 3).note) << i;
}

TEST(ShardPool, EvaluatorExceptionsRethrowAtLowestBatchPosition) {
  ShardConfig cfg = synth_config(2);
  cfg.max_points_per_request = 1;
  cfg.evaluator = [](const core::DesignPoint& p, std::uint32_t tier) {
    XLDS_REQUIRE_MSG(p.algo != core::AlgoKind::kMann, "no mann allowed in this test");
    return synth_eval(p, tier);
  };
  ShardPool pool(std::move(cfg));
  std::vector<BatchItem> items = synth_batch(8);
  items[2].point.algo = core::AlgoKind::kMann;
  items[6].point.algo = core::AlgoKind::kMann;
  try {
    pool.evaluate(items, 1);
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("no mann allowed"), std::string::npos);
  }
  // The pool survives a failed batch: workers kept serving.
  const BatchResult ok = pool.evaluate(synth_batch(4), 1);
  EXPECT_EQ(ok.foms.size(), 4u);
}

TEST(ShardPool, SendsEachGroupOnce) {
  ShardConfig cfg = synth_config(3);
  cfg.max_points_per_request = 2;
  const std::vector<BatchItem> items = synth_batch(24);  // 12 groups of 2
  // One slow point keeps its group in flight while the other workers drain
  // the queue and go idle; none of them may take a copy of that group.
  const std::string slow = items.front().point.to_string();
  cfg.evaluator = [slow](const core::DesignPoint& p, std::uint32_t tier) {
    if (p.to_string() == slow) std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return synth_eval(p, tier);
  };
  ShardPool pool(std::move(cfg));
  const BatchResult got = pool.evaluate(items, 2);
  ASSERT_EQ(got.foms.size(), items.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    EXPECT_EQ(got.foms[i].note, synth_eval(items[i].point, 2).note) << i;
  EXPECT_EQ(pool.stats().requests, 12u);
  EXPECT_EQ(pool.stats().points, items.size());
}

TEST(ShardPool, DestructorReapsEveryWorker) {
  {
    ShardPool pool(synth_config(4));
    EXPECT_EQ(pool.evaluate(synth_batch(16), 1).foms.size(), 16u);
  }
  errno = 0;
  EXPECT_EQ(::waitpid(-1, nullptr, WNOHANG), -1);
  EXPECT_EQ(errno, ECHILD);
}

// ------------------------------------------------- engine-level acceptance

dse::EngineConfig engine_config(std::uint64_t seed = 11) {
  dse::EngineConfig config;
  config.application = "isolet-like";
  config.strategy = "nsga2";
  config.budget = 40;
  config.seed = seed;
  config.fidelity.max_fidelity = dse::Fidelity::kNodal;
  return config;
}

bool same_results(const dse::ExplorationResult& a, const dse::ExplorationResult& b) {
  if (a.evaluated.size() != b.evaluated.size() || a.front != b.front ||
      a.ranking != b.ranking)
    return false;
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    const core::Fom& fa = a.evaluated[i].fom;
    const core::Fom& fb = b.evaluated[i].fom;
    if (a.evaluated[i].point.to_string() != b.evaluated[i].point.to_string() ||
        a.tiers[i] != b.tiers[i] || fa.latency != fb.latency || fa.energy != fb.energy ||
        fa.area_mm2 != fb.area_mm2 || fa.accuracy != fb.accuracy ||
        fa.feasible != fb.feasible || fa.note != fb.note)
      return false;
  }
  return true;
}

TEST(Acceptance, ShardedRunIsBitIdenticalToInProcess) {
  TempPath j_inproc("inproc");
  TempPath j_sharded("sharded");

  dse::EngineConfig config = engine_config();
  config.journal_path = j_inproc.str();
  const dse::ExplorationResult inproc = dse::explore(config);

  config.journal_path = j_sharded.str();
  config.shards = 2;
  const dse::ExplorationResult sharded = dse::explore(config);

  EXPECT_EQ(sharded.stats.shards_used, 2u);
  EXPECT_GE(sharded.stats.shard_requests, 1u);
  EXPECT_TRUE(same_results(inproc, sharded));
  EXPECT_EQ(read_bytes(j_inproc.str()), read_bytes(j_sharded.str()));
}

TEST(Acceptance, WorkerDeathMidRunKeepsJournalBytesIdentical) {
  TempPath j_clean("clean");
  TempPath j_killed("killed");

  dse::EngineConfig config = engine_config(13);
  config.journal_path = j_clean.str();
  const dse::ExplorationResult clean = dse::explore(config);

  config.journal_path = j_killed.str();
  config.shards = 2;
  config.kill_shard_worker_after = 3;
  const dse::ExplorationResult killed = dse::explore(config);

  EXPECT_GE(killed.stats.shard_respawns, 1u);
  EXPECT_TRUE(same_results(clean, killed));
  EXPECT_EQ(read_bytes(j_clean.str()), read_bytes(j_killed.str()));
}

TEST(Acceptance, WarmCacheServesEverythingAndChangesNoBytes) {
  TempPath cache("warm");
  TempPath j_cold("cold");
  TempPath j_warm("warmj");

  dse::EngineConfig config = engine_config(17);
  config.cache_path = cache.str();
  config.journal_path = j_cold.str();
  const dse::ExplorationResult cold = dse::explore(config);
  EXPECT_EQ(cold.stats.cache_hits, 0u);
  EXPECT_EQ(cold.stats.cache_appends, cold.stats.computed);
  EXPECT_GT(cold.stats.cache_appends, 0u);

  config.journal_path = j_warm.str();
  const dse::ExplorationResult warm = dse::explore(config);
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.cache_hits, cold.stats.computed);
  EXPECT_TRUE(same_results(cold, warm));
  EXPECT_EQ(read_bytes(j_cold.str()), read_bytes(j_warm.str()));
}

TEST(Acceptance, CacheIsSharedAcrossOverlappingJobSpaces) {
  TempPath cache("overlap");

  // Full-grid job populates the cache...
  dse::EngineConfig config = engine_config(19);
  config.cache_path = cache.str();
  const dse::ExplorationResult full = dse::explore(config);
  EXPECT_GT(full.stats.cache_appends, 0u);

  // ...and a job restricted to a sub-space reuses the overlapping entries:
  // same ladder + application, different axes, same cache keys.
  dse::EngineConfig restricted = engine_config(23);
  restricted.cache_path = cache.str();
  restricted.budget = 10;
  restricted.axes.archs = {core::ArchKind::kCamAccelerator, core::ArchKind::kGpu,
                           core::ArchKind::kCrossbarAccelerator};
  const dse::ExplorationResult sub = dse::explore(restricted);
  EXPECT_GT(sub.stats.cache_hits, 0u);
}

TEST(Acceptance, ShardsComposeWithJournalResume) {
  TempPath journal("resume");

  // Crash a sharded run part-way via the abort hook...
  dse::EngineConfig config = engine_config(29);
  config.journal_path = journal.str();
  config.shards = 2;
  config.abort_after_computed = 7;
  EXPECT_THROW(dse::explore(config), dse::AbortInjected);

  // ...resume it sharded, and compare against an uninterrupted in-process run.
  config.abort_after_computed = 0;
  const dse::ExplorationResult resumed = dse::explore(config);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_GT(resumed.stats.journal_hits, 0u);

  dse::EngineConfig clean = engine_config(29);
  clean.shards = 1;
  EXPECT_TRUE(same_results(dse::explore(clean), resumed));
}

/// The CI dse-smoke job: NSGA-II over the full grid up to the MC tier.
dse::EngineConfig ci_mc_job() {
  return dse::config_from_spec_text(
      R"({"strategy": "nsga2", "budget": 60, "seed": 7, "fidelity": {"max": "mc"}})");
}

void clear_all_memo_layers() {
  dse::clear_fidelity_caches();
  core::clear_evaluation_caches();
  fault::clear_resilience_caches();
}

std::string no_stats_json(const dse::ExplorationResult& r) {
  return dse::result_to_json(r, /*include_stats=*/false).dump(2);
}

TEST(Acceptance, RepeatedShardedJobRebuildsNoRung) {
  TempPath j_inproc("rung_inproc");
  TempPath j_first("rung_first");
  TempPath j_second("rung_second");

  clear_all_memo_layers();
  dse::EngineConfig config = ci_mc_job();
  config.journal_path = j_inproc.str();
  const dse::ExplorationResult inproc = dse::explore(config);

  // The parent primes every shared rung before it forks, so the first job's
  // workers inherit the tiles and the second job rebuilds nothing at all.
  clear_all_memo_layers();
  config.shards = 4;
  config.journal_path = j_first.str();
  const dse::ExplorationResult first = dse::explore(config);
  config.journal_path = j_second.str();
  const dse::ExplorationResult second = dse::explore(config);

  // FeFET, RRAM and PCM are the full grid's crossbar devices.
  EXPECT_EQ(first.stats.nodal.factorizations, 3u);
  EXPECT_EQ(second.stats.nodal.factorizations, 0u);
  EXPECT_EQ(no_stats_json(first), no_stats_json(inproc));
  EXPECT_EQ(no_stats_json(second), no_stats_json(inproc));
  EXPECT_EQ(read_bytes(j_first.str()), read_bytes(j_inproc.str()));
  EXPECT_EQ(read_bytes(j_second.str()), read_bytes(j_inproc.str()));
}

TEST(Acceptance, FullyCachedRerunPrimesNothing) {
  TempPath cache("primes_nothing");
  dse::EngineConfig config = ci_mc_job();
  config.cache_path = cache.str();
  ASSERT_GT(dse::explore(config).stats.computed, 0u);

  // Priming is lazy: a rerun the cache serves whole builds no rung.
  clear_all_memo_layers();
  const std::size_t lookups = fault::resilience_cache_stats().lookups;
  config.shards = 2;
  const dse::ExplorationResult warm = dse::explore(config);
  EXPECT_EQ(warm.stats.computed, 0u);
  EXPECT_EQ(warm.stats.shard_requests, 0u);
  EXPECT_EQ(warm.stats.nodal.factorizations, 0u);
  EXPECT_EQ(fault::resilience_cache_stats().lookups, lookups);
}

// ------------------------------------------------------------- env parsing

TEST(Env, ParsePositiveCountIsStrict) {
  using util::parse_positive_count;
  EXPECT_EQ(parse_positive_count("1"), 1u);
  EXPECT_EQ(parse_positive_count("64"), 64u);
  EXPECT_EQ(parse_positive_count("0"), std::nullopt);
  EXPECT_EQ(parse_positive_count(""), std::nullopt);
  EXPECT_EQ(parse_positive_count("-3"), std::nullopt);
  EXPECT_EQ(parse_positive_count("+3"), std::nullopt);
  EXPECT_EQ(parse_positive_count(" 3"), std::nullopt);
  EXPECT_EQ(parse_positive_count("3 "), std::nullopt);
  EXPECT_EQ(parse_positive_count("3x"), std::nullopt);
  EXPECT_EQ(parse_positive_count("0x10"), std::nullopt);
  EXPECT_EQ(parse_positive_count("99999999999999999999999999"), std::nullopt);  // overflow
}

TEST(Env, EnvHelpersWarnAndFallBack) {
  ::setenv("XLDS_SHARDS", "4", 1);
  EXPECT_EQ(env_shard_count(), 4u);
  ::setenv("XLDS_SHARDS", "zero", 1);
  EXPECT_EQ(env_shard_count(), 1u);  // + a one-line stderr warning
  ::setenv("XLDS_SHARDS", "0", 1);
  EXPECT_EQ(env_shard_count(), 1u);
  ::unsetenv("XLDS_SHARDS");
  EXPECT_EQ(env_shard_count(), 1u);
}

// -------------------------------------------------------------- fork safety

TEST(ForkSafety, QuiesceThenParallelRebuildsAndResultsAreUnchanged) {
  set_parallel_threads(4);
  const auto sum_squares = [] {
    return parallel_sum(1000, 0, [](std::size_t i) { return static_cast<double>(i * i); });
  };
  const double before = sum_squares();
  parallel_quiesce_for_fork();
  // The pool lazily rebuilds on the next call; values are unchanged.
  EXPECT_EQ(sum_squares(), before);
  parallel_quiesce_for_fork();
  parallel_quiesce_for_fork();  // idempotent
  EXPECT_EQ(sum_squares(), before);
  set_parallel_threads(0);
}

}  // namespace
}  // namespace xlds::shard
