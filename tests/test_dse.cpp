// Unit tests for the adaptive DSE subsystem: search space indexing, the
// crash-safe journal, the fidelity ladder, the drivers, and the two
// headline acceptance properties — budgeted search recovers the brute-force
// Pareto front, and a killed run resumed from its journal is bit-identical
// to one that never died.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "core/pareto.hpp"
#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "dse/journal.hpp"
#include "dse/space.hpp"
#include "shard/result_cache.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace xlds::dse {
namespace {

namespace fs = std::filesystem;

// Unique per-test scratch path, cleaned up on destruction.
class TempPath {
 public:
  explicit TempPath(const std::string& stem)
      : path_((fs::temp_directory_path() /
               ("xlds_dse_" + stem + "_" +
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

std::set<std::string> front_keys(const ExplorationResult& r) {
  std::set<std::string> keys;
  for (const std::size_t i : r.front) keys.insert(r.evaluated[i].point.to_string());
  return keys;
}

// Brute force at the same fidelity the engine searches at: evaluate every
// viable point, dedup, take the front.
ExplorationResult brute_force(const std::string& application, FidelityConfig fidelity = {}) {
  EngineConfig config;
  config.application = application;
  config.strategy = "lhs";
  config.budget = 0;  // one charge per viable point
  config.fidelity = fidelity;
  return explore(config);
}

bool same_foms(const ExplorationResult& a, const ExplorationResult& b) {
  if (a.evaluated.size() != b.evaluated.size()) return false;
  for (std::size_t i = 0; i < a.evaluated.size(); ++i) {
    const core::Fom& fa = a.evaluated[i].fom;
    const core::Fom& fb = b.evaluated[i].fom;
    if (a.evaluated[i].point.to_string() != b.evaluated[i].point.to_string()) return false;
    if (a.tiers[i] != b.tiers[i]) return false;
    // Bit-identical, not approximately equal.
    if (fa.latency != fb.latency || fa.energy != fb.energy ||
        fa.area_mm2 != fb.area_mm2 || fa.accuracy != fb.accuracy ||
        fa.feasible != fb.feasible || fa.note != fb.note)
      return false;
  }
  return true;
}

// ---- search space -----------------------------------------------------------

TEST(SearchSpace, IndexRoundTripAndViableCount) {
  const SearchSpace space;
  EXPECT_EQ(space.size(), 168u);  // 6 devices x 7 archs x 4 algos
  std::size_t viable = 0;
  for (std::size_t i = 0; i < space.size(); ++i) {
    EXPECT_EQ(space.index_of(space.at(i)), i);
    if (!space.culled(i)) ++viable;
  }
  EXPECT_EQ(space.viable_count(), viable);
  EXPECT_GT(viable, 0u);
  EXPECT_LT(viable, space.size());
}

TEST(SearchSpace, HashSeparatesJobs) {
  const SearchSpace full;
  const SearchSpace other_app({}, "omniglot-like");
  core::SpaceAxes narrow;
  narrow.devices = {device::DeviceKind::kRram};
  const SearchSpace sub(narrow);
  EXPECT_NE(full.hash(), other_app.hash());
  EXPECT_NE(full.hash(), sub.hash());
  EXPECT_EQ(full.hash(), SearchSpace().hash());  // pure function of the job
}

// ---- journal ----------------------------------------------------------------

TEST(Journal, RoundTripsRecords) {
  TempPath path("roundtrip");
  Journal::Record r1{7, 0, {1.0, 2.0, 3.0, 0.5, true, "hello"}};
  Journal::Record r2{11, 2, {4.0, 5.0, 6.0, 0.25, false, ""}};
  {
    Journal j(path.str(), 42);
    EXPECT_FALSE(j.open_info().existed);
    j.append(r1);
    j.append(r2);
  }
  Journal j(path.str(), 42);
  EXPECT_TRUE(j.open_info().existed);
  ASSERT_EQ(j.records().size(), 2u);
  EXPECT_EQ(j.open_info().dropped_bytes, 0u);
  EXPECT_EQ(j.records()[0].key, 7u);
  EXPECT_EQ(j.records()[0].fom.note, "hello");
  EXPECT_EQ(j.records()[1].fidelity, 2u);
  EXPECT_FALSE(j.records()[1].fom.feasible);
  EXPECT_EQ(j.records()[1].fom.accuracy, 0.25);
}

TEST(Journal, TruncatesTornTail) {
  TempPath path("torn");
  {
    Journal j(path.str(), 1);
    j.append({1, 0, {1, 1, 1, 1, true, "first"}});
    j.append({2, 0, {2, 2, 2, 2, true, "second"}});
  }
  const auto full_size = fs::file_size(path.str());
  // Tear the last record mid-body, as a crash during write would.
  fs::resize_file(path.str(), full_size - 10);
  {
    Journal j(path.str(), 1);
    ASSERT_EQ(j.records().size(), 1u);
    EXPECT_EQ(j.records()[0].fom.note, "first");
    EXPECT_GT(j.open_info().dropped_bytes, 0u);
    // Appending after recovery lands where the torn record was.
    j.append({3, 0, {3, 3, 3, 3, true, "third"}});
  }
  Journal j(path.str(), 1);
  ASSERT_EQ(j.records().size(), 2u);
  EXPECT_EQ(j.records()[1].fom.note, "third");
}

TEST(Journal, CorruptChecksumDropsSuffix) {
  TempPath path("corrupt");
  {
    Journal j(path.str(), 9);
    j.append({1, 0, {1, 1, 1, 1, true, "aaaa"}});
    j.append({2, 0, {2, 2, 2, 2, true, "bbbb"}});
  }
  // Flip one byte inside the *first* record's body: everything from that
  // record on is distrusted, including the intact record after it.
  std::fstream f(path.str(), std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(30);
  f.put('\xff');
  f.close();
  Journal j(path.str(), 9);
  EXPECT_EQ(j.records().size(), 0u);
  EXPECT_GT(j.open_info().dropped_bytes, 0u);
}

TEST(Journal, RejectsForeignFiles) {
  TempPath garbage("garbage");
  std::ofstream(garbage.str()) << "this is not a journal, honest";
  EXPECT_THROW(Journal(garbage.str(), 1), PreconditionError);

  TempPath other("otherjob");
  { Journal j(other.str(), 1); }
  EXPECT_THROW(Journal(other.str(), 2), PreconditionError);  // job hash mismatch
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
  return util::fnv1a64(bytes.data(), bytes.size());
}

// Pins every byte the journal and the result cache write.  The digests were
// captured from the writers before they moved onto the shared record codec;
// a layout change anywhere in the frame, the FOM fields, a header or the
// cache's session record fails here.
TEST(RecordFiles, JournalAndCacheBytesArePinned) {
  TempPath journal("golden_journal");
  {
    Journal j(journal.str(), 0x0123456789abcdefull);
    j.append({3, static_cast<std::uint32_t>(Fidelity::kSurrogate),
              {1.5e-6, 2.25e-7, 0.125, 0.875, true, "predicted"}, 0.0625});
    j.append({5, static_cast<std::uint32_t>(Fidelity::kAnalytic),
              {3.0e-6, 4.5e-7, 0.25, 0.75, true, ""}});
    j.append({8, static_cast<std::uint32_t>(Fidelity::kNodal),
              {6.0e-6, 9.0e-7, 0.5, 0.0, false, "culled: IR drop, too large\nretry"}});
    j.append({13, static_cast<std::uint32_t>(Fidelity::kMonteCarlo),
              {1.2e-5, 1.8e-6, 1.0, 0.625, true, "mc"}});
  }
  EXPECT_EQ(file_digest(journal.str()), 0xf38509d988a55a59ull);

  TempPath cache("golden_cache");
  {
    shard::ResultCache c(cache.str());
    c.insert(0xaaaa, 0x1111, static_cast<std::uint32_t>(Fidelity::kAnalytic),
             {3.0e-6, 4.5e-7, 0.25, 0.75, true, ""});
    c.insert(0xaaaa, 0x2222, static_cast<std::uint32_t>(Fidelity::kMonteCarlo),
             {6.0e-6, 9.0e-7, 0.5, 0.0, false, "infeasible, by\nmargin"});
    EXPECT_NE(c.find(0xaaaa, 0x1111, static_cast<std::uint32_t>(Fidelity::kAnalytic)), nullptr);
    EXPECT_EQ(c.find(0xaaaa, 0x3333, static_cast<std::uint32_t>(Fidelity::kNodal)), nullptr);
  }  // the destructor appends the session record (1 hit, 1 miss)
  EXPECT_EQ(file_digest(cache.str()), 0xd9f02f2711875c23ull);
}

// ---- fidelity ladder --------------------------------------------------------

TEST(FidelityLadder, DigitalPointsPassThroughUnchanged) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kSram;
  p.arch = core::ArchKind::kGpu;
  p.algo = core::AlgoKind::kMlp;
  const core::Fom lo = ladder.evaluate(p, Fidelity::kAnalytic);
  const core::Fom hi = ladder.evaluate(p, Fidelity::kMonteCarlo);
  EXPECT_EQ(lo.latency, hi.latency);
  EXPECT_EQ(lo.accuracy, hi.accuracy);
}

TEST(FidelityLadder, HigherTiersOnlyDiscountInMemoryAccuracy) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kRram;
  p.arch = core::ArchKind::kCrossbarAccelerator;
  p.algo = core::AlgoKind::kCnn;
  const core::Fom analytic = ladder.evaluate(p, Fidelity::kAnalytic);
  const core::Fom nodal = ladder.evaluate(p, Fidelity::kNodal);
  const core::Fom mc = ladder.evaluate(p, Fidelity::kMonteCarlo);
  ASSERT_TRUE(analytic.feasible);
  EXPECT_LE(nodal.accuracy, analytic.accuracy);
  EXPECT_LE(mc.accuracy, nodal.accuracy);
  EXPECT_EQ(nodal.latency, analytic.latency);  // crossbar rung touches accuracy only
}

TEST(FidelityLadder, DeterministicAcrossInstances) {
  FidelityConfig config;
  config.max_fidelity = Fidelity::kMonteCarlo;
  const FidelityLadder a(config, core::profile_for("isolet-like"));
  const FidelityLadder b(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kFeFet;
  p.arch = core::ArchKind::kCamAccelerator;
  p.algo = core::AlgoKind::kHdc;
  const core::Fom fa = a.evaluate(p, Fidelity::kMonteCarlo);
  const core::Fom fb = b.evaluate(p, Fidelity::kMonteCarlo);
  EXPECT_EQ(fa.accuracy, fb.accuracy);
  EXPECT_EQ(fa.latency, fb.latency);
  EXPECT_EQ(fa.note, fb.note);
}

TEST(FidelityLadder, ConcurrentNodalEvaluationsFactorTheTileOnce) {
  // The nodal rung's per-device memo publishes its entry before solving, so
  // lanes that ask for the same device at once wait for one factorization
  // instead of each factoring the same tile.
  FidelityConfig config;
  config.max_fidelity = Fidelity::kNodal;
  const FidelityLadder ladder(config, core::profile_for("isolet-like"));
  core::DesignPoint p;
  p.device = device::DeviceKind::kRram;
  p.arch = core::ArchKind::kCrossbarAccelerator;
  p.algo = core::AlgoKind::kCnn;

  clear_fidelity_caches();
  set_parallel_threads(8);
  const core::Profiler::NodalCounts before = core::Profiler::nodal();
  std::vector<core::Fom> foms(8);
  parallel_for(8, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) foms[i] = ladder.evaluate(p, Fidelity::kNodal);
  });
  const core::Profiler::NodalCounts after = core::Profiler::nodal();
  set_parallel_threads(0);

  EXPECT_EQ(after.factorizations - before.factorizations, 1u);
  EXPECT_EQ(after.direct_solves - before.direct_solves, 1u);
  for (const core::Fom& f : foms) {
    EXPECT_EQ(f.accuracy, foms[0].accuracy);
    EXPECT_EQ(f.note, foms[0].note);
  }
}

TEST(FidelityLadder, RejectsTiersAboveMax) {
  const FidelityLadder ladder({}, core::profile_for("isolet-like"));  // max = analytic
  EXPECT_THROW(ladder.evaluate(core::DesignPoint{}, Fidelity::kNodal),
               PreconditionError);
}

// ---- acceptance: budgeted search recovers the brute-force front -------------

TEST(Acceptance, Nsga2At20PercentBudgetRecoversFront) {
  const ExplorationResult brute = brute_force("isolet-like");
  const std::set<std::string> want = front_keys(brute);
  ASSERT_GE(want.size(), 3u);

  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = SearchSpace().size() / 5;  // 20% of the 168-point grid
  config.seed = 1;
  const ExplorationResult got = explore(config);
  EXPECT_LE(got.stats.charges, config.budget);

  const std::set<std::string> found = front_keys(got);
  std::size_t recovered = 0;
  for (const std::string& k : want) recovered += found.count(k);
  // >= 90% of the brute-force Pareto front at <= 20% of its evaluator calls.
  EXPECT_GE(10 * recovered, 9 * want.size())
      << "recovered " << recovered << "/" << want.size() << " front points";
}

// Successive halving's contract is different from NSGA-II's: it buys
// fidelity-ladder triage (cheap rungs screen cohorts for the expensive ones;
// see Engine.HalvingClimbsEveryRung), not Pareto closure.  On a single-rung
// ladder it reduces to a stratified cohort, so the bar here is budget
// discipline plus majority front recovery — the >=90%-at-20%-budget
// criterion is carried by the NSGA-II test above.
TEST(Acceptance, HalvingAt20PercentBudgetKeepsMajorityFront) {
  const ExplorationResult brute = brute_force("isolet-like");
  const std::set<std::string> want = front_keys(brute);

  EngineConfig config;
  config.strategy = "halving";
  config.budget = SearchSpace().size() / 5;
  config.seed = 1;
  const ExplorationResult got = explore(config);
  EXPECT_LE(got.stats.charges, config.budget);

  const std::set<std::string> found = front_keys(got);
  std::size_t recovered = 0;
  for (const std::string& k : want) recovered += found.count(k);
  EXPECT_GE(2 * recovered, want.size())
      << "recovered " << recovered << "/" << want.size() << " front points";
}

// ---- acceptance: crash + resume is bit-identical ----------------------------

TEST(Acceptance, ResumeAfterCrashIsBitIdentical) {
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 33;
  config.seed = 5;

  // Reference: uninterrupted run, no journal.
  const ExplorationResult reference = explore(config);
  ASSERT_GT(reference.stats.computed, 12u);

  // Crash after 12 durable appends, then resume from the journal.
  TempPath journal("resume");
  config.journal_path = journal.str();
  config.abort_after_computed = 12;
  EXPECT_THROW(explore(config), AbortInjected);

  config.abort_after_computed = 0;
  const ExplorationResult resumed = explore(config);
  EXPECT_TRUE(resumed.stats.resumed);
  EXPECT_EQ(resumed.stats.journal_replayed, 12u);
  EXPECT_EQ(resumed.stats.journal_hits, 12u);
  EXPECT_EQ(resumed.stats.computed, reference.stats.computed - 12u);

  EXPECT_TRUE(same_foms(reference, resumed));
  EXPECT_EQ(reference.front, resumed.front);
  EXPECT_EQ(reference.ranking, resumed.ranking);
  EXPECT_EQ(front_keys(reference), front_keys(resumed));

  // The serialised result documents (without stats) match byte for byte.
  EXPECT_EQ(result_to_json(reference, false).dump(2),
            result_to_json(resumed, false).dump(2));
}

TEST(Acceptance, ResumeSurvivesTornJournalTail) {
  EngineConfig config;
  config.strategy = "lhs";
  config.budget = 20;
  config.seed = 2;
  const ExplorationResult reference = explore(config);

  TempPath journal("torn_resume");
  config.journal_path = journal.str();
  config.abort_after_computed = 10;
  EXPECT_THROW(explore(config), AbortInjected);
  // Tear the journal's last record, as a crash mid-append would.
  fs::resize_file(journal.str(), fs::file_size(journal.str()) - 7);

  config.abort_after_computed = 0;
  const ExplorationResult resumed = explore(config);
  EXPECT_EQ(resumed.stats.journal_replayed, 9u);  // last record lost to the tear
  EXPECT_TRUE(same_foms(reference, resumed));
  EXPECT_EQ(reference.front, resumed.front);
}

// ---- determinism across thread counts ---------------------------------------

TEST(Engine, ThreadCountDoesNotChangeResults) {
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 30;
  config.seed = 11;

  set_parallel_threads(1);
  const ExplorationResult serial = explore(config);
  set_parallel_threads(7);
  const ExplorationResult wide = explore(config);
  set_parallel_threads(0);  // restore default

  EXPECT_TRUE(same_foms(serial, wide));
  EXPECT_EQ(serial.front, wide.front);
  EXPECT_EQ(serial.ranking, wide.ranking);
}

TEST(Engine, LaneCountDoesNotChangeResultsOrJournalBytes) {
  // The same MC-fidelity job spec on the 1-lane inline path and on an 8-lane
  // pool: the results — and every journal byte — must be identical, because
  // placement decides only *where* a chunk runs and the journal appends in
  // charge order either way.
  const auto read_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  };
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 7;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;

  TempPath j_serial("lanes_1"), j_wide("lanes_8");
  set_parallel_threads(1);
  config.journal_path = j_serial.str();
  const ExplorationResult r_serial = explore(config);
  set_parallel_threads(8);
  config.journal_path = j_wide.str();
  const ExplorationResult r_wide = explore(config);
  set_parallel_threads(0);  // restore default

  EXPECT_TRUE(same_foms(r_serial, r_wide));
  EXPECT_EQ(r_serial.front, r_wide.front);
  EXPECT_EQ(r_serial.ranking, r_wide.ranking);
  const std::string bytes_serial = read_bytes(j_serial.str());
  ASSERT_FALSE(bytes_serial.empty());
  EXPECT_EQ(bytes_serial, read_bytes(j_wide.str()));
}

// ---- engine semantics -------------------------------------------------------

TEST(Engine, BudgetZeroMeansViableSpaceAndSaturates) {
  for (const char* strategy : {"random", "lhs"}) {
    EngineConfig config;
    config.strategy = strategy;
    config.budget = 0;
    const ExplorationResult r = explore(config);
    EXPECT_EQ(r.stats.charges, SearchSpace().viable_count()) << strategy;
    EXPECT_EQ(r.evaluated.size(), SearchSpace().viable_count()) << strategy;
    EXPECT_EQ(r.stats.culled_requests, 0u) << strategy;  // drivers never pay for culls
  }
}

TEST(Engine, EvaluatedPointsAreDistinct) {
  EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 40;
  const ExplorationResult r = explore(config);
  const std::vector<std::size_t> dedup = core::dedup_points(r.evaluated);
  EXPECT_EQ(dedup.size(), r.evaluated.size());  // engine dedups by construction
}

TEST(Engine, HalvingClimbsEveryRung) {
  EngineConfig config;
  config.strategy = "halving";
  config.budget = 60;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;
  const ExplorationResult r = explore(config);
  // Surrogate off: tier 0 stays untouched, every physics rung gets charges.
  EXPECT_EQ(r.stats.charges_by_tier[0], 0u);
  EXPECT_GT(r.stats.charges_by_tier[1], 0u);
  EXPECT_GT(r.stats.charges_by_tier[2], 0u);
  EXPECT_GT(r.stats.charges_by_tier[3], 0u);
  // Wider cohorts at cheaper rungs.
  EXPECT_GE(r.stats.charges_by_tier[1], r.stats.charges_by_tier[2]);
  EXPECT_GE(r.stats.charges_by_tier[2], r.stats.charges_by_tier[3]);
}

TEST(Engine, RestrictedAxesStayInsideTheSubspace) {
  EngineConfig config;
  config.strategy = "random";
  config.budget = 10;
  config.axes.devices = {device::DeviceKind::kRram, device::DeviceKind::kFeFet};
  config.axes.algos = {core::AlgoKind::kHdc};
  const ExplorationResult r = explore(config);
  EXPECT_GT(r.evaluated.size(), 0u);
  for (const core::ScoredPoint& sp : r.evaluated) {
    EXPECT_TRUE(sp.point.device == device::DeviceKind::kRram ||
                sp.point.device == device::DeviceKind::kFeFet);
    EXPECT_EQ(sp.point.algo, core::AlgoKind::kHdc);
  }
}

// ---- job specs --------------------------------------------------------------

TEST(JobSpec, ParsesFullDocument) {
  const EngineConfig config = config_from_spec_text(R"({
    "application": "isolet-like",
    "strategy": "halving",
    "budget": 33,
    "seed": 7,
    "space": {"devices": ["RRAM", "FeFET"], "algos": ["HDC", "MANN"]},
    "fidelity": {"max": "mc", "mc_fault_rate": 0.05},
    "driver": {"population": 12, "eta": 2.0},
    "weights": {"accuracy": 10.0},
    "journal": "runs/a.xjl"
  })");
  EXPECT_EQ(config.strategy, "halving");
  EXPECT_EQ(config.budget, 33u);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_EQ(config.axes.devices.size(), 2u);
  EXPECT_TRUE(config.axes.archs.empty());  // absent axis = every value
  EXPECT_EQ(config.fidelity.max_fidelity, Fidelity::kMonteCarlo);
  EXPECT_EQ(config.fidelity.mc_fault_rate, 0.05);
  EXPECT_EQ(config.driver.population, 12u);
  EXPECT_EQ(config.driver.halving_eta, 2.0);
  EXPECT_EQ(config.weights.accuracy, 10.0);
  EXPECT_EQ(config.journal_path, "runs/a.xjl");
}

TEST(JobSpec, RejectsTyposAndBadNames) {
  EXPECT_THROW(config_from_spec_text(R"({"bugdet": 10})"), PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"space": {"devices": ["ReRAM"]}})"),
               PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"fidelity": {"max": "spice"}})"),
               PreconditionError);
  EXPECT_THROW(config_from_spec_text(R"({"budget": -3})"), PreconditionError);
}

TEST(JobSpec, IntegerKeysRejectValuesNoIntegerHolds) {
  // Each is refused before any float-to-integer conversion: 1e300 and 2^64
  // lie past the 64-bit range, -1 below it, 0.5 between two integers.
  const std::vector<std::string> bad = {"1e300", "18446744073709551616", "-1", "0.5"};
  for (const std::string& v : bad) {
    for (const std::string& spec :
         {R"({"budget": )" + v + "}", R"({"seed": )" + v + "}", R"({"shards": )" + v + "}",
          R"({"fidelity": {"mc_seed": )" + v + "}}"}) {
      EXPECT_THROW(config_from_spec_text(spec), PreconditionError) << spec;
    }
  }
  // The largest double below 2^64 still converts exactly.
  const EngineConfig top = config_from_spec_text(R"({"seed": 18446744073709549568})");
  EXPECT_EQ(top.seed, 18446744073709549568ull);
}

TEST(JobSpec, ResultSerialisationRoundTrips) {
  EngineConfig config;
  config.strategy = "lhs";
  config.budget = 15;
  const ExplorationResult r = explore(config);

  const util::Json doc = util::Json::parse(result_to_json(r).dump(2));
  EXPECT_EQ(doc.at("strategy").as_string(), "lhs");
  EXPECT_EQ(doc.at("pareto_front").size(), r.front.size());
  EXPECT_EQ(doc.at("triage_ranking").size(), r.ranking.size());
  EXPECT_EQ(static_cast<std::size_t>(doc.at("stats").at("charges").as_number()),
            r.stats.charges);

  const std::string csv = result_to_csv(r);
  EXPECT_EQ(static_cast<std::size_t>(std::count(csv.begin(), csv.end(), '\n')),
            r.evaluated.size() + 1);  // header + one row per point
}

TEST(JobSpec, UnknownStrategyRejected) {
  EngineConfig config;
  config.strategy = "simulated-annealing";
  EXPECT_THROW(explore(config), PreconditionError);
}

}  // namespace
}  // namespace xlds::dse
