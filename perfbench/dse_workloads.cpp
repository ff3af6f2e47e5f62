// The two DSE workloads.
//
// dse_cold: back-to-back cold xlds-dse jobs (NSGA-II, budget 60, full grid,
// max fidelity mc, journal on, one process, no result cache).  Every job
// starts with all three process-wide memo layers dropped, so the MC
// resilience probe and the nodal tier pay their full cost each time.
//
// dse_shard_cache: rounds of four overlapping jobs (sliding three-device
// windows over a random device order) on shards = min(4, nproc), all jobs of
// a round sharing one ResultCache file that starts empty.  Each job after a
// round's first finds two thirds of its devices already cached, so about
// half of all (point, tier) requests hit and the rest compute and append.
//
// Both draw every job from a finite catalogue whose --no-stats result JSON
// and journal bytes are pinned in pins.json (the digests are shard- and
// cache-invariant by the engine's contract, so one pin serves both).
#include <algorithm>
#include <array>
#include <filesystem>
#include <optional>
#include <set>

#include "bench.hpp"
#include "core/evaluate.hpp"
#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "dse/journal.hpp"
#include "dse/space.hpp"
#include "evacam/evacam.hpp"
#include "fault/resilience.hpp"
#include "kernels/sampler.hpp"
#include "shard/result_cache.hpp"
#include "shard/shard_pool.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace perfbench {

namespace {

namespace dse = xlds::dse;
namespace core = xlds::core;

// The CI dse-smoke job spec, byte for byte (.github/workflows/ci.yml).
constexpr const char* kDseSmokeSpec =
    R"({"strategy": "nsga2", "budget": 60, "seed": 7, "fidelity": {"max": "mc"}})";

const std::vector<std::string> kApps = {"isolet-like", "ucihar-like",   "mnist-like",
                                        "face-like",   "language-like", "omniglot-like"};
constexpr std::uint64_t kColdSearchSeeds[] = {7, 11, 23, 42};
constexpr std::uint64_t kColdMcSeeds[] = {99, 7, 1234};

const std::vector<std::string> kShardApps = {"isolet-like", "mnist-like", "language-like"};
struct FidelityVariant {
  const char* tag;
  const char* json;
};
constexpr FidelityVariant kShardFidelity[] = {
    {"mc99", R"({"max": "mc"})"},
    {"mc7-r05", R"({"max": "mc", "mc_seed": 7, "mc_fault_rate": 0.05})"},
};
constexpr std::size_t kRoundJobs = 4;
constexpr std::size_t kWindow = 3;
constexpr std::uint64_t kShardSearchSeed = 5;

// Operation counts of a traced run: fixed by the workload, never by the
// clock, so the counts two traced runs of one seed report are comparable.
constexpr std::size_t kTracedColdJobs = 16;
constexpr std::size_t kTracedShardRounds = 2;
constexpr std::size_t kSetupRepeats = 5;

struct JobSpec {
  std::string id;    ///< pin key
  std::string spec;  ///< job-spec JSON text (src/dse/jobspec.hpp)
};

JobSpec cold_job(const std::string& app, std::uint64_t seed, std::uint64_t mc_seed) {
  JobSpec j;
  j.id = "cold/" + app + "/seed" + std::to_string(seed) + "/mc" + std::to_string(mc_seed);
  j.spec = R"({"application": ")" + app + R"(", "strategy": "nsga2", "budget": 60, "seed": )" +
           std::to_string(seed) + R"(, "fidelity": {"max": "mc", "mc_seed": )" +
           std::to_string(mc_seed) + "}}";
  return j;
}

JobSpec smoke_job() { return JobSpec{"dse-smoke", kDseSmokeSpec}; }

/// Devices in canonical order (device::all_device_kinds) for a bit mask.
std::vector<std::string> device_names(unsigned mask) {
  std::vector<std::string> names;
  const auto& all = xlds::device::all_device_kinds();
  for (std::size_t d = 0; d < all.size(); ++d)
    if (mask & (1u << d)) names.push_back(xlds::device::to_string(all[d]));
  return names;
}

JobSpec shard_job(const std::string& app, const FidelityVariant& fid, unsigned device_mask) {
  const std::vector<std::string> devices = device_names(device_mask);
  std::string id = "shard/" + app + "/" + fid.tag + "/";
  std::string list;
  for (std::size_t i = 0; i < devices.size(); ++i) {
    id += (i ? "+" : "") + devices[i];
    list += std::string(i ? ", " : "") + "\"" + devices[i] + "\"";
  }
  JobSpec j;
  j.id = id;
  j.spec = R"({"application": ")" + app + R"(", "strategy": "nsga2", "budget": 60, "seed": )" +
           std::to_string(kShardSearchSeed) + R"(, "space": {"devices": [)" + list +
           R"(]}, "fidelity": )" + fid.json + "}";
  return j;
}

/// dse_cold's job stream: the CI smoke spec first, then (application,
/// search seed, mc seed) drawn from the workload seed.
class ColdSequence {
 public:
  explicit ColdSequence(std::uint64_t seed) : rng_(seed, 0xC01D) {}
  JobSpec next() {
    if (n_++ == 0) return smoke_job();
    const std::string& app = kApps[rng_.uniform_u32(static_cast<std::uint32_t>(kApps.size()))];
    const std::uint64_t s = kColdSearchSeeds[rng_.uniform_u32(std::size(kColdSearchSeeds))];
    const std::uint64_t m = kColdMcSeeds[rng_.uniform_u32(std::size(kColdMcSeeds))];
    return cold_job(app, s, m);
  }

 private:
  xlds::Rng rng_;
  std::size_t n_ = 0;
};

/// dse_shard_cache's job stream, one round of kRoundJobs at a time.
class ShardRounds {
 public:
  explicit ShardRounds(std::uint64_t seed) : rng_(seed, 0x5A4D) {}
  std::vector<JobSpec> next_round() {
    const std::string& app =
        kShardApps[rng_.uniform_u32(static_cast<std::uint32_t>(kShardApps.size()))];
    const FidelityVariant& fid = kShardFidelity[rng_.uniform_u32(std::size(kShardFidelity))];
    const std::size_t n_dev = xlds::device::all_device_kinds().size();
    std::vector<std::size_t> order(n_dev);
    for (std::size_t i = 0; i < n_dev; ++i) order[i] = i;
    for (std::size_t i = n_dev - 1; i > 0; --i)
      std::swap(order[i], order[rng_.uniform_u32(static_cast<std::uint32_t>(i + 1))]);
    std::vector<JobSpec> round;
    for (std::size_t j = 0; j < kRoundJobs; ++j) {
      unsigned mask = 0;
      for (std::size_t i = 0; i < kWindow; ++i) mask |= 1u << order[(j + i) % n_dev];
      round.push_back(shard_job(app, fid, mask));
    }
    return round;
  }

 private:
  xlds::Rng rng_;
};

void clear_all_memo_layers() {
  dse::clear_fidelity_caches();
  core::clear_evaluation_caches();
  xlds::fault::clear_resilience_caches();
}

std::string no_stats_json(const dse::ExplorationResult& r) {
  return dse::result_to_json(r, /*include_stats=*/false).dump(2) + "\n";
}

struct JobRun {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  dse::EngineConfig config;
  dse::ExplorationResult result;
};

/// One closed-loop operation: a fresh journal, one explore() call, the
/// digest checks.  A throw or a digest mismatch fails the operation.
JobRun run_job(const JobSpec& job, std::size_t shards, const std::string& cache_path,
               const std::string& journal_path, const Pins& pins) {
  JobRun run;
  try {
    run.config = dse::config_from_spec_text(job.spec);
    run.config.journal_path = journal_path;
    run.config.shards = shards;
    run.config.cache_path = cache_path;
    std::filesystem::remove(journal_path);
    const Clock::time_point t0 = Clock::now();
    run.result = dse::explore(run.config);
    run.wall_s = seconds_between(t0, Clock::now());
    const auto pin = pins.jobs.find(job.id);
    if (pin == pins.jobs.end()) {
      run.error = job.id + ": no pinned digest";
      return run;
    }
    const std::string result_digest = digest_hex(no_stats_json(run.result));
    const std::string journal_digest = digest_hex(read_file_bytes(journal_path));
    if (result_digest != pin->second.result || journal_digest != pin->second.journal) {
      run.error = job.id + ": digest mismatch (result " + result_digest + ", journal " +
                  journal_digest + ")";
      return run;
    }
    run.ok = true;
  } catch (const std::exception& e) {
    run.error = job.id + ": " + e.what();
  }
  return run;
}

/// A dse_cold operation.  Cold means cold: all three memo layers are
/// dropped first, so a job that still records a resilience-context hit
/// reused a trained context and fails.
JobRun run_cold_job(const JobSpec& job, const std::string& journal_path, const Pins& pins) {
  clear_all_memo_layers();
  JobRun run = run_job(job, 1, "", journal_path, pins);
  if (run.ok && xlds::fault::resilience_cache_stats().hits != 0) {
    run.ok = false;
    run.error = job.id + ": cold job reused a trained resilience context";
  }
  return run;
}

void record(WorkloadResult& out, const JobRun& run) {
  ++out.attempted;
  if (!run.ok) {
    ++out.failed;
    out.failures.push_back(run.error);
  }
}

bool uses_crossbar(core::ArchKind a) {
  return a == core::ArchKind::kCrossbarAccelerator || a == core::ArchKind::kCamXbarHybrid;
}
bool uses_cam(core::ArchKind a) {
  return a == core::ArchKind::kCamAccelerator || a == core::ArchKind::kCamXbarHybrid;
}

// ---------------------------------------------------------------------------
// Traced-run bookkeeping.

/// Per-layer counts summed over the real calls of a traced pass.
struct DseCounts {
  double charges = 0, computed = 0, journal_appends = 0;
  std::array<double, dse::kFidelityTiers> tier_busy{};
  double ctx_lookups = 0, ctx_hits = 0;
  ProfilerCounts profiler;
  double shard_requests = 0, shard_redispatches = 0, shard_respawns = 0;
  double cache_hits = 0, cache_appends = 0;
  // Replay-side call counts.
  double evaluate_calls = 0, variation_calls = 0, probe_runs = 0;
  double cache_file_bytes = 0;
};

void add_stats(DseCounts& c, const dse::ExplorationStats& s, std::size_t journal_records) {
  c.charges += static_cast<double>(s.charges);
  c.computed += static_cast<double>(s.computed);
  c.journal_appends += static_cast<double>(journal_records);
  for (std::size_t t = 0; t < dse::kFidelityTiers; ++t) c.tier_busy[t] += s.scheduler.tier_busy_s[t];
  // The engine already reports this run's deltas (worker work included).
  c.profiler.add_delta(ProfilerCounts{}, ProfilerCounts{s.nodal, s.scheduler.counts});
  c.shard_requests += static_cast<double>(s.shard_requests);
  c.shard_redispatches += static_cast<double>(s.shard_redispatches);
  c.shard_respawns += static_cast<double>(s.shard_respawns);
  c.cache_hits += static_cast<double>(s.cache_hits);
  c.cache_appends += static_cast<double>(s.cache_appends);
}

/// Replay one charged nodal-tier crossbar check (the 64x64 half-loaded tile
/// dse::FidelityLadder solves once per device) through xbar::Crossbar:
/// build and program both tiles, factorize the nodal one through an empty
/// batch readout, then read both out once.
void replay_nodal_tile(xlds::device::DeviceKind dev, Trace& trace) {
  std::optional<xlds::xbar::Crossbar> analytic, nodal;
  std::vector<double> ones;
  {
    auto s = trace.span("xbar.other_s");
    xlds::xbar::CrossbarConfig cfg;
    cfg.rows = 64;
    cfg.cols = 64;
    cfg.apply_variation = false;
    cfg.read_noise_rel = 0.0;
    cfg.nodal_max_iters = 20000;
    xlds::Rng fill(0x9e3779b97f4a7c15ull ^ static_cast<std::uint64_t>(dev));
    xlds::MatrixD g(cfg.rows, cfg.cols, cfg.rram.g_min);
    std::vector<std::uint8_t> on(g.size());
    xlds::kernels::fill_bernoulli(fill, on.data(), on.size(), 0.5);
    for (std::size_t i = 0; i < on.size(); ++i)
      if (on[i]) g.data()[i] = cfg.rram.g_max;
    xlds::Rng rng_a(1), rng_n(1);
    cfg.ir_drop = xlds::xbar::IrDropMode::kAnalytic;
    analytic.emplace(cfg, rng_a);
    cfg.ir_drop = xlds::xbar::IrDropMode::kNodal;
    nodal.emplace(cfg, rng_n);
    analytic->program_conductances(g);
    nodal->program_conductances(g);
    ones.assign(cfg.rows, 1.0);
    (void)analytic->column_currents(ones);
  }
  {
    auto s = trace.span("xbar.factorize_s");
    (void)nodal->readout_batch(xlds::MatrixD(0, nodal->rows()));
  }
  {
    auto s = trace.span("xbar.solve_s");
    (void)nodal->column_currents(ones);
  }
}

/// Replay an in-process job's journal records through the layer entry
/// points, one (point, tier) pair at a time, with the ladder's memo rules
/// (one nodal tile per device, one probe per (rate, age, seed)).  Returns
/// an error line when the replay's feasibility disagrees with the journal.
std::string replay_in_process(const JobRun& run, const std::vector<dse::Journal::Record>& records,
                              const std::string& replay_journal, DseCounts& counts, Trace& trace) {
  const dse::EngineConfig& cfg = run.config;
  const dse::SearchSpace space(cfg.axes, cfg.application);
  const core::AppProfile profile = core::profile_for(cfg.application);
  const dse::FidelityLadder ladder(cfg.fidelity, profile);
  std::filesystem::remove(replay_journal);
  dse::Journal journal(replay_journal, dse::job_hash(space, ladder));
  const core::Evaluator evaluator;
  std::set<int> tiles_done;
  bool probed = false;
  for (const dse::Journal::Record& rec : records) {
    const core::DesignPoint p = space.at(rec.key);
    const auto tier = static_cast<dse::Fidelity>(rec.fidelity);
    core::Fom fom;
    {
      auto s = trace.span("core.evaluate_s");
      fom = evaluator.evaluate(p, profile);
    }
    ++counts.evaluate_calls;
    const bool in_memory = uses_crossbar(p.arch) || uses_cam(p.arch);
    if (tier >= dse::Fidelity::kNodal && fom.feasible && in_memory) {
      if (uses_crossbar(p.arch) && tiles_done.insert(static_cast<int>(p.device)).second)
        replay_nodal_tile(p.device, trace);
      if (uses_cam(p.arch)) {
        xlds::evacam::CamFom var;
        {
          auto s = trace.span("evacam.variation_s");
          var = xlds::evacam::evaluate_with_variation(core::cam_spec_for_point(p, profile),
                                                      cfg.fidelity.variation_sigma_rel);
        }
        ++counts.variation_calls;
        if (var.max_ml_columns_with_variation < 16) fom.feasible = false;
      }
    }
    if (tier >= dse::Fidelity::kMonteCarlo && fom.feasible && in_memory && !probed &&
        (p.algo == core::AlgoKind::kHdc || p.algo == core::AlgoKind::kMann)) {
      probed = true;
      auto s = trace.span("fault.probe_s");
      const xlds::fault::ResilienceEvaluator probe(xlds::fault::dse_probe_config(
          cfg.fidelity.mc_fault_rate, cfg.fidelity.mc_age_s, cfg.fidelity.mc_seed));
      (void)probe.run();
      ++counts.probe_runs;
    }
    {
      auto s = trace.span("dse.journal_s");
      journal.append(rec);
    }
    if (fom.feasible != rec.fom.feasible)
      return "replay of " + p.to_string() + " disagrees with the journal on feasibility";
  }
  return {};
}

bool same_fom(const core::Fom& a, const core::Fom& b) {
  return a.feasible == b.feasible && a.latency == b.latency && a.energy == b.energy &&
         a.area_mm2 == b.area_mm2 && a.accuracy == b.accuracy && a.note == b.note;
}

/// Replay a sharded, cached job: a fresh ShardPool, then the engine's
/// cache -> pool -> journal/cache-append order over runs of same-tier
/// journal records, against a copy of the cache as the real call found it.
std::string replay_sharded(const JobRun& run, const std::vector<dse::Journal::Record>& records,
                           const std::string& replay_cache, const std::string& replay_journal,
                           Trace& trace) {
  const dse::EngineConfig& cfg = run.config;
  const dse::SearchSpace space(cfg.axes, cfg.application);
  const dse::FidelityLadder ladder(cfg.fidelity, core::profile_for(cfg.application));
  const std::uint64_t job_hash = dse::job_hash(space, ladder);
  // The engine's cache identity: ladder + profile, not the axis restriction.
  const std::uint64_t cache_space = ladder.hash(xlds::util::fnv1a64("xlds-cache-v1", 13));
  std::filesystem::remove(replay_journal);
  dse::Journal journal(replay_journal, job_hash);

  std::optional<xlds::shard::ShardPool> pool;
  {
    auto s = trace.span("shard.spawn_s");
    xlds::shard::ShardConfig sc;
    sc.shards = cfg.shards;
    sc.job_hash = job_hash;
    sc.job_json = dse::shard_job_spec_text(cfg);
    sc.application = cfg.application;
    sc.evaluator = [&ladder](const core::DesignPoint& p, std::uint32_t tier) {
      return ladder.evaluate(p, static_cast<dse::Fidelity>(tier));
    };
    pool.emplace(std::move(sc));
  }
  std::optional<xlds::shard::ResultCache> cache;
  {
    auto s = trace.span("cache.find_s");
    cache.emplace(replay_cache);
  }
  std::size_t hits = 0;
  std::string error;
  for (std::size_t begin = 0; begin < records.size();) {
    std::size_t end = begin;
    while (end < records.size() && records[end].fidelity == records[begin].fidelity) ++end;
    const std::uint32_t tier = records[begin].fidelity;
    std::vector<char> hit(end - begin, 0);
    std::vector<xlds::shard::BatchItem> items;
    std::vector<std::size_t> item_of;
    for (std::size_t i = begin; i < end; ++i) {
      const core::DesignPoint p = space.at(records[i].key);
      bool found = false;
      {
        auto s = trace.span("cache.find_s");
        found = cache->find(cache_space, xlds::shard::cache_point_hash(p), tier) != nullptr;
      }
      if (found) {
        hit[i - begin] = 1;
        ++hits;
      } else {
        items.push_back({records[i].key, p});
        item_of.push_back(i);
      }
    }
    if (!items.empty()) {
      xlds::shard::BatchResult batch;
      {
        auto s = trace.span("shard.batch_s");
        batch = pool->evaluate(items, tier);
      }
      for (std::size_t k = 0; k < items.size(); ++k)
        if (error.empty() && !same_fom(batch.foms[k], records[item_of[k]].fom))
          error = "sharded replay of " + items[k].point.to_string() + " disagrees with the journal";
    }
    for (std::size_t i = begin; i < end; ++i) {
      {
        auto s = trace.span("dse.journal_s");
        journal.append(records[i]);
      }
      if (!hit[i - begin]) {
        auto s = trace.span("cache.insert_s");
        cache->insert(cache_space, xlds::shard::cache_point_hash(space.at(records[i].key)), tier,
                      records[i].fom);
      }
    }
    begin = end;
  }
  {
    auto s = trace.span("shard.spawn_s");
    pool.reset();
  }
  {
    auto s = trace.span("cache.insert_s");
    cache.reset();  // writes the session record
  }
  if (error.empty() && hits != run.result.stats.cache_hits)
    error = "sharded replay hit the cache " + std::to_string(hits) + " times, the job " +
            std::to_string(run.result.stats.cache_hits);
  return error;
}

/// One traced operation: the real call, the engine alone against the job's
/// finished journal (every pair a journal hit: the engine's own work with
/// no physics), and the replay through the layer entry points.
void traced_job(const JobSpec& job, const Options& opt, std::size_t shards,
                const std::string& cache_path, const Pins& pins, DseCounts& counts,
                WorkloadResult& out, Trace& trace) {
  const std::string journal_path = opt.work_dir + "/job.xjl";
  const std::string replay_cache = opt.work_dir + "/replay.xrc";
  const std::string replay_journal = opt.work_dir + "/replay.xjl";
  const bool cold = cache_path.empty();
  if (!cold) {
    std::filesystem::remove(replay_cache);
    if (std::filesystem::exists(cache_path)) std::filesystem::copy_file(cache_path, replay_cache);
  }
  const double children_cpu0 = children_cpu_seconds();
  const double invol0 = invol_ctx_switches();
  JobRun run;
  {
    auto s = trace.span("trace.calls_s");
    run = cold ? run_cold_job(job, journal_path, pins)
               : run_job(job, shards, cache_path, journal_path, pins);
  }
  out.op_s.push_back(run.wall_s);
  out.layer["proc.invol_ctx_switches"] += invol_ctx_switches() - invol0;
  out.layer["shard.children_cpu_s"] += children_cpu_seconds() - children_cpu0;
  if (cold) {
    // The cold clear reset the context counters, so they are this job's.
    // Sharded jobs build their contexts in the workers, out of sight.
    const xlds::fault::ResilienceCacheStats ctx = xlds::fault::resilience_cache_stats();
    counts.ctx_lookups += static_cast<double>(ctx.lookups);
    counts.ctx_hits += static_cast<double>(ctx.hits);
  } else {
    counts.cache_file_bytes = std::max(counts.cache_file_bytes,
                                       static_cast<double>(std::filesystem::file_size(cache_path)));
  }
  if (run.ok) {
    const std::vector<dse::Journal::Record> records =
        dse::Journal::inspect(journal_path).records;
    add_stats(counts, run.result.stats, records.size());
    {
      auto s = trace.span("dse.self_s");
      dse::EngineConfig resume = run.config;
      resume.shards = 1;
      resume.cache_path.clear();
      const dse::ExplorationResult again = dse::explore(resume);
      if (no_stats_json(again) != no_stats_json(run.result)) {
        run.ok = false;
        run.error = job.id + ": journal resume changed the result";
      }
    }
    if (run.ok) {
      auto s = trace.span("bench.self_s");
      if (cold) clear_all_memo_layers();
      const std::string err =
          cold ? replay_in_process(run, records, replay_journal, counts, trace)
               : replay_sharded(run, records, replay_cache, replay_journal, trace);
      if (!err.empty()) {
        run.ok = false;
        run.error = job.id + ": " + err;
      }
    }
  }
  record(out, run);
}

void fill_dse_layer_metrics(const DseCounts& c, WorkloadResult& out) {
  auto& m = out.layer;
  m["dse.charges"] = c.charges;
  m["dse.computed"] = c.computed;
  m["dse.journal_appends"] = c.journal_appends;
  m["dse.tier_busy_s.analytic"] = c.tier_busy[1];
  m["dse.tier_busy_s.nodal"] = c.tier_busy[2];
  m["dse.tier_busy_s.mc"] = c.tier_busy[3];
  m["core.evaluate_calls"] = c.evaluate_calls;
  m["evacam.variation_calls"] = c.variation_calls;
  m["fault.probe_runs"] = c.probe_runs;
  m["fault.context_builds"] = c.ctx_lookups - c.ctx_hits;
  m["fault.context_hit_ratio"] = ratio(c.ctx_hits, c.ctx_lookups);
  c.profiler.put_metrics(m);
  m["shard.requests"] = c.shard_requests;
  m["shard.redispatches"] = c.shard_redispatches;
  m["shard.duplicate_ratio"] = ratio(c.shard_redispatches, c.shard_requests);
  m["shard.respawns"] = c.shard_respawns;
  m["cache.hits"] = c.cache_hits;
  m["cache.appends"] = c.cache_appends;
  m["cache.hit_ratio"] = ratio(c.cache_hits, c.cache_hits + c.cache_appends);
  m["cache.file_bytes"] = c.cache_file_bytes;
}

/// Set-up, repeated kSetupRepeats times (the first repetition timed from
/// process start): start the pool, build the job stream and run one
/// untimed warm-up job, so lazy process-wide set-up is paid before timing.
double measure_setup(const Options& opt, const JobSpec& warm_up, std::size_t shards,
                     const std::string& cache_path, const Pins& pins, WorkloadResult& out,
                     Trace& trace) {
  std::vector<double> setups;
  for (std::size_t r = 0; r < kSetupRepeats; ++r) {
    auto s = trace.span("bench.self_s");
    const Clock::time_point t0 = r == 0 ? opt.started : Clock::now();
    (void)xlds::parallel_thread_count();
    const std::string journal = opt.work_dir + "/warmup.xjl";
    if (!cache_path.empty()) std::filesystem::remove(cache_path);
    const JobRun warm = cache_path.empty() ? run_cold_job(warm_up, journal, pins)
                                           : run_job(warm_up, shards, cache_path, journal, pins);
    if (!warm.ok) record(out, warm);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  if (!cache_path.empty()) std::filesystem::remove(cache_path);
  return median(setups);
}

void finish_timed_phase(WorkloadResult& out, Clock::time_point begin, double cpu0) {
  const double wall = seconds_between(begin, Clock::now());
  out.throughput_per_s = static_cast<double>(out.op_s.size()) / wall;
  out.cpu_s = cpu_seconds_with_children() - cpu0;
}

/// Traced-run epilogue shared by both DSE workloads.
void finish_traced(const DseCounts& counts, double baseline_s, WorkloadResult& out) {
  double calls = 0.0;
  for (const double v : out.op_s) calls += v;
  out.layer["trace.overhead_frac"] = ratio(calls - baseline_s, baseline_s);
  fill_dse_layer_metrics(counts, out);
}

}  // namespace

WorkloadResult run_dse_cold(const Options& opt, const Pins& pins, Trace& trace) {
  WorkloadResult out;
  out.machine["shards"] = "1";
  const std::string journal = opt.work_dir + "/job.xjl";
  out.setup_s = measure_setup(opt, smoke_job(), 1, "", pins, out, trace);

  if (!trace.enabled()) {
    ColdSequence seq(opt.seed);
    const double cpu0 = cpu_seconds_with_children();
    const Clock::time_point begin = Clock::now();
    while (out.op_s.empty() || seconds_between(begin, Clock::now()) < opt.seconds) {
      const JobRun run = run_cold_job(seq.next(), journal, pins);
      out.op_s.push_back(run.wall_s);
      record(out, run);
    }
    finish_timed_phase(out, begin, cpu0);
    return out;
  }

  double baseline = 0.0;
  {
    auto s = trace.span("bench.self_s");
    ColdSequence seq(opt.seed);
    for (std::size_t i = 0; i < kTracedColdJobs; ++i) {
      const JobRun run = run_cold_job(seq.next(), journal, pins);
      baseline += run.wall_s;
      record(out, run);
    }
  }
  ColdSequence seq(opt.seed);
  DseCounts counts;
  for (std::size_t i = 0; i < kTracedColdJobs; ++i)
    traced_job(seq.next(), opt, 1, "", pins, counts, out, trace);
  finish_traced(counts, baseline, out);
  return out;
}

WorkloadResult run_dse_shard_cache(const Options& opt, const Pins& pins, Trace& trace) {
  WorkloadResult out;
  const std::size_t shards = std::min<std::size_t>(4, xlds::parallel_thread_count());
  out.machine["shards"] = std::to_string(shards);
  const std::string journal = opt.work_dir + "/job.xjl";
  const std::string cache = opt.work_dir + "/results.xrc";
  out.setup_s =
      measure_setup(opt, ShardRounds(opt.seed).next_round().front(), shards, cache, pins, out, trace);

  if (!trace.enabled()) {
    ShardRounds rounds(opt.seed);
    const double cpu0 = cpu_seconds_with_children();
    const Clock::time_point begin = Clock::now();
    while (out.op_s.empty() || seconds_between(begin, Clock::now()) < opt.seconds) {
      std::filesystem::remove(cache);
      for (const JobSpec& job : rounds.next_round()) {
        if (!out.op_s.empty() && seconds_between(begin, Clock::now()) >= opt.seconds) break;
        const JobRun run = run_job(job, shards, cache, journal, pins);
        out.op_s.push_back(run.wall_s);
        record(out, run);
      }
    }
    finish_timed_phase(out, begin, cpu0);
    return out;
  }

  double baseline = 0.0;
  {
    auto s = trace.span("bench.self_s");
    ShardRounds rounds(opt.seed);
    for (std::size_t r = 0; r < kTracedShardRounds; ++r) {
      std::filesystem::remove(cache);
      for (const JobSpec& job : rounds.next_round()) {
        const JobRun run = run_job(job, shards, cache, journal, pins);
        baseline += run.wall_s;
        record(out, run);
      }
    }
  }
  ShardRounds rounds(opt.seed);
  DseCounts counts;
  for (std::size_t r = 0; r < kTracedShardRounds; ++r) {
    std::filesystem::remove(cache);
    for (const JobSpec& job : rounds.next_round())
      traced_job(job, opt, shards, cache, pins, counts, out, trace);
  }
  finish_traced(counts, baseline, out);
  return out;
}

void write_dse_pins(Pins& pins, const std::string& work_dir) {
  std::vector<JobSpec> catalogue{smoke_job()};
  for (const std::string& app : kApps)
    for (const std::uint64_t s : kColdSearchSeeds)
      for (const std::uint64_t m : kColdMcSeeds) catalogue.push_back(cold_job(app, s, m));
  const unsigned n_dev = static_cast<unsigned>(xlds::device::all_device_kinds().size());
  for (const std::string& app : kShardApps)
    for (const FidelityVariant& fid : kShardFidelity)
      for (unsigned mask = 0; mask < (1u << n_dev); ++mask)
        if (static_cast<std::size_t>(__builtin_popcount(mask)) == kWindow)
          catalogue.push_back(shard_job(app, fid, mask));
  const std::string journal = work_dir + "/pin.xjl";
  for (const JobSpec& job : catalogue) {
    clear_all_memo_layers();
    dse::EngineConfig config = dse::config_from_spec_text(job.spec);
    config.journal_path = journal;
    config.shards = 1;
    std::filesystem::remove(journal);
    const dse::ExplorationResult result = dse::explore(config);
    pins.jobs[job.id] = Pins::Job{digest_hex(no_stats_json(result)),
                                  digest_hex(read_file_bytes(journal))};
  }
}

}  // namespace perfbench
