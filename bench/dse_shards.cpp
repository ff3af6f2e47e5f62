// DSE — multi-process evaluation shards + the persistent cross-run result
// cache: warm-cache reuse and the determinism/crash-recovery pins, both on
// the real MC job.
//
//   1. Reuse: a warm --cache rerun of a real MC job must be >= 10x faster
//      than the cold run that populated it (every physics evaluation served
//      from disk, zero recompute).
//   2. Determinism: front JSON and journal bytes must be bit-identical
//      across shard counts {1, 2, 4}, across cache states (none / cold /
//      warm), and across a run whose worker is SIGKILLed mid-batch —
//      sharding and caching are speed-only by contract.
//
// The shard pool's speed on real physics is measured end to end by
// perfbench's dse_shard_cache workload.  --shard-smoke runs both checks as
// a CI gate and the JSON lands in BENCH_shards.json.
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "util/argparse.hpp"
#include "util/table.hpp"

using namespace xlds;

namespace {

namespace fs = std::filesystem;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string scratch(const std::string& stem) {
  const std::string path = (fs::temp_directory_path() / ("xlds_bench_" + stem)).string();
  fs::remove(path);
  return path;
}

std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// The MC job every engine-level phase runs: NSGA-II over the full grid at
/// the Monte-Carlo tier.  One config, many variations of *how* it is
/// evaluated — the whole point is that the outputs never notice.
dse::EngineConfig mc_job() {
  dse::EngineConfig config;
  config.strategy = "nsga2";
  config.budget = 60;
  config.seed = 7;
  config.fidelity.max_fidelity = dse::Fidelity::kMonteCarlo;
  return config;
}

/// Resume-comparable output: what `xlds-dse --no-stats` would print.
std::string front_json(const dse::ExplorationResult& r) {
  return dse::result_to_json(r, /*include_stats=*/false).dump(2);
}

/// Cold = honestly cold: both process-wide memo layers dropped, so the next
/// evaluation pays full price (and a forked worker inherits nothing warm).
void drop_memo_caches() {
  dse::clear_fidelity_caches();
  core::clear_evaluation_caches();
}

struct TimedRun {
  dse::ExplorationResult result;
  double seconds = 0.0;
  std::string journal;  ///< journal bytes after the run
};

TimedRun timed_explore(dse::EngineConfig config, const std::string& journal_path) {
  config.journal_path = journal_path;
  fs::remove(journal_path);
  drop_memo_caches();
  TimedRun run;
  const double t0 = now_s();
  run.result = dse::explore(config);
  run.seconds = now_s() - t0;
  run.journal = read_bytes(journal_path);
  fs::remove(journal_path);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParse args("dse_shards",
                      "multi-process shards + persistent result cache: warm-cache reuse "
                      "and bit-identity pins");
  util::add_bench_options(args, /*default_seed=*/7, "BENCH_shards.json");
  args.add_flag("shard-smoke",
                "quick CI gate: >= 10x warm cache, bit-identical fronts and journals "
                "everywhere");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);

  print_banner(std::cout, "DSE — evaluation shards + persistent result cache",
               "warm-cache reuse; determinism pins");

  // ---- Phase 1: warm-cache reuse on the real MC job ----------------------
  const std::string cache_path = scratch("shards.xrc");
  dse::EngineConfig cached_job = mc_job();
  cached_job.cache_path = cache_path;
  const TimedRun cold = timed_explore(cached_job, scratch("cold.xjl"));
  const TimedRun warm = timed_explore(cached_job, scratch("warm.xjl"));
  const double cache_speedup = warm.seconds > 0.0 ? cold.seconds / warm.seconds : 0.0;

  Table cache_table({"run", "wall s", "computed", "cache hits", "cache appends"});
  cache_table.add_row({"cold", Table::num(cold.seconds, 3),
                       std::to_string(cold.result.stats.computed),
                       std::to_string(cold.result.stats.cache_hits),
                       std::to_string(cold.result.stats.cache_appends)});
  cache_table.add_row({"warm", Table::num(warm.seconds, 3),
                       std::to_string(warm.result.stats.computed),
                       std::to_string(warm.result.stats.cache_hits),
                       std::to_string(warm.result.stats.cache_appends)});
  std::cout << cache_table << "\nWarm-cache speedup: " << Table::num(cache_speedup, 1)
            << "x (" << warm.result.stats.cache_hits << " evaluations served from "
            << "disk, " << warm.result.stats.computed << " recomputed).\n\n";

  // ---- Phase 2: determinism pins -----------------------------------------
  //
  // One reference run, then every variation that must not change a byte:
  // shard counts, a worker SIGKILLed mid-batch, and both cache states above.
  const TimedRun reference = timed_explore(mc_job(), scratch("ref.xjl"));
  const std::string want_front = front_json(reference.result);

  struct Pin {
    std::string name;
    bool front_ok = false;
    bool journal_ok = false;
  };
  std::vector<Pin> pins;
  const auto pin = [&](const std::string& name, const TimedRun& run) {
    pins.push_back({name, front_json(run.result) == want_front,
                    run.journal == reference.journal});
  };
  for (const std::size_t shards : {2ul, 4ul}) {
    dse::EngineConfig config = mc_job();
    config.shards = shards;
    pin(std::to_string(shards) + " shards",
        timed_explore(config, scratch("s" + std::to_string(shards) + ".xjl")));
  }
  {
    dse::EngineConfig config = mc_job();
    config.shards = 2;
    config.kill_shard_worker_after = 5;
    const TimedRun killed = timed_explore(config, scratch("kill.xjl"));
    pins.push_back({"2 shards, worker SIGKILLed",
                    front_json(killed.result) == want_front &&
                        killed.result.stats.shard_respawns >= 1,
                    killed.journal == reference.journal});
  }
  pin("cold cache", cold);
  pin("warm cache", warm);
  fs::remove(cache_path);

  bool all_identical = true;
  Table pin_table({"variation", "front JSON", "journal bytes"});
  for (const Pin& p : pins) {
    pin_table.add_row({p.name, p.front_ok ? "identical" : "DIVERGED",
                       p.journal_ok ? "identical" : "DIVERGED"});
    all_identical = all_identical && p.front_ok && p.journal_ok;
  }
  std::cout << pin_table;
  std::cout << "\nExpected shape: a warm cache that recomputes nothing, and every\n"
               "variation bit-identical to the reference run.\n";

  if (!args.str("out").empty()) {
    std::ofstream json(args.str("out"));
    json << "{\n  \"bench\": \"dse_shards\",\n  \"build_type\": \"" << XLDS_BUILD_TYPE
         << "\",\n  \"cache\": {"
         << "\"cold_s\": " << cold.seconds << ", \"warm_s\": " << warm.seconds
         << ", \"speedup\": " << cache_speedup
         << ", \"warm_computed\": " << warm.result.stats.computed
         << ", \"warm_hits\": " << warm.result.stats.cache_hits << "},\n  \"identical\": {";
    for (std::size_t i = 0; i < pins.size(); ++i) {
      std::string key = pins[i].name;
      for (char& c : key)
        if (c == ' ' || c == ',') c = '_';
      json << (i > 0 ? ", " : "") << "\"" << key
           << "\": " << (pins[i].front_ok && pins[i].journal_ok ? "true" : "false");
    }
    json << "}\n}\n";
    std::cout << "\nJSON written to " << args.str("out") << ".\n";
  }

  if (args.flag("shard-smoke")) {
    bool ok = true;
    if (cache_speedup < 10.0) {
      std::cerr << "shard-smoke: warm-cache speedup " << Table::num(cache_speedup, 2)
                << "x is below the 10x bar\n";
      ok = false;
    }
    if (warm.result.stats.computed != 0) {
      std::cerr << "shard-smoke: warm run recomputed " << warm.result.stats.computed
                << " evaluations (expected 0)\n";
      ok = false;
    }
    if (!all_identical) {
      std::cerr << "shard-smoke: a variation diverged from the reference run "
                   "(see table above)\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "\nshard-smoke: " << Table::num(cache_speedup, 1)
              << "x warm cache, all variations bit-identical — gate passed.\n";
  }
  return 0;
}
