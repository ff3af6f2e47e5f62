// xlds-dse: budgeted design-space exploration from a JSON job spec.
//
//   xlds-dse --spec job.json [--out result.json] [--csv result.csv]
//            [--journal path] [--seed N] [--budget N] [--strategy name]
//            [--surrogate on|off] [--surrogate-refit N] [--surrogate-uncertainty X]
//            [--surrogate-qpc N] [--shards N] [--cache path]
//            [--threads N] [--no-stats]
//
// The spec carries the full job description (see src/dse/jobspec.hpp);
// command-line options override the matching spec fields so a CI matrix can
// reuse one spec across strategies/seeds.  With --journal, a killed run
// resumes from the journal on the next invocation and finishes with results
// bit-identical to a run that was never interrupted.
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "dse/engine.hpp"
#include "dse/jobspec.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  XLDS_REQUIRE_MSG(in.is_open(), "cannot read spec file '" << path << "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  XLDS_REQUIRE_MSG(out.is_open(), "cannot write '" << path << "'");
  out << contents;
  XLDS_REQUIRE_MSG(out.good(), "write to '" << path << "' failed");
}

}  // namespace

int main(int argc, char** argv) {
  using xlds::util::ArgParse;
  ArgParse args("xlds-dse", "Budgeted design-space exploration over the XLDS grid");
  args.add_option("spec", "JSON job spec path (required)");
  args.add_option("strategy", "override spec strategy: random | lhs | nsga2 | halving");
  args.add_option("budget", "override spec budget (unique point/tier charges; 0 = viable space)");
  args.add_option("journal", "override spec journal path (enables crash-safe resume)");
  args.add_option("csv", "also write per-point CSV to this path");
  args.add_option("surrogate",
                  "learned tier-0 rung: on | off (overrides the spec's surrogate.enabled)");
  args.add_option("surrogate-refit", "refit the forest every N new observations");
  args.add_option("surrogate-uncertainty",
                  "promote predictions with relative std above this threshold");
  args.add_option("surrogate-qpc", "surrogate queries exchanged per ladder budget charge");
  args.add_option("shards",
                  "evaluation shard processes: 1 = in-process (default: XLDS_SHARDS or 1); "
                  "speed-only, results are bit-identical at any count");
  args.add_option("cache",
                  "persistent cross-run result cache file (overrides the spec's \"cache\")");
  args.add_flag("no-stats", "omit run statistics from the JSON (resume-comparable output)");
  xlds::util::add_bench_options(args, /*default_seed=*/0);

  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;

  try {
    XLDS_REQUIRE_MSG(args.provided("spec"), "--spec is required (see --help)");
    xlds::dse::EngineConfig config =
        xlds::dse::config_from_spec_text(read_file(args.str("spec")));
    if (args.provided("strategy")) config.strategy = args.str("strategy");
    if (args.provided("budget")) config.budget = args.uinteger("budget");
    if (args.provided("journal")) config.journal_path = args.str("journal");
    if (args.provided("seed")) config.seed = args.uinteger("seed");
    if (args.provided("surrogate")) {
      const std::string mode = args.str("surrogate");
      XLDS_REQUIRE_MSG(mode == "on" || mode == "off", "--surrogate takes on | off");
      config.surrogate.enabled = mode == "on";
    }
    if (args.provided("surrogate-refit"))
      config.surrogate.refit_every = args.uinteger("surrogate-refit");
    if (args.provided("surrogate-uncertainty"))
      config.surrogate.promote_uncertainty = args.num("surrogate-uncertainty");
    if (args.provided("surrogate-qpc"))
      config.surrogate.queries_per_charge = args.uinteger("surrogate-qpc");
    if (args.provided("shards")) {
      config.shards = args.uinteger("shards");
      XLDS_REQUIRE_MSG(config.shards >= 1, "--shards takes a positive count");
    }
    if (args.provided("cache")) config.cache_path = args.str("cache");
    xlds::util::apply_bench_options(args);

    const xlds::dse::ExplorationResult result = xlds::dse::explore(config);
    const std::string json =
        xlds::dse::result_to_json(result, !args.flag("no-stats")).dump(2) + "\n";
    if (args.provided("out"))
      write_file(args.str("out"), json);
    else
      std::cout << json;
    if (args.provided("csv")) write_file(args.str("csv"), xlds::dse::result_to_csv(result));

    std::cerr << "xlds-dse: " << result.strategy << " charged " << result.stats.charges
              << "/" << result.budget << " (computed " << result.stats.computed
              << ", journal hits " << result.stats.journal_hits << "), front "
              << result.front.size() << " of " << result.evaluated.size()
              << " evaluated\n";
    if (config.surrogate.enabled) {
      const auto& s = result.stats;
      std::cerr << "xlds-dse: surrogate: " << s.surrogate_queries << " queries ("
                << s.surrogate_budget_units << " budget units), " << s.surrogate_promotions
                << " promoted, " << s.surrogate_hits << " screened out, "
                << s.surrogate_refits << " refits, " << s.surrogate_disagreements
                << " disagreements\n";
    }
    if (result.stats.shards_used > 1 || !config.cache_path.empty()) {
      const auto& s = result.stats;
      std::cerr << "xlds-dse: shards: " << s.shards_used << " workers, " << s.shard_requests
                << " requests (" << s.shard_respawns << " respawns); cache: " << s.cache_hits
                << " hits, " << s.cache_appends << " appends\n";
    }
    const auto& nodal = result.stats.nodal;
    std::cerr << "xlds-dse: nodal solver work: " << nodal.factorizations
              << " factorizations (" << nodal.update_declines << " dropped by a mutation), "
              << nodal.direct_solves << " direct solves\n";
    const auto& sched = result.stats.scheduler;
    std::cerr << "xlds-dse: scheduler (" << xlds::parallel_thread_count() << " lanes): "
              << sched.counts.jobs << " jobs (" << sched.counts.inline_jobs << " inline), "
              << sched.counts.tasks << " tasks + " << sched.counts.stolen_tasks
              << " stolen, " << sched.counts.nested_cooperative << " nested cooperative / "
              << sched.counts.nested_inlined << " inlined; busy s/tier [surrogate "
              << sched.tier_busy_s[0] << ", analytic " << sched.tier_busy_s[1] << ", nodal "
              << sched.tier_busy_s[2] << ", mc " << sched.tier_busy_s[3] << "]\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "xlds-dse: error: " << e.what() << "\n";
    return 1;
  }
}
