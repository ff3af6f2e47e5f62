// Closed-loop serving under drift (ROADMAP item 5): an HDC classifier on
// FeFET CAM + RRAM encoder tiles served under sustained Poisson load while
// the devices age, compared across recalibration policies.
//
// Each policy runs the identical request stream against an identically
// seeded model; what differs is only when (and how) the policy intervenes.
// The table shows the throughput / latency / accuracy trade; the full
// accuracy-over-time and qps trajectories per policy go to
// BENCH_serving.json.  --serve-smoke runs a quick gate: the run completes,
// the no-recalibration baseline breaks the accuracy floor, the watchdog
// holds it, and the report checksum is identical at 1 and 8 threads.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/counters.hpp"
#include "serve/loop.hpp"
#include "serve/model.hpp"
#include "serve/policy.hpp"
#include "util/argparse.hpp"
#include "util/parallel.hpp"
#include "util/table.hpp"

using namespace xlds;

namespace {

struct PolicyRun {
  std::string name;
  serve::ServingReport report;
};

std::unique_ptr<serve::RecalibrationPolicy> make_policy(const std::string& name,
                                                        const serve::ServingConfig& cfg) {
  // The watchdog family triggers at a guard margin above the SLO floor —
  // waiting for the floor itself to break would record the violation the
  // policy exists to prevent.  Backoffs re-arm after roughly a quarter
  // window refill.
  const double trigger = std::min(0.99, cfg.accuracy_floor + 0.03);
  const double backoff0 = 0.25 * static_cast<double>(cfg.accuracy_window) /
                          (cfg.target_utilisation / cfg.base_service_s);
  if (name == "none") return serve::make_no_recalibration();
  if (name == "scheduled") return serve::make_scheduled_refresh(0.6);
  if (name == "watchdog")
    return serve::make_accuracy_watchdog(trigger, cfg.floor_min_samples, backoff0,
                                         4.0 * backoff0);
  if (name == "spare-swap")
    return serve::make_spare_swap(trigger, cfg.floor_min_samples, backoff0, 4.0 * backoff0);
  if (name == "re-query")
    return serve::make_requery_escalation(trigger, cfg.floor_min_samples, 7);
  XLDS_REQUIRE_MSG(false, "unknown policy " << name);
  return nullptr;
}

serve::ServingReport run_policy(const std::string& name, const serve::ServingConfig& cfg,
                                std::uint64_t model_seed) {
  serve::ServedModelConfig mc;
  serve::ServedHdcModel model(mc, model_seed);
  auto policy = make_policy(name, cfg);
  return serve::ServingLoop(cfg).run(model, *policy);
}

void emit_json(const std::string& path, const serve::ServingConfig& cfg,
               const std::vector<PolicyRun>& runs) {
  std::ofstream json(path);
  json << "{\n  \"bench\": \"serve_hdc_drift\",\n"
       << "  \"total_requests\": " << cfg.total_requests << ",\n"
       << "  \"drift_time_scale\": " << cfg.drift_time_scale << ",\n"
       << "  \"accuracy_floor\": " << cfg.accuracy_floor << ",\n"
       << "  \"accuracy_window\": " << cfg.accuracy_window << ",\n"
       << "  \"seed\": " << cfg.seed << ",\n  \"policies\": [\n";
  for (std::size_t p = 0; p < runs.size(); ++p) {
    const serve::ServingReport& r = runs[p].report;
    json << "    {\"policy\": \"" << r.policy << "\", \"served\": " << r.served
         << ", \"degraded\": " << r.degraded << ", \"shed_admission\": " << r.shed_admission
         << ", \"shed_recal\": " << r.shed_recal << ", \"recal_events\": " << r.recal_events
         << ", \"spare_swaps\": " << r.spare_swaps
         << ", \"cam_cells_rewritten\": " << r.cam_cells_rewritten
         << ", \"xbar_cells_repaired\": " << r.xbar_cells_repaired
         << ", \"sustained_qps\": " << r.sustained_qps << ", \"latency_p50_s\": " << r.latency.p50
         << ", \"latency_p99_s\": " << r.latency.p99
         << ", \"serve_energy_j\": " << r.serve_energy_j
         << ", \"recal_energy_j\": " << r.recal_energy_j
         << ", \"overall_accuracy\": " << r.overall_accuracy
         << ", \"min_window_accuracy\": " << r.min_window_accuracy
         << ", \"floor_held\": " << (r.floor_held ? "true" : "false")
         << ", \"checksum\": " << r.checksum << ",\n     \"trajectory\": [";
    for (std::size_t i = 0; i < r.trajectory.size(); ++i) {
      const serve::TrajectoryPoint& pt = r.trajectory[i];
      json << (i == 0 ? "" : ", ") << "{\"t\": " << pt.t << ", \"accuracy\": " << pt.accuracy
           << ", \"qps\": " << pt.qps << ", \"votes\": " << pt.votes
           << ", \"device_age\": " << pt.device_age << "}";
    }
    json << "]}" << (p + 1 < runs.size() ? "," : "") << "\n";
  }
  const core::Profiler::ServeCounts sc = core::Profiler::serve();
  const core::Profiler::NodalCounts nc = core::Profiler::nodal();
  json << "  ],\n  \"profiler\": {\"requests_served\": " << sc.requests_served
       << ", \"requests_shed\": " << sc.requests_shed
       << ", \"requests_degraded\": " << sc.requests_degraded
       << ", \"recalibrations\": " << sc.recalibrations
       << ", \"cells_reprogrammed\": " << sc.cells_reprogrammed
       << ", \"nodal_factorizations\": " << nc.factorizations
       << ", \"nodal_update_declines\": " << nc.update_declines << "}\n}\n";
  std::cout << "\nJSON written to " << path << ".\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::ArgParse args("serve_hdc_drift",
                      "Sustained-load HDC serving under device drift, per recalibration policy");
  util::add_bench_options(args, /*default_seed=*/1, "BENCH_serving.json");
  args.add_option("requests", "requests per policy run", "4096");
  args.add_option("drift-scale", "device-seconds aged per virtual second", "");
  args.add_option("policies", "comma-separated subset of none,scheduled,watchdog,spare-swap,re-query",
                  "");
  args.add_flag("serve-smoke", "quick CI gate: baseline breaks the floor, watchdog holds it");
  if (!args.parse(argc, argv)) return args.help_requested() ? 0 : 2;
  util::apply_bench_options(args);

  serve::ServingConfig cfg;
  cfg.seed = args.uinteger("seed");
  cfg.total_requests = static_cast<std::size_t>(args.uinteger("requests"));
  if (args.flag("serve-smoke")) cfg.total_requests = 2048;
  if (!args.str("drift-scale").empty()) cfg.drift_time_scale = args.num("drift-scale");

  std::vector<std::string> names{"none", "scheduled", "watchdog", "spare-swap", "re-query"};
  if (!args.str("policies").empty()) {
    names.clear();
    std::string rest = args.str("policies");
    while (!rest.empty()) {
      const std::size_t comma = rest.find(',');
      names.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
  }
  core::Profiler::reset_serve();
  core::Profiler::reset_nodal();

  std::vector<PolicyRun> runs;
  Table table({"policy", "served", "shed", "degr", "recals", "qps", "p50 ms", "p99 ms",
               "acc", "min win acc", "floor"});
  for (const std::string& name : names) {
    PolicyRun run{name, run_policy(name, cfg, cfg.seed)};
    const serve::ServingReport& r = run.report;
    table.add_row({r.policy, std::to_string(r.served),
                   std::to_string(r.shed_admission + r.shed_recal), std::to_string(r.degraded),
                   std::to_string(r.recal_events + r.spare_swaps),
                   Table::num(r.sustained_qps, 1), Table::num(r.latency.p50 * 1e3, 2),
                   Table::num(r.latency.p99 * 1e3, 2), Table::num(r.overall_accuracy, 3),
                   Table::num(r.min_window_accuracy, 3), r.floor_held ? "held" : "BROKEN"});
    runs.push_back(std::move(run));
  }
  std::cout << table;
  std::cout << "\nExpected shape: the no-recalibration baseline decays through the accuracy\n"
               "floor as retention drift scrambles the stored hypervectors; scheduled and\n"
               "watchdog refreshes restore it (the watchdog paying only when the floor is\n"
               "actually threatened); the spare swap holds accuracy without a service\n"
               "window; majority re-query alone averages out sensing noise but cannot\n"
               "undo persistent drift.\n";

  if (!args.str("out").empty()) emit_json(args.str("out"), cfg, runs);

  if (args.flag("serve-smoke")) {
    const auto find = [&](const std::string& name) -> const serve::ServingReport& {
      for (const PolicyRun& r : runs)
        if (r.name == name) return r.report;
      XLDS_REQUIRE_MSG(false, "missing policy run " << name);
      return runs.front().report;
    };
    const serve::ServingReport& none = find("none");
    const serve::ServingReport& watchdog = find("watchdog");
    bool ok = true;
    if (none.floor_held) {
      std::cerr << "serve-smoke: baseline held the floor (min window acc "
                << none.min_window_accuracy << ") — drift too weak to gate on\n";
      ok = false;
    }
    if (!watchdog.floor_held) {
      std::cerr << "serve-smoke: watchdog broke the floor (min window acc "
                << watchdog.min_window_accuracy << ")\n";
      ok = false;
    }
    // Bit-identity across thread counts: rerun the watchdog at 1 and 8
    // threads.  Floor dynamics don't matter here, so a short run suffices.
    serve::ServingConfig tcfg = cfg;
    tcfg.total_requests = 768;
    set_parallel_threads(1);
    const serve::ServingReport w1 = run_policy("watchdog", tcfg, cfg.seed);
    set_parallel_threads(8);
    const serve::ServingReport w8 = run_policy("watchdog", tcfg, cfg.seed);
    set_parallel_threads(0);
    if (w1.checksum != w8.checksum) {
      std::cerr << "serve-smoke: 1-thread and 8-thread runs diverge (checksums " << w1.checksum
                << " vs " << w8.checksum << ")\n";
      ok = false;
    }
    if (!ok) return 1;
    std::cout << "\nserve-smoke: baseline breaks the floor, watchdog holds it, runs are\n"
                 "thread-count invariant — gate passed.\n";
  }
  return 0;
}
