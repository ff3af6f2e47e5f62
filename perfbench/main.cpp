// xlds_perfbench: the repository's end-to-end benchmark.
//
//   xlds_perfbench --workload dse_cold|serve_drift|dse_shard_cache
//                  --seed N --seconds S --trace 0|1
//                  [--pins perfbench/pins.json] [--work-dir DIR] [--source ID]
//   xlds_perfbench --write-pins perfbench/pins.json
//
// One closed-loop client per run: the next DSE job or serving run starts
// only when the previous one returns, until --seconds have passed.  With
// --trace 0 the last stdout line carries the end-to-end metrics; with
// --trace 1 a separate, fixed-length run records spans around the public
// calls and their layer replays and carries the per-layer metrics.  Every
// job and serving run is checked against pins.json.  perfbench/run.py
// builds this binary and runs it; see perfbench/README.md.
#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "util/json.hpp"
#include "util/parallel.hpp"

namespace {

using perfbench::Clock;

struct MetricDef {
  const char* name;
  const char* unit;
};

// End-to-end metrics (--trace 0).  An operation is one explore() job on the
// DSE workloads and one control tick on serve_drift; throughput counts jobs
// per second of the timed phase on the DSE workloads and served requests
// per host second of run() on serve_drift.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},         {"throughput_per_s", "1/s"}, {"latency_s_p50", "s"},
    {"latency_s_p90", "s"},   {"cpu_s_per_op", "s"},       {"peak_rss_mb", "MB"},
};

// Per-layer metrics (--trace 1).  Names ending in _s that are also span
// names are self times; see README.md for where each one comes from.
constexpr MetricDef kPerLayer[] = {
    {"dse.self_s", "s"},
    {"dse.charges", "count"},
    {"dse.computed", "count"},
    {"dse.journal_appends", "count"},
    {"dse.journal_s", "s"},
    {"dse.tier_busy_s.analytic", "s"},
    {"dse.tier_busy_s.nodal", "s"},
    {"dse.tier_busy_s.mc", "s"},
    {"core.evaluate_calls", "count"},
    {"core.evaluate_s", "s"},
    {"evacam.variation_calls", "count"},
    {"evacam.variation_s", "s"},
    {"fault.probe_runs", "count"},
    {"fault.probe_s", "s"},
    {"fault.context_builds", "count"},
    {"fault.context_hit_ratio", "ratio"},
    {"xbar.factorizations", "count"},
    {"xbar.direct_solves", "count"},
    {"xbar.incremental_updates", "count"},
    {"xbar.update_declines", "count"},
    {"xbar.update_accept_ratio", "ratio"},
    {"xbar.factorize_s", "s"},
    {"xbar.solve_s", "s"},
    {"xbar.age_s", "s"},
    {"xbar.other_s", "s"},
    {"hdc.encode_s", "s"},
    {"cam.searches", "count"},
    {"cam.search_s", "s"},
    {"cam.rewrite_s", "s"},
    {"cam.cells_rewritten", "count"},
    {"serve.self_s", "s"},
    {"serve.ticks", "count"},
    {"serve.recal_events", "count"},
    {"serve.repair_s", "s"},
    {"serve.cells_reprogrammed", "count"},
    {"serve.policy_s", "s"},
    {"serve.model_build_s", "s"},
    {"sched.jobs", "count"},
    {"sched.inline_jobs", "count"},
    {"sched.tasks", "count"},
    {"sched.stolen_tasks", "count"},
    {"sched.steal_failures", "count"},
    {"sched.steal_hit_ratio", "ratio"},
    {"proc.invol_ctx_switches", "count"},
    {"shard.spawn_s", "s"},
    {"shard.requests", "count"},
    {"shard.redispatches", "count"},
    {"shard.duplicate_ratio", "ratio"},
    {"shard.respawns", "count"},
    {"shard.batch_s", "s"},
    {"shard.children_cpu_s", "s"},
    {"cache.hits", "count"},
    {"cache.appends", "count"},
    {"cache.hit_ratio", "ratio"},
    {"cache.find_s", "s"},
    {"cache.insert_s", "s"},
    {"cache.file_bytes", "bytes"},
    {"trace.calls_s", "s"},
    {"bench.self_s", "s"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.wall_s", "s"},
};

bool is_known_layer_metric(const std::string& name) {
  for (const MetricDef& d : kPerLayer)
    if (name == d.name) return true;
  return false;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return static_cast<std::size_t>(CPU_COUNT(&set));
  return 1;
}

double peak_rss_mb() {
  double kb = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    kb += static_cast<double>(ru.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Timings from unoptimised or instrumented code say nothing about the
/// program; refuse to produce them.
const char* timing_refusal() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
  return "sanitizer build";
#endif
#endif
#ifndef NDEBUG
  return "assertions enabled (Debug build)";
#endif
  if (std::string(XLDS_BENCH_BUILD_TYPE) == "Debug") return "Debug build";
  return nullptr;
}

int usage(const char* msg) {
  std::cerr << "xlds_perfbench: " << msg
            << "\nusage: xlds_perfbench --workload dse_cold|serve_drift|dse_shard_cache --seed N"
               " --seconds S --trace 0|1 [--pins FILE] [--work-dir DIR] [--source ID]\n"
               "       xlds_perfbench --write-pins FILE [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  opt.started = Clock::now();
  std::string pins_path = "perfbench/pins.json";
  std::string write_pins;
  std::string source = "unknown";
  opt.work_dir = ".bench_build/work";
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage(("missing value for " + a).c_str());
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0.0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") return usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--pins") {
        pins_path = v;
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else if (a == "--source") {
        source = v;
      } else if (a == "--write-pins") {
        write_pins = v;
      } else {
        return usage(("unknown option " + a).c_str());
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (const char* why = timing_refusal()) {
    std::cerr << "xlds_perfbench: refusing to time a " << why << "\n";
    return 3;
  }

  const std::size_t nproc = available_cpus();
  xlds::set_parallel_threads(nproc);
  std::filesystem::create_directories(opt.work_dir);

  if (!write_pins.empty()) {
    perfbench::Pins pins;
    perfbench::write_serve_pins(pins);
    perfbench::write_dse_pins(pins, opt.work_dir);
    std::ofstream out(write_pins);
    out << pins.to_json().dump(2) << "\n";
    std::cerr << "xlds_perfbench: wrote " << pins.jobs.size() << " job and " << pins.serve.size()
              << " serving-run pins to " << write_pins << "\n";
    std::filesystem::remove_all(opt.work_dir);
    return out.good() ? 0 : 1;
  }
  if (opt.workload.empty() || !have_seed || !have_seconds || !have_trace)
    return usage("--workload, --seed, --seconds and --trace are required");

  perfbench::Pins pins;
  try {
    pins = perfbench::Pins::load(pins_path);
  } catch (const std::exception& e) {
    std::cerr << "xlds_perfbench: cannot load pins: " << e.what() << "\n";
    return 1;
  }

  perfbench::Trace trace(opt.trace, opt.started);
  perfbench::WorkloadResult res;
  if (opt.workload == "dse_cold")
    res = perfbench::run_dse_cold(opt, pins, trace);
  else if (opt.workload == "serve_drift")
    res = perfbench::run_serve_drift(opt, pins, trace);
  else if (opt.workload == "dse_shard_cache")
    res = perfbench::run_dse_shard_cache(opt, pins, trace);
  else
    return usage(("unknown workload " + opt.workload).c_str());

  using xlds::util::Json;
  Json metrics = Json::object();
  const auto put = [&metrics](const MetricDef& d, double value) {
    Json m = Json::object();
    m.set("value", value);
    m.set("unit", d.unit);
    metrics.set(d.name, std::move(m));
  };
  const std::size_t samples = res.op_s.size();
  if (!opt.trace) {
    const double values[] = {
        res.setup_s,
        res.throughput_per_s,
        perfbench::quantile(res.op_s, 0.5),
        perfbench::quantile(res.op_s, 0.9),
        samples > 0 ? res.cpu_s / static_cast<double>(samples) : 0.0,
        peak_rss_mb(),
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) put(kEndToEnd[i], values[i]);
  } else {
    const perfbench::Trace::Summary sum = trace.summarise();
    double self_total = 0.0;
    for (const auto& [name, v] : sum.self_s) {
      self_total += v;
      if (!is_known_layer_metric(name)) {
        res.failures.push_back("span " + name + " feeds no per-layer metric");
        ++res.failed;
      }
      res.layer[name] = v;
    }
    res.layer["trace.unattributed_s"] = sum.unattributed_s;
    res.layer["trace.wall_s"] = sum.wall_s;
    // Self times plus the unattributed remainder must add up to the wall.
    if (std::fabs(self_total + sum.unattributed_s - sum.wall_s) > 1e-6 * sum.wall_s) {
      res.failures.push_back("span self times do not add up to the traced wall time");
      ++res.failed;
    }
    for (const MetricDef& d : kPerLayer) {
      const auto it = res.layer.find(d.name);
      put(d, it == res.layer.end() ? 0.0 : it->second);
    }
  }

  Json machine = Json::object();
  machine.set("workload", opt.workload);
  machine.set("seed", static_cast<double>(opt.seed));
  machine.set("nproc", nproc);
  machine.set("pool_width", xlds::parallel_thread_count());
  machine.set("scheduler", xlds::parallel_scheduler() == xlds::SchedulerMode::kWorkStealing
                               ? "work-stealing"
                               : "static");
  for (const auto& [k, v] : res.machine) machine.set(k, v);
  machine.set("build_type", XLDS_BENCH_BUILD_TYPE);
  machine.set("xlds_native", static_cast<bool>(XLDS_BENCH_NATIVE));
  machine.set("compiler", XLDS_BENCH_COMPILER);
  machine.set("source", source);
  machine.set("samples", samples);
  machine.set("p90_tail_samples",
              samples - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(samples))));
  Json info = Json::object();
  info.set("machine", std::move(machine));
  std::cout << info.dump() << "\n";
  std::cerr << "xlds_perfbench: " << info.dump() << "\n";
  for (std::size_t i = 0; i < res.failures.size() && i < 20; ++i)
    std::cerr << "xlds_perfbench: FAILED " << res.failures[i] << "\n";

  Json result = Json::object();
  result.set("correct", res.failed == 0);
  result.set("attempted", res.attempted);
  result.set("failed", res.failed);
  result.set("metrics", std::move(metrics));
  std::cout << result.dump() << std::endl;
  std::filesystem::remove_all(opt.work_dir);
  return 0;
}
