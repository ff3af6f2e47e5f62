// Shared pieces of the end-to-end benchmark: options, the span
// recorder used by traced runs, pinned output digests and the per-workload
// result every workload hands back to main().
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/counters.hpp"
#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< scratch files (journals, result caches)
  Clock::time_point started;  ///< entry to main(): set-up is timed from here
};

/// Spans recorded on the benchmark's own thread.  Every span is a [begin, end)
/// interval opened and closed in LIFO order, so children nest inside their
/// parent and siblings never overlap; a span's self time is its duration
/// minus its children's.  With tracing off nothing is recorded.
class Trace {
 public:
  explicit Trace(bool enabled, Clock::time_point origin);

  bool enabled() const noexcept { return enabled_; }

  class Span {
   public:
    Span(Trace* trace, std::string name);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace* trace_;
  };

  /// Open a span named after the per-layer metric its self time feeds.
  [[nodiscard]] Span span(std::string name) { return Span(enabled_ ? this : nullptr, std::move(name)); }

  /// Self time per span name, and the wall time from `origin` to now that
  /// no top-level span covers.  Self times plus the remainder add up to the
  /// wall time exactly (up to rounding).
  struct Summary {
    std::map<std::string, double> self_s;
    double wall_s = 0.0;
    double unattributed_s = 0.0;
  };
  Summary summarise() const;

 private:
  struct Record {
    std::string name;
    Clock::time_point begin, end;
    double child_s = 0.0;
    std::size_t parent = kNone;
  };
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  void open(std::string name);
  void close();

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
  double top_level_s_ = 0.0;
};

/// FNV-1a 64 of a byte string, as 16 hex digits (the framework's content
/// hash; see src/util/hash.hpp).
std::string digest_hex(const std::string& bytes);
std::string read_file_bytes(const std::string& path);

/// Pinned outputs (perfbench/pins.json): result and journal digests per DSE
/// job id, and the report checksum per serving run id.
struct Pins {
  struct Job {
    std::string result;
    std::string journal;
  };
  std::map<std::string, Job> jobs;
  std::map<std::string, std::string> serve;

  static Pins load(const std::string& path);
  xlds::util::Json to_json() const;
};

/// What a workload run hands back to main().
struct WorkloadResult {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed operation
  double setup_s = 0.0;               ///< median of the set-up repetitions
  std::vector<double> op_s;           ///< one latency sample per timed operation
  double throughput_per_s = 0.0;
  double cpu_s = 0.0;                 ///< user+sys over the timed phase, children included
  std::map<std::string, double> layer;  ///< per-layer metrics (traced runs)
  std::map<std::string, std::string> machine;  ///< pool width, shard count, ...
};

WorkloadResult run_dse_cold(const Options& opt, const Pins& pins, Trace& trace);
WorkloadResult run_dse_shard_cache(const Options& opt, const Pins& pins, Trace& trace);
WorkloadResult run_serve_drift(const Options& opt, const Pins& pins, Trace& trace);

/// Regenerate every pin the workloads can ask for.
void write_dse_pins(Pins& pins, const std::string& work_dir);
void write_serve_pins(Pins& pins);

/// Nodal-solver and scheduler work (core::Profiler counters), summed over
/// the real calls of a traced pass.
struct ProfilerCounts {
  xlds::core::Profiler::NodalCounts nodal{};
  xlds::core::Profiler::SchedCounts sched{};

  static ProfilerCounts now();
  /// Add `after - before` (one call's delta).
  void add_delta(const ProfilerCounts& before, const ProfilerCounts& after);
  /// The xbar.* and sched.* per-layer metrics.
  void put_metrics(std::map<std::string, double>& m) const;
};

/// num / den, or 0 when nothing was attempted.
inline double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// user+sys CPU seconds of this process plus its reaped children.
double cpu_seconds_with_children();
/// user+sys CPU seconds of reaped children (shard workers) only.
double children_cpu_seconds();
/// Involuntary context switches of this process plus its reaped children.
double invol_ctx_switches();

double median(std::vector<double> v);
/// Quantile by nearest rank on a sorted copy (q in [0, 1]).
double quantile(std::vector<double> v, double q);

}  // namespace perfbench
