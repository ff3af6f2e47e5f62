#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iterator>
#include <stdexcept>

#include "bench.hpp"
#include "util/hash.hpp"

namespace perfbench {

Trace::Trace(bool enabled, Clock::time_point origin) : enabled_(enabled), origin_(origin) {}

Trace::Span::Span(Trace* trace, std::string name) : trace_(trace) {
  if (trace_ != nullptr) trace_->open(std::move(name));
}

Trace::Span::~Span() {
  if (trace_ != nullptr) trace_->close();
}

void Trace::open(std::string name) {
  Record r;
  r.name = std::move(name);
  r.parent = stack_.empty() ? kNone : stack_.back();
  r.begin = Clock::now();
  records_.push_back(std::move(r));
  stack_.push_back(records_.size() - 1);
}

void Trace::close() {
  const std::size_t i = stack_.back();
  stack_.pop_back();
  Record& r = records_[i];
  r.end = Clock::now();
  const double d = seconds_between(r.begin, r.end);
  if (r.parent == kNone)
    top_level_s_ += d;
  else
    records_[r.parent].child_s += d;
}

Trace::Summary Trace::summarise() const {
  if (!stack_.empty()) throw std::logic_error("trace summarised with open spans");
  Summary s;
  for (const Record& r : records_) s.self_s[r.name] += seconds_between(r.begin, r.end) - r.child_s;
  s.wall_s = seconds_between(origin_, Clock::now());
  s.unattributed_s = s.wall_s - top_level_s_;
  return s;
}

std::string digest_hex(const std::string& bytes) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(xlds::util::fnv1a64(bytes.data(), bytes.size())));
  return buf;
}

std::string read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

Pins Pins::load(const std::string& path) {
  const xlds::util::Json doc = xlds::util::Json::parse(read_file_bytes(path));
  Pins p;
  for (const auto& [id, job] : doc.at("dse_jobs").as_object())
    p.jobs[id] = Job{job.at("result").as_string(), job.at("journal").as_string()};
  for (const auto& [id, sum] : doc.at("serve_runs").as_object()) p.serve[id] = sum.as_string();
  return p;
}

xlds::util::Json Pins::to_json() const {
  using xlds::util::Json;
  Json doc = Json::object();
  doc.set("digest", "FNV-1a 64 (src/util/hash.hpp) of the --no-stats result JSON and of the "
                    "journal file; serve runs pin ServingReport::checksum");
  Json jobs_json = Json::object();
  for (const auto& [id, job] : jobs) {
    Json j = Json::object();
    j.set("result", job.result);
    j.set("journal", job.journal);
    jobs_json.set(id, std::move(j));
  }
  doc.set("dse_jobs", std::move(jobs_json));
  Json serve_json = Json::object();
  for (const auto& [id, sum] : serve) serve_json.set(id, sum);
  doc.set("serve_runs", std::move(serve_json));
  return doc;
}

ProfilerCounts ProfilerCounts::now() {
  return ProfilerCounts{xlds::core::Profiler::nodal(), xlds::core::Profiler::sched()};
}

void ProfilerCounts::add_delta(const ProfilerCounts& before, const ProfilerCounts& after) {
  nodal.factorizations += after.nodal.factorizations - before.nodal.factorizations;
  nodal.direct_solves += after.nodal.direct_solves - before.nodal.direct_solves;
  nodal.incremental_updates += after.nodal.incremental_updates - before.nodal.incremental_updates;
  nodal.update_declines += after.nodal.update_declines - before.nodal.update_declines;
  sched.jobs += after.sched.jobs - before.sched.jobs;
  sched.inline_jobs += after.sched.inline_jobs - before.sched.inline_jobs;
  sched.tasks += after.sched.tasks - before.sched.tasks;
  sched.stolen_tasks += after.sched.stolen_tasks - before.sched.stolen_tasks;
  sched.steal_failures += after.sched.steal_failures - before.sched.steal_failures;
}

void ProfilerCounts::put_metrics(std::map<std::string, double>& m) const {
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  m["xbar.factorizations"] = d(nodal.factorizations);
  m["xbar.direct_solves"] = d(nodal.direct_solves);
  m["xbar.incremental_updates"] = d(nodal.incremental_updates);
  m["xbar.update_declines"] = d(nodal.update_declines);
  m["xbar.update_accept_ratio"] =
      ratio(d(nodal.incremental_updates), d(nodal.incremental_updates + nodal.update_declines));
  m["sched.jobs"] = d(sched.jobs);
  m["sched.inline_jobs"] = d(sched.inline_jobs);
  m["sched.tasks"] = d(sched.tasks);
  m["sched.stolen_tasks"] = d(sched.stolen_tasks);
  m["sched.steal_failures"] = d(sched.steal_failures);
  m["sched.steal_hit_ratio"] =
      ratio(d(sched.stolen_tasks), d(sched.stolen_tasks + sched.steal_failures));
}

namespace {

double tv_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

}  // namespace

double cpu_seconds_with_children() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
  }
  return total;
}

double children_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return tv_seconds(ru.ru_utime) + tv_seconds(ru.ru_stime);
}

double invol_ctx_switches() {
  double total = 0.0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += static_cast<double>(ru.ru_nivcsw);
  }
  return total;
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

}  // namespace perfbench
