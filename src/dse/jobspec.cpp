#include "dse/jobspec.hpp"

#include <cstdio>
#include <unordered_set>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::dse {

namespace {

// Reverse-lookup an enum by the name its to_string() prints.
template <class Kind>
Kind kind_from_name(const std::vector<Kind>& all, const std::string& name,
                    const char* axis) {
  for (const Kind k : all)
    if (to_string(k) == name) return k;
  std::string valid;
  for (const Kind k : all) valid += (valid.empty() ? "" : ", ") + to_string(k);
  XLDS_REQUIRE_MSG(false, "unknown " << axis << " '" << name << "' (valid: " << valid << ")");
  return all.front();
}

template <class Kind>
std::vector<Kind> axis_from_json(const util::Json& arr, const std::vector<Kind>& all,
                                 const char* axis) {
  std::vector<Kind> out;
  for (const util::Json& v : arr.as_array())
    out.push_back(kind_from_name(all, v.as_string(), axis));
  return out;
}

void reject_unknown_keys(const util::Json& obj, std::initializer_list<const char*> known,
                         const char* where) {
  const std::unordered_set<std::string> allowed(known.begin(), known.end());
  for (const auto& [key, value] : obj.as_object())
    XLDS_REQUIRE_MSG(allowed.count(key) != 0,
                     "unknown key '" << key << "' in " << where << " of the job spec");
}

std::size_t size_or(const util::Json& obj, const std::string& key, std::size_t fallback) {
  const util::Json* v = obj.find(key);
  if (v == nullptr) return fallback;
  const double n = v->as_number();
  XLDS_REQUIRE_MSG(n >= 0.0 && n == static_cast<double>(static_cast<std::size_t>(n)),
                   "'" << key << "' must be a non-negative integer");
  return static_cast<std::size_t>(n);
}

std::string format_g(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

util::Json fom_to_json(const core::Fom& fom) {
  util::Json j = util::Json::object();
  j.set("feasible", fom.feasible);
  j.set("latency_s", fom.latency);
  j.set("energy_j", fom.energy);
  j.set("area_mm2", fom.area_mm2);
  j.set("accuracy", fom.accuracy);
  if (!fom.note.empty()) j.set("note", fom.note);
  return j;
}

}  // namespace

EngineConfig config_from_spec(const util::Json& spec) {
  reject_unknown_keys(spec,
                      {"application", "strategy", "budget", "seed", "space", "fidelity",
                       "surrogate", "driver", "weights", "journal", "shards", "cache"},
                      "the top level");
  EngineConfig config;
  config.application = spec.string_or("application", config.application);
  config.strategy = spec.string_or("strategy", config.strategy);
  config.budget = size_or(spec, "budget", 0);
  config.seed = static_cast<std::uint64_t>(size_or(spec, "seed", 1));
  config.journal_path = spec.string_or("journal", "");
  config.shards = size_or(spec, "shards", 0);
  config.cache_path = spec.string_or("cache", "");

  if (const util::Json* space = spec.find("space")) {
    reject_unknown_keys(*space, {"devices", "archs", "algos"}, "\"space\"");
    if (const util::Json* d = space->find("devices"))
      config.axes.devices = axis_from_json(*d, device::all_device_kinds(), "device");
    if (const util::Json* a = space->find("archs"))
      config.axes.archs = axis_from_json(*a, core::all_arch_kinds(), "arch");
    if (const util::Json* g = space->find("algos"))
      config.axes.algos = axis_from_json(*g, core::all_algo_kinds(), "algo");
  }

  if (const util::Json* fid = spec.find("fidelity")) {
    reject_unknown_keys(*fid,
                        {"max", "variation_sigma_rel", "ir_drop_sensitivity",
                         "mc_fault_rate", "mc_age_s", "mc_seed"},
                        "\"fidelity\"");
    config.fidelity.max_fidelity =
        fidelity_from_string(fid->string_or("max", to_string(config.fidelity.max_fidelity)));
    config.fidelity.variation_sigma_rel =
        fid->number_or("variation_sigma_rel", config.fidelity.variation_sigma_rel);
    config.fidelity.ir_drop_sensitivity =
        fid->number_or("ir_drop_sensitivity", config.fidelity.ir_drop_sensitivity);
    config.fidelity.mc_fault_rate =
        fid->number_or("mc_fault_rate", config.fidelity.mc_fault_rate);
    config.fidelity.mc_age_s = fid->number_or("mc_age_s", config.fidelity.mc_age_s);
    config.fidelity.mc_seed = static_cast<std::uint64_t>(
        size_or(*fid, "mc_seed", static_cast<std::size_t>(config.fidelity.mc_seed)));
  }

  if (const util::Json* sur = spec.find("surrogate")) {
    reject_unknown_keys(*sur,
                        {"enabled", "trees", "min_history", "refit_every",
                         "promote_uncertainty", "disagree_rel", "queries_per_charge",
                         "fit_seed"},
                        "\"surrogate\"");
    surrogate::SurrogateConfig& s = config.surrogate;
    if (const util::Json* e = sur->find("enabled")) s.enabled = e->as_bool();
    s.trees = size_or(*sur, "trees", s.trees);
    s.min_history = size_or(*sur, "min_history", s.min_history);
    s.refit_every = size_or(*sur, "refit_every", s.refit_every);
    s.promote_uncertainty = sur->number_or("promote_uncertainty", s.promote_uncertainty);
    s.disagree_rel = sur->number_or("disagree_rel", s.disagree_rel);
    s.queries_per_charge = size_or(*sur, "queries_per_charge", s.queries_per_charge);
    s.fit_seed = static_cast<std::uint64_t>(
        size_or(*sur, "fit_seed", static_cast<std::size_t>(s.fit_seed)));
  }

  if (const util::Json* drv = spec.find("driver")) {
    reject_unknown_keys(*drv, {"population", "crossover_prob", "stall_generations", "eta"},
                        "\"driver\"");
    config.driver.population = size_or(*drv, "population", config.driver.population);
    config.driver.crossover_prob =
        drv->number_or("crossover_prob", config.driver.crossover_prob);
    config.driver.stall_generations =
        size_or(*drv, "stall_generations", config.driver.stall_generations);
    config.driver.halving_eta = drv->number_or("eta", config.driver.halving_eta);
  }

  if (const util::Json* w = spec.find("weights")) {
    reject_unknown_keys(*w, {"latency", "energy", "area", "accuracy"}, "\"weights\"");
    config.weights.latency = w->number_or("latency", config.weights.latency);
    config.weights.energy = w->number_or("energy", config.weights.energy);
    config.weights.area = w->number_or("area", config.weights.area);
    config.weights.accuracy = w->number_or("accuracy", config.weights.accuracy);
  }
  return config;
}

EngineConfig config_from_spec_text(const std::string& text) {
  return config_from_spec(util::Json::parse(text));
}

std::string shard_job_spec_text(const EngineConfig& config) {
  util::Json spec = util::Json::object();
  spec.set("application", config.application);

  util::Json space = util::Json::object();
  const core::SpaceAxes axes = config.axes.resolved();
  util::Json devices = util::Json::array();
  for (const device::DeviceKind d : axes.devices) devices.push_back(util::Json(to_string(d)));
  space.set("devices", std::move(devices));
  util::Json archs = util::Json::array();
  for (const core::ArchKind a : axes.archs) archs.push_back(util::Json(core::to_string(a)));
  space.set("archs", std::move(archs));
  util::Json algos = util::Json::array();
  for (const core::AlgoKind g : axes.algos) algos.push_back(util::Json(core::to_string(g)));
  space.set("algos", std::move(algos));
  spec.set("space", std::move(space));

  util::Json fid = util::Json::object();
  fid.set("max", to_string(config.fidelity.max_fidelity));
  fid.set("variation_sigma_rel", config.fidelity.variation_sigma_rel);
  fid.set("ir_drop_sensitivity", config.fidelity.ir_drop_sensitivity);
  fid.set("mc_fault_rate", config.fidelity.mc_fault_rate);
  fid.set("mc_age_s", config.fidelity.mc_age_s);
  fid.set("mc_seed", static_cast<double>(config.fidelity.mc_seed));
  spec.set("fidelity", std::move(fid));
  return spec.dump();
}

util::Json result_to_json(const ExplorationResult& result, bool include_stats) {
  util::Json doc = util::Json::object();
  doc.set("strategy", result.strategy);
  doc.set("seed", result.seed);
  doc.set("budget", result.budget);
  doc.set("job_hash", format_hex64(result.job_hash));
  doc.set("evaluated", result.evaluated.size());

  util::Json front = util::Json::array();
  for (const std::size_t i : result.front) {
    const core::ScoredPoint& sp = result.evaluated[i];
    util::Json entry = util::Json::object();
    entry.set("device", device::to_string(sp.point.device));
    entry.set("arch", core::to_string(sp.point.arch));
    entry.set("algo", core::to_string(sp.point.algo));
    entry.set("fidelity", to_string(result.tiers[i]));
    entry.set("fom", fom_to_json(sp.fom));
    front.push_back(std::move(entry));
  }
  doc.set("pareto_front", std::move(front));

  util::Json ranking = util::Json::array();
  for (const std::size_t i : result.ranking) {
    const core::ScoredPoint& sp = result.evaluated[i];
    util::Json entry = util::Json::object();
    entry.set("device", device::to_string(sp.point.device));
    entry.set("arch", core::to_string(sp.point.arch));
    entry.set("algo", core::to_string(sp.point.algo));
    ranking.push_back(std::move(entry));
  }
  doc.set("triage_ranking", std::move(ranking));

  if (include_stats) {
    const ExplorationStats& s = result.stats;
    util::Json stats = util::Json::object();
    stats.set("charges", s.charges);
    stats.set("computed", s.computed);
    stats.set("journal_hits", s.journal_hits);
    stats.set("repeat_requests", s.repeat_requests);
    stats.set("culled_requests", s.culled_requests);
    util::Json by_tier = util::Json::object();
    for (std::size_t t = 0; t < kFidelityTiers; ++t)
      by_tier.set(to_string(static_cast<Fidelity>(t)), s.charges_by_tier[t]);
    stats.set("charges_by_tier", std::move(by_tier));
    stats.set("resumed", s.resumed);
    stats.set("journal_replayed", s.journal_replayed);
    stats.set("journal_dropped_bytes", s.journal_dropped_bytes);
    util::Json sur = util::Json::object();
    sur.set("queries", s.surrogate_queries);
    sur.set("hits", s.surrogate_hits);
    sur.set("promotions", s.surrogate_promotions);
    sur.set("refits", s.surrogate_refits);
    sur.set("disagreements", s.surrogate_disagreements);
    sur.set("budget_units", s.surrogate_budget_units);
    stats.set("surrogate", std::move(sur));
    util::Json shard = util::Json::object();
    shard.set("shards", s.shards_used);
    shard.set("requests", s.shard_requests);
    shard.set("respawns", s.shard_respawns);
    stats.set("shard", std::move(shard));
    util::Json cache = util::Json::object();
    cache.set("hits", s.cache_hits);
    cache.set("appends", s.cache_appends);
    stats.set("cache", std::move(cache));
    util::Json nodal = util::Json::object();
    nodal.set("factorizations", s.nodal.factorizations);
    nodal.set("direct_solves", s.nodal.direct_solves);
    nodal.set("gs_solves", s.nodal.gs_solves);
    nodal.set("update_declines", s.nodal.update_declines);
    stats.set("nodal", std::move(nodal));
    util::Json sched = util::Json::object();
    sched.set("threads", parallel_thread_count());
    sched.set("jobs", s.scheduler.counts.jobs);
    sched.set("inline_jobs", s.scheduler.counts.inline_jobs);
    sched.set("tasks", s.scheduler.counts.tasks);
    sched.set("stolen_tasks", s.scheduler.counts.stolen_tasks);
    sched.set("steal_failures", s.scheduler.counts.steal_failures);
    sched.set("nested_cooperative", s.scheduler.counts.nested_cooperative);
    sched.set("nested_inlined", s.scheduler.counts.nested_inlined);
    util::Json busy = util::Json::object();
    for (std::size_t t = 0; t < kFidelityTiers; ++t)
      busy.set(to_string(static_cast<Fidelity>(t)), s.scheduler.tier_busy_s[t]);
    sched.set("tier_busy_s", std::move(busy));
    stats.set("scheduler", std::move(sched));
    doc.set("stats", std::move(stats));
  }
  return doc;
}

std::string result_to_csv(const ExplorationResult& result) {
  std::unordered_set<std::size_t> on_front(result.front.begin(), result.front.end());
  std::vector<std::size_t> rank_of(result.evaluated.size(), 0);  // 0 = unranked
  for (std::size_t r = 0; r < result.ranking.size(); ++r)
    rank_of[result.ranking[r]] = r + 1;

  std::string csv = "device,arch,algo,tier,feasible,latency_s,energy_j,area_mm2,accuracy,on_front,rank\n";
  for (std::size_t i = 0; i < result.evaluated.size(); ++i) {
    const core::ScoredPoint& sp = result.evaluated[i];
    csv += device::to_string(sp.point.device) + ',' + core::to_string(sp.point.arch) + ',' +
           core::to_string(sp.point.algo) + ',' + to_string(result.tiers[i]) + ',' +
           (sp.fom.feasible ? "1," : "0,") + format_g(sp.fom.latency) + ',' +
           format_g(sp.fom.energy) + ',' + format_g(sp.fom.area_mm2) + ',' +
           format_g(sp.fom.accuracy) + ',' + (on_front.count(i) ? "1," : "0,") +
           std::to_string(rank_of[i]) + '\n';
  }
  return csv;
}

}  // namespace xlds::dse
