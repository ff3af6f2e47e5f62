#include "dse/engine.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "dse/journal.hpp"
#include "shard/result_cache.hpp"
#include "shard/shard_pool.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/parallel.hpp"

namespace xlds::dse {

namespace {

/// Composite memo key for a (point index, tier) pair.
std::uint64_t pair_key(std::size_t index, Fidelity tier) {
  return static_cast<std::uint64_t>(index) * kFidelityTiers +
         static_cast<std::uint64_t>(tier);
}

/// Worst-objective relative error between a real FOM and its prediction —
/// the model-disagreement scalar.  A feasibility flip is maximal error.
double prediction_error(const core::Fom& real, const core::Fom& predicted) {
  if (real.feasible != predicted.feasible) return 1.0;
  constexpr double kTiny = 1e-12;
  const auto rel = [](double a, double b) {
    return std::fabs(a - b) / (std::fabs(a) + kTiny);
  };
  double err = rel(real.latency, predicted.latency);
  err = std::max(err, rel(real.energy, predicted.energy));
  err = std::max(err, rel(real.area_mm2, predicted.area_mm2));
  err = std::max(err, rel(real.accuracy, predicted.accuracy));
  return err;
}

class Backend final : public EvaluationBackend {
 public:
  Backend(const SearchSpace& space, const FidelityLadder& ladder, std::size_t budget,
          const surrogate::SurrogateConfig& surrogate_config, Journal* journal,
          std::size_t abort_after_computed, const shard::ShardConfig* shard_config,
          shard::ResultCache* cache, std::uint64_t cache_space_hash)
      : space_(space),
        ladder_(ladder),
        budget_(budget),
        model_(surrogate_config),
        journal_(journal),
        abort_after_computed_(abort_after_computed),
        shard_config_(shard_config),
        cache_(cache),
        cache_space_hash_(cache_space_hash) {
    if (journal_ != nullptr)
      for (const Journal::Record& r : journal_->records()) {
        XLDS_REQUIRE_MSG(r.fidelity < kFidelityTiers && r.key < space_.size(),
                         "journal record out of range for this space");
        memo_[pair_key(r.key, static_cast<Fidelity>(r.fidelity))] = r.fom;
        if (r.fidelity == static_cast<std::uint32_t>(Fidelity::kSurrogate))
          uncertainty_[r.key] = r.uncertainty;
        // The model is deliberately NOT pre-fed here: training samples are
        // added when the replayed trajectory re-charges each pair, so the
        // history (and every refit position) is bit-identical to the run
        // that wrote the journal.
      }
  }

  const SearchSpace& space() const override { return space_; }
  Fidelity max_fidelity() const override { return ladder_.config().max_fidelity; }
  std::size_t remaining_budget() const override {
    // Queries cost ceil(queries/qpc) charges: a fraction of a charge already
    // consumed is a charge the ladder can no longer spend, which keeps
    // charges + queries/qpc <= budget a hard invariant (tested) rather than
    // a rounding accident.
    const std::size_t qpc = model_.config().queries_per_charge;
    const std::size_t query_charges = (stats_.surrogate_queries + qpc - 1) / qpc;
    const std::size_t spent = stats_.charges + query_charges;
    return spent < budget_ ? budget_ - spent : 0;
  }

  SurrogateStatus surrogate_status() const override {
    SurrogateStatus s;
    s.enabled = model_.config().enabled;
    // "Ready" means a query would be served: either a forest is standing, or
    // enough history has accrued that the batch-entry refit will build one.
    s.ready = model_.ready() || model_.refit_due();
    s.promote_uncertainty = model_.config().promote_uncertainty;
    return s;
  }

  std::size_t surrogate_capacity() const override {
    if (!model_.config().enabled) return 0;
    const std::size_t qpc = model_.config().queries_per_charge;
    const std::size_t ceiling = (budget_ - stats_.charges) * qpc;
    return ceiling > stats_.surrogate_queries ? ceiling - stats_.surrogate_queries : 0;
  }

  bool requested(std::size_t index, Fidelity tier) const override {
    return charged_.count(pair_key(index, tier)) != 0;
  }

  std::vector<Evaluation> evaluate(const std::vector<std::size_t>& indices,
                                   Fidelity tier) override {
    if (tier == Fidelity::kSurrogate) return evaluate_surrogate(indices);

    // Pass 1: the budget ledger.  Charge pairs new to this run; pick out the
    // ones the memo (journal) cannot serve for computation.
    std::vector<std::size_t> to_compute;
    std::vector<std::size_t> charged_now;
    for (const std::size_t i : indices) {
      XLDS_REQUIRE(i < space_.size());
      if (space_.culled(i)) {
        ++stats_.culled_requests;
        continue;
      }
      const std::uint64_t key = pair_key(i, tier);
      if (charged_.count(key)) {
        ++stats_.repeat_requests;
        continue;
      }
      XLDS_REQUIRE_MSG(remaining_budget() > 0, "driver requested past its budget");
      ++stats_.charges;
      ++stats_.charges_by_tier[static_cast<std::size_t>(tier)];
      charged_.insert(key);
      charge_order_.emplace_back(i, tier);
      charged_now.push_back(i);
      if (real_points_.insert(i).second &&
          charged_.count(pair_key(i, Fidelity::kSurrogate)))
        ++stats_.surrogate_promotions;
      if (memo_.count(key))
        ++stats_.journal_hits;
      else
        to_compute.push_back(i);
    }

    // Pass 2: serve the misses.  Three sources, cheapest first — the
    // persistent cross-run cache, then the shard pool (or the in-process
    // thread pool) for whatever remains.  The FOM of a (point, tier) pair is
    // a pure function of the job and cached values are stored bit-exactly,
    // so neither the cache state nor the shard layout can change values,
    // only wall clock.  The job's first dispatch is preceded by
    // FidelityLadder::prime, which builds the shared rung memos (MC probe,
    // per-device nodal tiles) once at full pool width, and only then is the
    // shard pool forked, so its workers inherit those memos.  Dispatch is
    // longest-processing-time-first by the ladder's charge estimate, so the
    // heavy points enter the scheduler ahead of the cheap tail and idle
    // lanes (or shards) take the tail behind them.  Results land in
    // original-order slots and the memo/journal loop below walks
    // `to_compute` order, so every journal byte is placement-, shard- and
    // cache-invariant.
    if (!to_compute.empty()) {
      std::vector<std::size_t> order(to_compute.size());
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ladder_.cost_estimate(space_.at(to_compute[a]), tier) >
               ladder_.cost_estimate(space_.at(to_compute[b]), tier);
      });
      std::vector<core::Fom> foms(to_compute.size());
      std::vector<char> from_cache(to_compute.size(), 0);
      std::vector<std::size_t> pending;  // positions into to_compute, LPT order
      pending.reserve(order.size());
      if (cache_ != nullptr) {
        for (const std::size_t j : order) {
          const core::Fom* hit = cache_->find(
              cache_space_hash_, shard::cache_point_hash(space_.at(to_compute[j])),
              static_cast<std::uint32_t>(tier));
          if (hit != nullptr) {
            foms[j] = *hit;
            from_cache[j] = 1;
          } else {
            pending.push_back(j);
          }
        }
      } else {
        pending = order;
      }
      if (!pending.empty() && !primed_) {
        primed_ = true;
        ladder_.prime(space_);
        if (shard_config_ != nullptr) pool_.emplace(*shard_config_);
      }
      if (!pending.empty() && pool_) {
        std::vector<shard::BatchItem> items;
        items.reserve(pending.size());
        for (const std::size_t j : pending)
          items.push_back({to_compute[j], space_.at(to_compute[j])});
        shard::BatchResult batch = pool_->evaluate(items, static_cast<std::uint32_t>(tier));
        for (std::size_t k = 0; k < pending.size(); ++k)
          foms[pending[k]] = std::move(batch.foms[k]);
        busy_ns_[static_cast<std::size_t>(tier)].fetch_add(batch.busy_ns,
                                                           std::memory_order_relaxed);
        // Credit the parent's per-run profiler deltas with the work the
        // workers reported, so diagnostics keep meaning "done for this run".
        core::Profiler::add_nodal(batch.nodal);
        core::Profiler::add_sched(batch.sched);
      } else if (!pending.empty()) {
        parallel_for(pending.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
          for (std::size_t k = begin; k < end; ++k) {
            const std::size_t j = pending[k];
            const auto t0 = std::chrono::steady_clock::now();
            foms[j] = ladder_.evaluate(space_.at(to_compute[j]), tier);
            busy_ns_[static_cast<std::size_t>(tier)].fetch_add(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count(),
                std::memory_order_relaxed);
          }
        });
      }
      for (std::size_t j = 0; j < to_compute.size(); ++j) {
        memo_[pair_key(to_compute[j], tier)] = foms[j];
        if (journal_ != nullptr)
          journal_->append({to_compute[j], static_cast<std::uint32_t>(tier), foms[j], 0.0});
        if (from_cache[j]) {
          ++stats_.cache_hits;
        } else {
          ++stats_.computed;
          if (cache_ != nullptr) {
            cache_->insert(cache_space_hash_,
                           shard::cache_point_hash(space_.at(to_compute[j])),
                           static_cast<std::uint32_t>(tier), foms[j]);
            ++stats_.cache_appends;
          }
        }
        // Crash simulation: bail after the Nth durable append, exactly as a
        // kill would — later results in this batch are lost.
        if (abort_after_computed_ != 0 &&
            stats_.computed + stats_.cache_hits >= abort_after_computed_)
          throw AbortInjected("injected abort after " +
                              std::to_string(stats_.computed + stats_.cache_hits) +
                              " computed evaluations");
      }
    }

    // Feed the model every pair charged this call — journal hits included,
    // and in charge order, so the training history a resumed run accumulates
    // is the byte-for-byte sequence of the run that died.
    for (const std::size_t i : charged_now) {
      const core::Fom& fom = memo_.at(pair_key(i, tier));
      model_.add(space_.at(i), static_cast<std::uint32_t>(tier), fom);
      if (tier == Fidelity::kAnalytic) {
        const auto it = memo_.find(pair_key(i, Fidelity::kSurrogate));
        if (it != memo_.end() && charged_.count(pair_key(i, Fidelity::kSurrogate)) &&
            prediction_error(fom, it->second) > model_.config().disagree_rel) {
          ++stats_.surrogate_disagreements;
          model_.force_refit();
        }
      }
    }

    // Pass 3: results in input order.
    std::vector<Evaluation> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices) {
      Evaluation e{i, tier, {}, 0.0};
      if (space_.culled(i)) {
        e.fom.feasible = false;
        e.fom.accuracy = 0.0;
        e.fom.note = "culled: " + *core::incompatibility(space_.at(i));
      } else {
        e.fom = memo_.at(pair_key(i, tier));
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  const ExplorationStats& stats() const { return stats_; }
  const std::vector<std::pair<std::size_t, Fidelity>>& charge_order() const {
    return charge_order_;
  }
  const core::Fom& fom(std::size_t index, Fidelity tier) const {
    return memo_.at(pair_key(index, tier));
  }
  const surrogate::SurrogateModel& model() const { return model_; }
  /// The shard pool, or nullptr when the job is in-process or never
  /// dispatched a computation.
  const shard::ShardPool* pool() const { return pool_ ? &*pool_ : nullptr; }
  std::array<double, kFidelityTiers> tier_busy_seconds() const {
    std::array<double, kFidelityTiers> s{};
    for (std::size_t t = 0; t < kFidelityTiers; ++t)
      s[t] = static_cast<double>(busy_ns_[t].load(std::memory_order_relaxed)) * 1e-9;
    return s;
  }

 private:
  /// The learned rung.  Mirrors the physics path — charge / serve from memo
  /// or compute / journal / return in input order — with the model standing
  /// in for the ladder and queries charged against the exchange-rate ledger.
  std::vector<Evaluation> evaluate_surrogate(const std::vector<std::size_t>& indices) {
    XLDS_REQUIRE_MSG(model_.config().enabled,
                     "driver requested the surrogate tier on a job with surrogate off");
    // Refit at batch entry, cadence- or disagreement-driven.  This runs at
    // the same trajectory positions with the same history on every rerun —
    // including replays — so the forest is bit-identical everywhere.
    if (model_.refit_if_due()) ++stats_.surrogate_refits;

    // Charge pass (serial, input order): ledger bookkeeping plus the list of
    // queries the memo cannot serve.
    std::vector<std::size_t> to_predict;
    for (const std::size_t i : indices) {
      XLDS_REQUIRE(i < space_.size());
      if (space_.culled(i)) {
        ++stats_.culled_requests;
        continue;
      }
      const std::uint64_t key = pair_key(i, Fidelity::kSurrogate);
      if (charged_.count(key)) {
        ++stats_.repeat_requests;
        continue;
      }
      XLDS_REQUIRE_MSG(surrogate_capacity() > 0,
                       "driver requested past its surrogate query capacity");
      ++stats_.surrogate_queries;
      ++stats_.charges_by_tier[static_cast<std::size_t>(Fidelity::kSurrogate)];
      charged_.insert(key);
      charge_order_.emplace_back(i, Fidelity::kSurrogate);
      if (memo_.count(key)) {
        ++stats_.journal_hits;
        continue;  // replayed prediction: value and uncertainty from ctor
      }
      to_predict.push_back(i);
    }

    // Predict pass, sharded on the pool: the forest is immutable between
    // refits, so concurrent predict() calls are pure reads — the screen no
    // longer runs as a serial barrier phase but as one more parallel batch
    // whose tasks interleave (via the shared deques) with any in-flight
    // evaluation work.  Memo/journal writes below keep charge order, so the
    // journal bytes are identical to the old serial screen's.
    if (!to_predict.empty()) {
      XLDS_REQUIRE_MSG(model_.ready(), "surrogate query before the model's first fit");
      const std::vector<surrogate::SurrogatePrediction> preds =
          parallel_map<surrogate::SurrogatePrediction>(
              to_predict.size(), [&](std::size_t j) {
                const auto t0 = std::chrono::steady_clock::now();
                const surrogate::SurrogatePrediction p = model_.predict(
                    space_.at(to_predict[j]), static_cast<std::uint32_t>(Fidelity::kAnalytic));
                busy_ns_[static_cast<std::size_t>(Fidelity::kSurrogate)].fetch_add(
                    std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count(),
                    std::memory_order_relaxed);
                return p;
              });
      for (std::size_t j = 0; j < to_predict.size(); ++j) {
        const std::size_t i = to_predict[j];
        memo_[pair_key(i, Fidelity::kSurrogate)] = preds[j].fom;
        uncertainty_[i] = preds[j].rel_std;
        if (journal_ != nullptr)
          journal_->append({i, static_cast<std::uint32_t>(Fidelity::kSurrogate),
                            preds[j].fom, preds[j].rel_std});
        ++stats_.computed;
        if (abort_after_computed_ != 0 &&
            stats_.computed + stats_.cache_hits >= abort_after_computed_)
          throw AbortInjected("injected abort after " +
                              std::to_string(stats_.computed + stats_.cache_hits) +
                              " computed evaluations");
      }
    }

    std::vector<Evaluation> out;
    out.reserve(indices.size());
    for (const std::size_t i : indices) {
      Evaluation e{i, Fidelity::kSurrogate, {}, 0.0};
      if (space_.culled(i)) {
        e.fom.feasible = false;
        e.fom.accuracy = 0.0;
        e.fom.note = "culled: " + *core::incompatibility(space_.at(i));
      } else {
        e.fom = memo_.at(pair_key(i, Fidelity::kSurrogate));
        e.uncertainty = uncertainty_.at(i);
      }
      out.push_back(std::move(e));
    }
    return out;
  }

  const SearchSpace& space_;
  const FidelityLadder& ladder_;
  std::size_t budget_;
  surrogate::SurrogateModel model_;
  Journal* journal_;
  std::size_t abort_after_computed_;
  std::unordered_set<std::uint64_t> charged_;
  std::unordered_set<std::size_t> real_points_;
  std::vector<std::pair<std::size_t, Fidelity>> charge_order_;
  std::unordered_map<std::uint64_t, core::Fom> memo_;
  std::unordered_map<std::size_t, double> uncertainty_;
  const shard::ShardConfig* shard_config_;  ///< nullptr = in-process
  bool primed_ = false;
  std::optional<shard::ShardPool> pool_;  ///< forked right after priming
  shard::ResultCache* cache_;
  std::uint64_t cache_space_hash_;
  ExplorationStats stats_;
  /// Wall time lanes spent inside ladder/predict calls, per tier (relaxed
  /// accumulation across lanes; diagnostics only).
  std::array<std::atomic<std::uint64_t>, kFidelityTiers> busy_ns_{};
};

}  // namespace

std::uint64_t job_hash(const SearchSpace& space, const FidelityLadder& ladder) {
  return ladder.hash(space.hash());
}

ExplorationResult explore(const EngineConfig& config) {
  const core::Profiler::NodalCounts nodal_before = core::Profiler::nodal();
  const core::Profiler::SchedCounts sched_before = core::Profiler::sched();
  const SearchSpace space(config.axes, config.application);
  XLDS_REQUIRE_MSG(space.viable_count() > 0, "search space has no viable points");
  const FidelityLadder ladder(config.fidelity, core::profile_for(config.application));
  const std::size_t budget = config.budget != 0 ? config.budget : space.viable_count();

  std::optional<Journal> journal;
  if (!config.journal_path.empty())
    journal.emplace(config.journal_path, job_hash(space, ladder));

  // The persistent cross-run cache.  Its space hash covers everything a FOM
  // value depends on besides the point itself — ladder settings + app
  // profile — but deliberately NOT the job's axis restriction, so a
  // restricted sweep and a full-grid sweep share overlapping entries.
  std::optional<shard::ResultCache> cache;
  std::uint64_t cache_space_hash = 0;
  if (!config.cache_path.empty()) {
    cache.emplace(config.cache_path);
    cache_space_hash = ladder.hash(util::fnv1a64("xlds-cache-v1", 13));
  }

  // The shard pool's config: forked evaluation workers sharing the parent's
  // ladder (and its primed memos) by inheritance.  The backend forks them at
  // the job's first computation, so a job served entirely from its journal
  // or the cache never forks.  shards == 1 means in-process.
  const std::size_t shards = config.shards != 0 ? config.shards : shard::env_shard_count();
  std::optional<shard::ShardConfig> shard_config;
  if (shards > 1) {
    shard::ShardConfig& sc = shard_config.emplace();
    sc.shards = shards;
    sc.job_hash = job_hash(space, ladder);
    sc.application = config.application;
    sc.evaluator = [&ladder](const core::DesignPoint& p, std::uint32_t tier) {
      return ladder.evaluate(p, static_cast<Fidelity>(tier));
    };
    sc.kill_worker_after_results = config.kill_shard_worker_after;
  }

  Backend backend(space, ladder, budget, config.surrogate, journal ? &*journal : nullptr,
                  config.abort_after_computed, shard_config ? &*shard_config : nullptr,
                  cache ? &*cache : nullptr, cache_space_hash);
  const std::unique_ptr<SearchDriver> driver = make_driver(config.strategy, config.driver);
  // The driver stream is forked off the job seed so future engine-level
  // randomness (shard jitter, restarts) can never alias with it.
  Rng rng = Rng(config.seed).fork(0x647365ull);  // "dse"
  driver->run(backend, rng);

  ExplorationResult result;
  result.strategy = config.strategy;
  result.seed = config.seed;
  result.budget = budget;
  result.job_hash = job_hash(space, ladder);

  // Collapse the charge stream: one entry per distinct point, first-charge
  // order, FOM from the highest tier that point reached.  Surrogate-only
  // points are excluded — the result reports physics, not predictions; the
  // surrogate's contribution shows up as coverage per unit budget.
  std::unordered_map<std::size_t, std::size_t> slot_of;
  for (const auto& [index, tier] : backend.charge_order()) {
    if (tier == Fidelity::kSurrogate) continue;
    const auto it = slot_of.find(index);
    if (it == slot_of.end()) {
      slot_of.emplace(index, result.evaluated.size());
      result.evaluated.push_back({space.at(index), backend.fom(index, tier)});
      result.tiers.push_back(tier);
    } else if (tier > result.tiers[it->second]) {
      result.evaluated[it->second].fom = backend.fom(index, tier);
      result.tiers[it->second] = tier;
    }
  }

  result.front = core::pareto_front(result.evaluated);
  result.ranking = core::triage_ranking(result.evaluated, config.weights);
  result.stats = backend.stats();
  result.stats.surrogate_hits =
      result.stats.surrogate_queries - result.stats.surrogate_promotions;
  result.stats.surrogate_budget_units =
      static_cast<double>(result.stats.surrogate_queries) /
      static_cast<double>(config.surrogate.queries_per_charge);
  result.stats.nodal = core::Profiler::nodal() - nodal_before;
  result.stats.scheduler.counts = core::Profiler::sched() - sched_before;
  result.stats.scheduler.tier_busy_s = backend.tier_busy_seconds();
  if (journal) {
    result.stats.resumed = journal->open_info().existed;
    result.stats.journal_replayed = journal->open_info().replayed;
    result.stats.journal_dropped_bytes = journal->open_info().dropped_bytes;
  }
  result.stats.shards_used = shards;
  if (const shard::ShardPool* pool = backend.pool()) {
    result.stats.shard_requests = pool->stats().requests;
    result.stats.shard_respawns = pool->stats().respawns;
  }
  return result;
}

}  // namespace xlds::dse
