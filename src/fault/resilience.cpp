#include "fault/resilience.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "hdc/cam_inference.hpp"
#include "mann/lsh.hpp"
#include "nn/network.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"

namespace xlds::fault {

namespace {

constexpr std::uint64_t kGridStreamTag = 0x5E5111E4CE;
constexpr std::uint64_t kYieldSweepTag = 0x11E1D5EED;

// ---------------------------------------------------------------------------
// Context cache keys: FNV-1a over the fields that determine the artifact.

struct KeyHasher {
  std::uint64_t h = 1469598103934665603ull;

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix(std::uint64_t v) { bytes(&v, sizeof v); }
  void mix(double v) {
    std::uint64_t u;
    std::memcpy(&u, &v, sizeof u);
    mix(u);
  }
};

std::uint64_t hdc_context_key(const ResilienceConfig& cfg, std::size_t seed_index) {
  KeyHasher k;
  k.mix(cfg.base_seed);
  k.mix(static_cast<std::uint64_t>(seed_index));
  const auto& d = cfg.hdc.data;
  k.bytes(d.name.data(), d.name.size());
  k.mix(static_cast<std::uint64_t>(d.n_classes));
  k.mix(static_cast<std::uint64_t>(d.dim));
  k.mix(static_cast<std::uint64_t>(d.train_per_class));
  k.mix(static_cast<std::uint64_t>(d.test_per_class));
  k.mix(d.separation);
  k.mix(d.within_sigma);
  const auto& m = cfg.hdc.model;
  k.mix(static_cast<std::uint64_t>(m.hv_dim));
  k.mix(static_cast<std::uint64_t>(m.element_bits));
  k.mix(static_cast<std::uint64_t>(m.retrain_epochs));
  k.mix(m.retrain_rate);
  k.mix(static_cast<std::uint64_t>(m.similarity));
  k.mix(static_cast<std::uint64_t>(m.encoder));
  k.mix(static_cast<std::uint64_t>(m.id_level_quant));
  k.mix(static_cast<std::uint64_t>(cfg.hdc.max_test_samples));
  return k.h;
}

std::uint64_t mann_context_key(const ResilienceConfig& cfg, std::size_t seed_index) {
  KeyHasher k;
  k.mix(cfg.base_seed + 0xA5A5);
  k.mix(static_cast<std::uint64_t>(seed_index));
  const auto& f = cfg.mann.fewshot;
  k.mix(static_cast<std::uint64_t>(f.image_side));
  k.mix(static_cast<std::uint64_t>(f.n_classes));
  k.mix(f.pixel_noise);
  k.mix(static_cast<std::uint64_t>(f.max_shift));
  k.mix(static_cast<std::uint64_t>(f.prototype_waves));
  const auto& m = cfg.mann;
  k.mix(static_cast<std::uint64_t>(m.embedding));
  k.mix(static_cast<std::uint64_t>(m.episodes));
  k.mix(static_cast<std::uint64_t>(m.n_way));
  k.mix(static_cast<std::uint64_t>(m.k_shot));
  k.mix(static_cast<std::uint64_t>(m.queries_per_class));
  k.mix(static_cast<std::uint64_t>(m.pretrain_classes));
  k.mix(static_cast<std::uint64_t>(m.pretrain_per_class));
  k.mix(static_cast<std::uint64_t>(m.pretrain_epochs));
  k.mix(m.pretrain_lr);
  return k.h;
}

// ---------------------------------------------------------------------------
// Seed-level contexts.

struct HdcContext {
  explicit HdcContext(hdc::HdcModel m) : model(std::move(m)) {}
  hdc::HdcModel model;
  std::vector<std::vector<double>> test_x;
  std::vector<std::size_t> test_y;
};

struct EpisodeFeatures {
  std::vector<std::vector<double>> support_fv;
  std::vector<std::size_t> support_y;
  std::vector<std::vector<double>> query_fv;
  std::vector<std::size_t> query_y;
};

struct MannContext {
  std::vector<EpisodeFeatures> episodes;
};

// Memo caches (see core/evaluate.cpp for the idiom): pure functions of their
// key, mutex guards only the map, work happens outside the lock.
std::mutex g_hdc_cache_mutex;
std::unordered_map<std::uint64_t, std::shared_ptr<const HdcContext>> g_hdc_cache;
std::mutex g_mann_cache_mutex;
std::unordered_map<std::uint64_t, std::shared_ptr<const MannContext>> g_mann_cache;
std::atomic<std::size_t> g_ctx_lookups{0};
std::atomic<std::size_t> g_ctx_hits{0};

std::shared_ptr<const HdcContext> build_hdc_context(const ResilienceConfig& cfg,
                                                    std::size_t seed_index) {
  const std::uint64_t seed =
      cfg.base_seed + 0x9E3779B97F4A7C15ull * (static_cast<std::uint64_t>(seed_index) + 1);
  const workload::Dataset ds = workload::make_gaussian_clusters(cfg.hdc.data, seed);
  Rng rng(seed ^ 0x8DC);
  hdc::HdcModel model(cfg.hdc.model, ds.dim, ds.n_classes, rng);
  model.train(ds.train_x, ds.train_y);
  auto ctx = std::make_shared<HdcContext>(std::move(model));
  const std::size_t n = std::min(cfg.hdc.max_test_samples, ds.test_x.size());
  XLDS_REQUIRE_MSG(n > 0, "HDC resilience context has no test samples");
  ctx->test_x.assign(ds.test_x.begin(), ds.test_x.begin() + static_cast<std::ptrdiff_t>(n));
  ctx->test_y.assign(ds.test_y.begin(), ds.test_y.begin() + static_cast<std::ptrdiff_t>(n));
  return ctx;
}

std::vector<double> l2_normalised_embedding(nn::Network& cnn, const std::vector<double>& image) {
  std::vector<double> fv = cnn.forward_until(image, 1);
  double norm = 0.0;
  for (double v : fv) norm += v * v;
  norm = std::sqrt(norm);
  if (norm > 0.0)
    for (double& v : fv) v /= norm;
  return fv;
}

std::shared_ptr<const MannContext> build_mann_context(const ResilienceConfig& cfg,
                                                      std::size_t seed_index) {
  const auto& m = cfg.mann;
  const std::uint64_t seed =
      cfg.base_seed + 0xC0FFEEull + 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(seed_index);
  Rng rng(seed);
  nn::Network cnn =
      nn::make_small_cnn(m.fewshot.image_side, /*classes=*/16, m.embedding, rng);
  workload::FewShotGenerator gen(m.fewshot, seed ^ 0xFE37);
  std::vector<std::vector<double>> xs;
  std::vector<std::size_t> ys;
  gen.sample_flat(m.pretrain_classes, m.pretrain_per_class, xs, ys);
  for (std::size_t e = 0; e < m.pretrain_epochs; ++e)
    cnn.train_epoch(xs, ys, m.pretrain_lr, rng);

  auto ctx = std::make_shared<MannContext>();
  ctx->episodes.reserve(m.episodes);
  for (std::size_t e = 0; e < m.episodes; ++e) {
    const workload::Episode ep = gen.sample_episode(m.n_way, m.k_shot, m.queries_per_class);
    EpisodeFeatures ef;
    ef.support_y = ep.support_y;
    ef.query_y = ep.query_y;
    ef.support_fv.reserve(ep.support_x.size());
    for (const auto& x : ep.support_x) ef.support_fv.push_back(l2_normalised_embedding(cnn, x));
    ef.query_fv.reserve(ep.query_x.size());
    for (const auto& x : ep.query_x) ef.query_fv.push_back(l2_normalised_embedding(cnn, x));
    ctx->episodes.push_back(std::move(ef));
  }
  return ctx;
}

template <typename Context, typename Build>
std::shared_ptr<const Context> cached_context(
    std::mutex& mutex, std::unordered_map<std::uint64_t, std::shared_ptr<const Context>>& cache,
    std::uint64_t key, Build&& build) {
  g_ctx_lookups.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lk(mutex);
    const auto it = cache.find(key);
    if (it != cache.end()) {
      g_ctx_hits.fetch_add(1, std::memory_order_relaxed);
      return it->second;
    }
  }
  std::shared_ptr<const Context> ctx = build();
  std::lock_guard<std::mutex> lk(mutex);
  return cache.emplace(key, std::move(ctx)).first->second;
}

// ---------------------------------------------------------------------------
// Per-point evaluation.

std::size_t majority_best_row(const cam::RramTcamArray& am, const mann::Signature& query,
                              std::size_t votes) {
  if (votes <= 1) return am.search(query).best_row;
  std::vector<std::size_t> tally(am.rows(), 0);
  for (std::size_t v = 0; v < votes; ++v) ++tally[am.search(query).best_row];
  std::size_t best = 0;
  for (std::size_t r = 1; r < tally.size(); ++r)
    if (tally[r] > tally[best]) best = r;
  return best;
}

struct HdcPointResult {
  double accuracy = 0.0;
  double residual_fraction = 0.0;  ///< residual faulty cells / logical cells
};

HdcPointResult evaluate_hdc_point(const HdcContext& ctx, const ResilienceConfig& cfg,
                                  double rate, double time_s, Rng& rng) {
  hdc::CamInferenceConfig cic;
  cic.subarray = cfg.hdc.subarray;
  hdc::HdcCamInference infer(ctx.model, cic, rng);
  FaultInjectionStats stats;
  if (rate > 0.0) stats = infer.inject_faults(cfg.mechanism_mix.scaled(rate), cfg.policies, rng);
  if (time_s > 0.0) infer.age(time_s);
  HdcPointResult out;
  out.accuracy = infer.accuracy(ctx.test_x, ctx.test_y, cfg.policies.requery_votes);
  const double logical_cells = static_cast<double>(infer.segments() * ctx.model.n_classes() *
                                                   cfg.hdc.subarray.cols);
  out.residual_fraction = static_cast<double>(stats.residual_cells) / logical_cells;
  return out;
}

double evaluate_mann_point(const MannContext& ctx, const ResilienceConfig& cfg, double rate,
                           double time_s, Rng& rng) {
  const auto& m = cfg.mann;
  const FaultSpec spec = cfg.mechanism_mix.scaled(rate);
  const auto k_dc = static_cast<std::size_t>(m.dont_care_fraction *
                                             static_cast<double>(m.signature_bits));
  double acc_sum = 0.0;
  for (const EpisodeFeatures& ep : ctx.episodes) {
    // Fresh devices per episode, mirroring the MANN pipeline: redraw the
    // stochastic projection, apply this point's defects, re-calibrate.
    xbar::CrossbarConfig xc = m.hash_xbar;
    xc.rows = m.embedding;
    xc.cols = 2 * m.signature_bits;
    mann::CrossbarLsh lsh(xc, m.signature_bits, rng);
    lsh.crossbar().program_stochastic_hrs();
    if (rate > 0.0) {
      const RemapOutcome out = remapped_fault_map(xc.rows, xc.cols, spec, cfg.policies, rng);
      lsh.crossbar().apply_fault_map(out.residual);
    }
    lsh.calibrate_centering();

    std::vector<mann::Signature> stored(ep.support_fv.size());
    for (std::size_t s = 0; s < stored.size(); ++s)
      stored[s] = lsh.hash_ternary_fixed(ep.support_fv[s], k_dc);

    cam::RramTcamConfig ac = m.am;
    ac.cols = m.signature_bits;
    ac.rows = stored.size();
    cam::RramTcamArray am(ac, rng);
    if (rate > 0.0) {
      const RemapOutcome out = remapped_fault_map(ac.rows, ac.cols, spec, cfg.policies, rng);
      am.apply_fault_map(out.residual);
    }
    for (std::size_t s = 0; s < stored.size(); ++s) am.write_word(s, stored[s]);
    if (time_s > 0.0) {
      am.age(time_s);
      lsh.age(time_s);
    }

    std::size_t correct = 0;
    for (std::size_t q = 0; q < ep.query_fv.size(); ++q) {
      const mann::Signature qs = lsh.hash(ep.query_fv[q]);
      const std::size_t best = majority_best_row(am, qs, cfg.policies.requery_votes);
      if (ep.support_y[best] == ep.query_y[q]) ++correct;
    }
    acc_sum += static_cast<double>(correct) / static_cast<double>(ep.query_fv.size());
  }
  return acc_sum / static_cast<double>(ctx.episodes.size());
}

}  // namespace

ResilienceEvaluator::ResilienceEvaluator(ResilienceConfig config) : config_(std::move(config)) {
  XLDS_REQUIRE(!config_.fault_rates.empty());
  XLDS_REQUIRE(!config_.time_points_s.empty());
  XLDS_REQUIRE(config_.seeds >= 1);
  for (double r : config_.fault_rates) XLDS_REQUIRE(r >= 0.0 && r <= 1.0);
  for (double t : config_.time_points_s) XLDS_REQUIRE(t >= 0.0);
  XLDS_REQUIRE(config_.mann.episodes >= 1);
  XLDS_REQUIRE(config_.mann.dont_care_fraction >= 0.0 &&
               config_.mann.dont_care_fraction < 1.0);
  XLDS_REQUIRE_MSG(config_.policies.requery_votes >= 1 &&
                       config_.policies.requery_votes % 2 == 1,
                   "requery_votes must be odd");
}

ResilienceReport ResilienceEvaluator::run() const {
  const std::size_t n_rates = config_.fault_rates.size();
  const std::size_t n_times = config_.time_points_s.size();
  const std::size_t n_seeds = config_.seeds;
  const std::size_t n_points = n_rates * n_times * n_seeds;
  // Grid point i is (rate, time, seed) in rate-major order, seed fastest.
  const auto rate_of = [&](std::size_t i) {
    return config_.fault_rates[i / (n_seeds * n_times)];
  };
  const auto time_of = [&](std::size_t i) {
    return config_.time_points_s[(i / n_seeds) % n_times];
  };

  // One stream per point, forked in point order: the streams
  // parallel_for_rng hands out with chunk 1.  A point's HDC half draws first
  // and its MANN half continues from the state the HDC half left, so running
  // the halves in two stages changes no draw.
  Rng grid_rng(config_.base_seed ^ kGridStreamTag);
  std::vector<Rng> point_rng;
  point_rng.reserve(n_points);
  for (std::size_t i = 0; i < n_points; ++i) point_rng.push_back(grid_rng.fork(i));

  std::vector<std::shared_ptr<const HdcContext>> hdc_ctx(n_seeds);
  std::vector<std::shared_ptr<const MannContext>> mann_ctx(n_seeds);
  std::vector<double> hdc_acc(n_points, 0.0);
  std::vector<double> mann_acc(n_points, 0.0);
  std::vector<double> residual(n_points, 0.0);
  std::vector<char> hdc_done(n_points, 0);
  std::exception_ptr mann_build_error, hdc_build_error, hdc_half_error;

  // Two branches side by side; chunk 1, so each body's `begin` is its index.
  // Branch 0 is the longest chain, CNN pretraining, so this lane starts it
  // first: the MANN contexts, one task per seed.  Branch 1 builds the HDC
  // contexts, then runs every point's HDC half, which needs only those.
  // Each branch keeps its failure, so they are ordered as the serial loop
  // would order them below, not by which branch is unit 0.
  parallel_for(2, 1, [&](std::size_t branch, std::size_t, std::size_t) {
    if (branch == 0) {
      try {
        parallel_for(n_seeds, 1, [&](std::size_t s, std::size_t, std::size_t) {
          mann_ctx[s] = cached_context<MannContext>(
              g_mann_cache_mutex, g_mann_cache, mann_context_key(config_, s),
              [&] { return build_mann_context(config_, s); });
        });
      } catch (...) {
        mann_build_error = std::current_exception();
      }
      return;
    }
    try {
      for (std::size_t s = 0; s < n_seeds; ++s)
        hdc_ctx[s] = cached_context<HdcContext>(
            g_hdc_cache_mutex, g_hdc_cache, hdc_context_key(config_, s),
            [&] { return build_hdc_context(config_, s); });
    } catch (...) {
      hdc_build_error = std::current_exception();
      return;
    }
    try {
      parallel_for(n_points, 1, [&](std::size_t i, std::size_t, std::size_t) {
        const HdcPointResult r = evaluate_hdc_point(*hdc_ctx[i % n_seeds], config_, rate_of(i),
                                                    time_of(i), point_rng[i]);
        hdc_acc[i] = r.accuracy;
        residual[i] = r.residual_fraction;
        hdc_done[i] = 1;
      });
    } catch (...) {
      hdc_half_error = std::current_exception();
    }
  });

  // The serial loop built hdc[0], mann[0], hdc[1], ... and threw the first
  // failure.  Each branch stops at its lowest failing seed (the MANN seeds by
  // parallel_for's lowest-index rule), so the first seed still missing a
  // context is where that branch failed; a tie goes to HDC.
  if (hdc_build_error || mann_build_error) {
    const auto first_missing = [](const auto& ctx) {
      return std::find(ctx.begin(), ctx.end(), nullptr) - ctx.begin();
    };
    std::rethrow_exception(first_missing(hdc_ctx) <= first_missing(mann_ctx) ? hdc_build_error
                                                                           : mann_build_error);
  }

  // The MANN halves.  The serial loop stopped at the first failing HDC half
  // (again the lowest index), so only the points before it run here, and a
  // MANN failure among them is thrown first.
  const std::size_t n_mann = static_cast<std::size_t>(
      std::find(hdc_done.begin(), hdc_done.end(), 0) - hdc_done.begin());
  parallel_for(n_mann, 1, [&](std::size_t i, std::size_t, std::size_t) {
    mann_acc[i] = evaluate_mann_point(*mann_ctx[i % n_seeds], config_, rate_of(i), time_of(i),
                                      point_rng[i]);
  });
  if (hdc_half_error) std::rethrow_exception(hdc_half_error);

  ResilienceReport report;
  report.points.reserve(n_rates * n_times);
  const double inv_seeds = 1.0 / static_cast<double>(n_seeds);
  for (std::size_t ri = 0; ri < n_rates; ++ri) {
    for (std::size_t ti = 0; ti < n_times; ++ti) {
      ResiliencePoint p;
      p.fault_rate = config_.fault_rates[ri];
      p.time_s = config_.time_points_s[ti];
      for (std::size_t si = 0; si < n_seeds; ++si) {
        const std::size_t i = (ri * n_times + ti) * n_seeds + si;
        p.hdc_accuracy += hdc_acc[i] * inv_seeds;
        p.mann_accuracy += mann_acc[i] * inv_seeds;
        p.residual_fraction += residual[i] * inv_seeds;
      }
      report.points.push_back(p);
    }
  }

  // Yield sweep: one serial fork per rate (estimate_yield parallelises
  // internally with its own deterministic chunked streams).
  Rng yield_rng(config_.base_seed ^ kYieldSweepTag);
  report.yield.reserve(n_rates);
  for (std::size_t ri = 0; ri < n_rates; ++ri) {
    Rng rate_rng = yield_rng.fork(ri + 1);
    report.yield.push_back(estimate_yield(
        config_.hdc.subarray.rows, config_.hdc.subarray.cols,
        config_.mechanism_mix.scaled(config_.fault_rates[ri]), config_.policies,
        config_.yield_max_residual_fraction, config_.yield_trials, rate_rng));
  }

  report.cost =
      policy_cost(config_.policies, config_.hdc.subarray.rows, config_.hdc.subarray.cols);
  return report;
}

ResilienceConfig dse_probe_config(double fault_rate, double age_s, std::uint64_t seed) {
  XLDS_REQUIRE(fault_rate >= 0.0 && fault_rate <= 1.0 && age_s >= 0.0);
  ResilienceConfig cfg;
  cfg.fault_rates = {0.0, fault_rate};
  cfg.time_points_s = {0.0, age_s};
  cfg.seeds = 1;
  cfg.base_seed = seed;
  // Shrink the per-point work below the sweep defaults: the ladder runs one
  // probe per shortlisted point, not one sweep per figure.
  cfg.hdc.max_test_samples = 32;
  cfg.mann.episodes = 1;
  cfg.yield_trials = 1;  // estimate_yield requires >= 1; the ladder ignores yield
  return cfg;
}

ResilienceCacheStats resilience_cache_stats() {
  ResilienceCacheStats stats;
  stats.lookups = g_ctx_lookups.load(std::memory_order_relaxed);
  stats.hits = g_ctx_hits.load(std::memory_order_relaxed);
  return stats;
}

void clear_resilience_caches() {
  {
    std::lock_guard<std::mutex> lk(g_hdc_cache_mutex);
    g_hdc_cache.clear();
  }
  {
    std::lock_guard<std::mutex> lk(g_mann_cache_mutex);
    g_mann_cache.clear();
  }
  g_ctx_lookups.store(0, std::memory_order_relaxed);
  g_ctx_hits.store(0, std::memory_order_relaxed);
}

}  // namespace xlds::fault
