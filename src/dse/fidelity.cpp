#include "dse/fidelity.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <future>
#include <map>
#include <mutex>
#include <tuple>

#include "dse/space.hpp"
#include "fault/resilience.hpp"
#include "kernels/sampler.hpp"
#include "nvsim/explorer.hpp"
#include "util/error.hpp"
#include "util/hash.hpp"
#include "util/matrix.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

namespace xlds::dse {

namespace {

bool uses_crossbar(core::ArchKind a) {
  return a == core::ArchKind::kCrossbarAccelerator || a == core::ArchKind::kCamXbarHybrid;
}

bool uses_cam(core::ArchKind a) {
  return a == core::ArchKind::kCamAccelerator || a == core::ArchKind::kCamXbarHybrid;
}

bool is_in_memory(core::ArchKind a) { return uses_crossbar(a) || uses_cam(a); }

std::string percent(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", 100.0 * fraction);
  return buf;
}

// --- nodal tier: IR-drop model error on the canonical 64x64 tile ----------
//
// The analytic triage model costs MVMs with the two-pass IR-drop estimate;
// the nodal rung measures how far that estimate sits from the direct nodal
// solve on a half-loaded tile and charges the gap against accuracy
// (unmodelled IR drop is computation error, not just delay).  One solve per
// device kind, memoised process-wide: the solve is a pure function of the
// device, and a search promotes many points per device.  The first caller
// for a device publishes a future before it solves, so concurrent callers
// wait for that one solve instead of factoring the same tile again.
std::mutex g_ir_cache_mutex;
std::map<int, std::shared_future<double>> g_ir_error_cache;

constexpr std::uint64_t kTileSeed = 0x9e3779b97f4a7c15ull;

double nodal_ir_error_uncached(device::DeviceKind dev) {
  xbar::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  Rng fill(kTileSeed ^ static_cast<std::uint64_t>(dev));
  MatrixD g(cfg.rows, cfg.cols, cfg.rram.g_min);
  // Block Bernoulli draw (same stream consumption as the per-cell loop).
  std::vector<std::uint8_t> on(g.size());
  kernels::fill_bernoulli(fill, on.data(), on.size(), 0.5);
  for (std::size_t i = 0; i < on.size(); ++i)
    if (on[i]) g.data()[i] = cfg.rram.g_max;

  Rng rng_a(1), rng_n(1);
  cfg.ir_drop = xbar::IrDropMode::kAnalytic;
  xbar::Crossbar analytic(cfg, rng_a);
  cfg.ir_drop = xbar::IrDropMode::kNodal;
  xbar::Crossbar nodal(cfg, rng_n);
  analytic.program_conductances(g);
  nodal.program_conductances(g);

  const std::vector<double> ones(cfg.rows, 1.0);
  const std::vector<double> ia = analytic.column_currents(ones);
  const std::vector<double> in = nodal.column_currents(ones);
  double err = 0.0;
  std::size_t n = 0;
  for (std::size_t c = 0; c < ia.size(); ++c) {
    if (in[c] <= 0.0) continue;
    err += std::fabs(ia[c] - in[c]) / in[c];
    ++n;
  }
  return n > 0 ? err / static_cast<double>(n) : 0.0;
}

double nodal_ir_error(device::DeviceKind dev) {
  const int key = static_cast<int>(dev);
  std::unique_lock<std::mutex> lk(g_ir_cache_mutex);
  if (const auto it = g_ir_error_cache.find(key); it != g_ir_error_cache.end()) {
    const std::shared_future<double> published = it->second;
    lk.unlock();
    return published.get();
  }
  std::promise<double> computed;
  g_ir_error_cache.emplace(key, computed.get_future().share());
  lk.unlock();
  // Solved outside the lock: different devices' tiles factor concurrently.
  try {
    const double err = nodal_ir_error_uncached(dev);
    computed.set_value(err);
    return err;
  } catch (...) {
    // Unpublish, so a later call retries; callers already waiting rethrow.
    lk.lock();
    g_ir_error_cache.erase(key);
    lk.unlock();
    computed.set_exception(std::current_exception());
    throw;
  }
}

// --- Monte-Carlo tier: resilience probe, memoised per (rate, age, seed) ---
std::mutex g_probe_mutex;
std::map<std::tuple<double, double, std::uint64_t>, fault::ResilienceReport> g_probe_cache;

const fault::ResilienceReport& probe_report(double rate, double age_s, std::uint64_t seed) {
  std::lock_guard<std::mutex> lk(g_probe_mutex);
  const auto key = std::make_tuple(rate, age_s, seed);
  auto it = g_probe_cache.find(key);
  if (it == g_probe_cache.end()) {
    // Computed under the lock: the probe runs once per ladder config.  Its
    // nested parallel_for now runs *cooperatively* on the shared pool, which
    // is still deadlock-free while we hold the lock: the scheduler's
    // fully-strict helping rule means this thread only ever executes subtasks
    // of the probe job it is waiting on — never a sibling batch unit that
    // could re-enter probe_report() and try to take g_probe_mutex again.
    fault::ResilienceEvaluator probe(fault::dse_probe_config(rate, age_s, seed));
    it = g_probe_cache.emplace(key, probe.run()).first;
  }
  return it->second;
}

}  // namespace

std::string to_string(Fidelity f) {
  switch (f) {
    case Fidelity::kSurrogate: return "surrogate";
    case Fidelity::kAnalytic: return "analytic";
    case Fidelity::kNodal: return "nodal";
    case Fidelity::kMonteCarlo: return "mc";
  }
  return "?";
}

Fidelity fidelity_from_string(const std::string& name) {
  if (name == "surrogate") return Fidelity::kSurrogate;
  if (name == "analytic") return Fidelity::kAnalytic;
  if (name == "nodal") return Fidelity::kNodal;
  if (name == "mc" || name == "monte-carlo") return Fidelity::kMonteCarlo;
  XLDS_REQUIRE_MSG(false,
                   "unknown fidelity '" << name << "' (surrogate | analytic | nodal | mc)");
  return Fidelity::kAnalytic;
}

void clear_fidelity_caches() {
  {
    std::lock_guard<std::mutex> lk(g_ir_cache_mutex);
    g_ir_error_cache.clear();
  }
  std::lock_guard<std::mutex> lk(g_probe_mutex);
  g_probe_cache.clear();
}

FidelityLadder::FidelityLadder(FidelityConfig config, core::AppProfile profile,
                               core::AccuracyOracle oracle)
    : config_(config), profile_(std::move(profile)), evaluator_(std::move(oracle)) {
  XLDS_REQUIRE_MSG(config_.max_fidelity >= Fidelity::kAnalytic,
                   "the ladder's max_fidelity must be a physics tier (>= analytic)");
  XLDS_REQUIRE(config_.variation_sigma_rel >= 0.0);
  XLDS_REQUIRE(config_.mc_fault_rate >= 0.0 && config_.mc_fault_rate <= 1.0);
  XLDS_REQUIRE(config_.mc_age_s >= 0.0);
}

core::Fom FidelityLadder::evaluate(const core::DesignPoint& p, Fidelity tier) const {
  XLDS_REQUIRE_MSG(tier >= Fidelity::kAnalytic,
                   "the surrogate tier is served by the engine's learned model, "
                   "not by the physics ladder");
  XLDS_REQUIRE_MSG(tier <= config_.max_fidelity,
                   "tier " << dse::to_string(tier) << " above the ladder's max_fidelity");
  core::Fom fom = evaluator_.evaluate(p, profile_);
  if (tier >= Fidelity::kNodal) fom = refine_nodal(p, fom);
  if (tier >= Fidelity::kMonteCarlo) fom = refine_monte_carlo(p, fom);
  return fom;
}

core::Fom FidelityLadder::refine_nodal(const core::DesignPoint& p, core::Fom fom) const {
  // Infeasible analytic points stay infeasible (they cannot reach a front);
  // digital platforms have no in-memory physics to re-model.
  if (!fom.feasible || !is_in_memory(p.arch)) return fom;

  if (uses_crossbar(p.arch)) {
    const double err = nodal_ir_error(p.device);
    fom.accuracy *= std::max(0.0, 1.0 - config_.ir_drop_sensitivity * err);
    fom.note += "; nodal IR err " + percent(err) + " %";
  }
  if (uses_cam(p.arch)) {
    const evacam::CamFom var = evacam::evaluate_with_variation(
        core::cam_spec_for_point(p, profile_), config_.variation_sigma_rel);
    if (var.max_ml_columns_with_variation < 16) {
      fom.feasible = false;
      fom.note += "; variation shrinks matchline to " +
                  std::to_string(var.max_ml_columns_with_variation) + " columns";
      return fom;
    }
    if (var.max_ml_columns_with_variation < var.max_ml_columns) {
      // Narrower matchlines mean more segments sensed per search.
      const double bits = 128.0;
      const double seg_nom = std::ceil(bits / static_cast<double>(var.max_ml_columns));
      const double seg_var = std::ceil(bits / static_cast<double>(var.max_ml_columns_with_variation));
      const double scale = seg_var / seg_nom;
      fom.latency *= scale;
      fom.energy *= scale;
      fom.note += "; variation margins x" + percent(scale / 100.0) + " segments";
    }
  }
  return fom;
}

core::Fom FidelityLadder::refine_monte_carlo(const core::DesignPoint& p, core::Fom fom) const {
  if (!fom.feasible || !is_in_memory(p.arch)) return fom;

  const auto& traits = device::traits(p.device);
  // Deployment-horizon program cycles per cell (matches the analytic
  // endurance model's 1e9-inference horizon).
  const double writes = profile_.writes_per_inference * 1e9;

  if (p.algo == core::AlgoKind::kHdc || p.algo == core::AlgoKind::kMann) {
    const fault::ResilienceReport& rep =
        probe_report(config_.mc_fault_rate, config_.mc_age_s, config_.mc_seed);
    const std::size_t n_times = 2;  // probe grid is {0, rate} x {0, age}
    const auto& clean = rep.at(0, 0, n_times);
    const auto& faulty = rep.at(1, 1, n_times);
    const double clean_acc =
        p.algo == core::AlgoKind::kHdc ? clean.hdc_accuracy : clean.mann_accuracy;
    const double faulty_acc =
        p.algo == core::AlgoKind::kHdc ? faulty.hdc_accuracy : faulty.mann_accuracy;
    const double ratio =
        clean_acc > 0.0 ? std::clamp(faulty_acc / clean_acc, 0.0, 1.0) : 1.0;
    fom.accuracy *= ratio;
    fom.note += "; MC fault ratio " + percent(ratio) + " %";
  }
  if (uses_crossbar(p.arch) || p.algo == core::AlgoKind::kMlp ||
      p.algo == core::AlgoKind::kCnn) {
    const double derate = nvsim::ber_accuracy_derate(traits, config_.mc_age_s, writes);
    fom.accuracy *= derate;
    fom.note += "; BER derate " + percent(derate) + " %";
  }
  return fom;
}

void FidelityLadder::prime(const SearchSpace& space) const {
  bool probe = false;
  std::vector<device::DeviceKind> tiles;
  for (std::size_t i = 0; i < space.size(); ++i) {
    if (space.culled(i)) continue;
    const core::DesignPoint p = space.at(i);
    if (config_.max_fidelity >= Fidelity::kNodal && uses_crossbar(p.arch) &&
        std::find(tiles.begin(), tiles.end(), p.device) == tiles.end())
      tiles.push_back(p.device);
    if (config_.max_fidelity >= Fidelity::kMonteCarlo && is_in_memory(p.arch) &&
        (p.algo == core::AlgoKind::kHdc || p.algo == core::AlgoKind::kMann))
      probe = true;
  }
  // The probe goes first: it is the longest build, and its nested
  // parallel_for takes up the lanes the tiles free.
  const std::size_t first_tile = probe ? 1 : 0;
  parallel_for(first_tile + tiles.size(), 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t k = begin; k < end; ++k) {
      try {
        if (k < first_tile)
          probe_report(config_.mc_fault_rate, config_.mc_age_s, config_.mc_seed);
        else
          nodal_ir_error(tiles[k - first_tile]);
      } catch (...) {
        // Left unpublished; the point that needs the value rethrows it.
      }
    }
  });
}

double FidelityLadder::cost_estimate(const core::DesignPoint& p, Fidelity tier) const {
  // Coarse relative weights of the refinement rungs.  They still price each
  // memoised build (per-device IR solve, per-config resilience probe) as if
  // a point paid it, but prime() now pays those first-touch costs once,
  // before a job's first dispatch; the weights only order a batch
  // longest-first, which is what a makespan-minimising dispatch wants.
  double cost = 1.0;  // analytic projection
  if (!is_in_memory(p.arch)) return cost;  // refinements are no-ops for digital points
  if (tier >= Fidelity::kNodal) {
    if (uses_crossbar(p.arch)) cost += 8.0;   // nodal IR-drop tile solve
    if (uses_cam(p.arch)) cost += 4.0;        // Eva-CAM variation margins
  }
  if (tier >= Fidelity::kMonteCarlo) {
    if (p.algo == core::AlgoKind::kHdc || p.algo == core::AlgoKind::kMann)
      cost += 100.0;  // resilience probe grid (MC accuracy measurement)
    else
      cost += 2.0;  // BER-derived storage derate
  }
  return cost;
}

std::uint64_t FidelityLadder::hash(std::uint64_t h) const {
  h = util::fnv1a64("xlds-ladder-v1", 14, h);
  const auto mix = [&h](double v) { h = util::fnv1a64(&v, sizeof v, h); };
  // Hash the tier in the pre-surrogate numbering (analytic = 0): the
  // surrogate rung changed the enum values but not the physics a stored FOM
  // depends on, and legacy journals must keep matching.
  const std::uint32_t legacy_max = static_cast<std::uint32_t>(config_.max_fidelity) - 1;
  h = util::fnv1a64(&legacy_max, sizeof legacy_max, h);
  mix(config_.variation_sigma_rel);
  mix(config_.ir_drop_sensitivity);
  mix(config_.mc_fault_rate);
  mix(config_.mc_age_s);
  h = util::fnv1a64(&config_.mc_seed, sizeof config_.mc_seed, h);
  return util::fnv1a64(profile_.name.data(), profile_.name.size(), h);
}

}  // namespace xlds::dse
