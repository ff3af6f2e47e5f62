#include "surrogate/model.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/error.hpp"
#include "util/hash.hpp"

namespace xlds::surrogate {

namespace {

template <class Kind>
std::size_t ordinal_of(const std::vector<Kind>& all, Kind k) {
  for (std::size_t i = 0; i < all.size(); ++i)
    if (all[i] == k) return i;
  XLDS_REQUIRE_MSG(false, "design-point coordinate outside the known kinds");
  return 0;
}

}  // namespace

SurrogateModel::SurrogateModel(SurrogateConfig config)
    : config_(config),
      forest_(ForestConfig{config.trees, 2, 16, 0, config.fit_seed}) {
  XLDS_REQUIRE(config_.min_history >= 2);
  XLDS_REQUIRE(config_.refit_every >= 1);
  XLDS_REQUIRE(config_.queries_per_charge >= 1);
  XLDS_REQUIRE(config_.promote_uncertainty >= 0.0);
  XLDS_REQUIRE(config_.disagree_rel > 0.0);
}

std::vector<double> SurrogateModel::encode(const core::DesignPoint& p,
                                           std::uint32_t tier) const {
  const auto& devices = device::all_device_kinds();
  const auto& archs = core::all_arch_kinds();
  const auto& algos = core::all_algo_kinds();
  const std::size_t di = ordinal_of(devices, p.device);
  const std::size_t ai = ordinal_of(archs, p.arch);
  const std::size_t gi = ordinal_of(algos, p.algo);

  // Ordinals let a split carve several kinds off in one cut; one-hots let a
  // single kind be isolated regardless of enumeration order.  Both encodings
  // are cheap at this dimensionality, so the forest gets both.
  std::vector<double> x;
  x.reserve(4 + devices.size() + archs.size() + algos.size());
  x.push_back(static_cast<double>(di));
  x.push_back(static_cast<double>(ai));
  x.push_back(static_cast<double>(gi));
  x.push_back(static_cast<double>(tier));
  for (std::size_t i = 0; i < devices.size(); ++i) x.push_back(i == di ? 1.0 : 0.0);
  for (std::size_t i = 0; i < archs.size(); ++i) x.push_back(i == ai ? 1.0 : 0.0);
  for (std::size_t i = 0; i < algos.size(); ++i) x.push_back(i == gi ? 1.0 : 0.0);
  return x;
}

void SurrogateModel::add(const core::DesignPoint& p, std::uint32_t tier,
                         const core::Fom& fom) {
  Sample s;
  s.x = encode(p, tier);
  s.y = {fom.latency, fom.energy, fom.area_mm2, fom.accuracy, fom.feasible ? 1.0 : 0.0};
  samples_.push_back(std::move(s));
}

bool SurrogateModel::refit_due() const {
  if (samples_.size() < config_.min_history) return false;
  if (!forest_.fitted() || force_refit_) return true;
  return samples_.size() - fitted_at_ >= config_.refit_every;
}

bool SurrogateModel::refit_if_due() {
  if (!refit_due()) return false;
  forest_.fit(samples_);
  fitted_at_ = samples_.size();
  force_refit_ = false;
  ++refits_;
  return true;
}

SurrogatePrediction SurrogateModel::predict(const core::DesignPoint& p,
                                            std::uint32_t tier) const {
  XLDS_REQUIRE_MSG(ready(), "surrogate predict() before the first fit");
  const RegressionForest::Prediction raw = forest_.predict(encode(p, tier));

  SurrogatePrediction out;
  out.fom.latency = raw.mean[0];
  out.fom.energy = raw.mean[1];
  out.fom.area_mm2 = raw.mean[2];
  out.fom.accuracy = raw.mean[3];
  out.fom.feasible = raw.mean[4] >= 0.5;
  // Worst-target relative spread: a point the trees disagree about on *any*
  // objective (feasibility included — an ambivalent 0.5 vote reads as 100%)
  // is a point the promotion policy should buy real physics for.
  constexpr double kTiny = 1e-12;
  for (std::size_t k = 0; k < raw.mean.size(); ++k)
    out.rel_std = std::max(out.rel_std, raw.std[k] / (std::fabs(raw.mean[k]) + kTiny));

  char note[64];
  std::snprintf(note, sizeof note, "surrogate fit#%zu u %.1f %%", refits_,
                100.0 * out.rel_std);
  out.fom.note = note;
  return out;
}

std::uint64_t SurrogateModel::state_hash() const {
  std::uint64_t h = forest_.state_hash();
  const std::uint64_t book[3] = {samples_.size(), fitted_at_, refits_};
  return util::fnv1a64(book, sizeof book, h);
}

}  // namespace xlds::surrogate
