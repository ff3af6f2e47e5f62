// The fidelity ladder: the same design point costed at four model tiers.
//
// The codebase has always contained cheap-to-expensive models of the same
// physics — the analytic triage FOMs (core::Evaluator), the exact
// nodal IR-drop solve and the variation-aware Eva-CAM margins, and the
// Monte-Carlo fault/variation accuracy measurements (fault::
// ResilienceEvaluator) — but only ever ran them in separate benches.  The
// ladder stacks them so a search can spend almost all of its budget at the
// ~microsecond analytic tier and promote only shortlisted survivors up the
// rungs, the way XBTorch/LASANA-style co-design flows make large analog
// spaces tractable:
//
//   kSurrogate   learned regression-forest prediction trained on this job's
//                journal history (src/surrogate/) — no physics at all
//   kAnalytic    analytic FOM projection (the brute-force triage model)
//   kNodal       + nodal IR-drop error on the crossbar tile, + Eva-CAM
//                sense margins re-derived under device variation
//   kMonteCarlo  + measured fault/aging accuracy ratio from the resilience
//                probe grid and the BER-derived weight-storage derate
//
// Each physics rung is a pure function of (point, tier, config, profile): no
// hidden state, so values are journal-cacheable and bit-identical at any
// XLDS_THREADS.  Digital platform points refine to themselves — there is no
// in-memory physics to re-model — which keeps ladder comparisons fair: the
// baselines never pay fictitious penalties.
//
// kSurrogate is the exception that proves the rule: its value is a function
// of the *training history*, not of the job alone, so the ladder refuses to
// evaluate it — the engine owns the model, and journals every prediction so
// that a resumed run replays the same values the model produced the first
// time regardless of how the refit schedule would land on replay.
#pragma once

#include <cstdint>
#include <string>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"

namespace xlds::dse {

class SearchSpace;

enum class Fidelity : std::uint32_t {
  kSurrogate = 0,
  kAnalytic = 1,
  kNodal = 2,
  kMonteCarlo = 3,
};

constexpr std::size_t kFidelityTiers = 4;

std::string to_string(Fidelity f);
Fidelity fidelity_from_string(const std::string& name);

/// Drop the process-wide ladder memo caches (the per-device nodal IR-drop
/// errors and the per-(rate, age, seed) Monte-Carlo probe reports).  Values
/// are pure functions of their keys, so clearing only costs recompute time —
/// benches call this (plus core::clear_evaluation_caches()) between timed
/// runs so a "cold" measurement is honestly cold.
void clear_fidelity_caches();

struct FidelityConfig {
  /// Top physics rung for the job (>= kAnalytic: the surrogate rung is not a
  /// ladder tier, it sits below the ladder and is served by the engine).
  Fidelity max_fidelity = Fidelity::kAnalytic;
  /// kNodal: relative device-to-device conductance spread folded into the
  /// Eva-CAM sense-margin analysis.
  double variation_sigma_rel = 0.05;
  /// kNodal: accuracy sensitivity to the nodal-vs-analytic column-current
  /// error (fractional accuracy lost per unit relative error).
  double ir_drop_sensitivity = 0.2;
  /// kMonteCarlo: stuck-cell rate and storage age of the resilience probe.
  double mc_fault_rate = 0.02;
  double mc_age_s = 1.0e7;
  /// kMonteCarlo: probe stream.  Deliberately independent of the *search*
  /// seed: FOM values must not change when only the search trajectory does,
  /// or journals could never be shared across strategies/seeds.
  std::uint64_t mc_seed = 99;
};

class FidelityLadder {
 public:
  FidelityLadder(FidelityConfig config, core::AppProfile profile,
                 core::AccuracyOracle oracle = core::default_accuracy_oracle);

  const FidelityConfig& config() const noexcept { return config_; }
  const core::AppProfile& profile() const noexcept { return profile_; }

  /// Evaluate `p` at `tier` (refining every rung below it).  Pure function
  /// of (p, tier) for a fixed ladder; results are thread-count independent.
  /// PreconditionError on kSurrogate — that tier has no physics to run.
  core::Fom evaluate(const core::DesignPoint& p, Fidelity tier) const;

  /// Build, in one parallel_for at the pool's full width, every process-wide
  /// memo value evaluate() can reach on `space`'s structurally viable points:
  /// the nodal IR-drop error of each device with a crossbar point (max tier
  /// >= kNodal) and the resilience probe (max tier kMonteCarlo, some
  /// in-memory HDC or MANN point).  Speed-only: a memo value is a pure
  /// function of its key.  A value whose build throws is left unpublished,
  /// so the point that needs it throws where it would have without priming.
  void prime(const SearchSpace& space) const;

  /// Relative wall-cost estimate of evaluate(p, tier), in analytic-tier
  /// units.  A scheduling heuristic only (the engine sorts batches
  /// longest-processing-time-first with it) — never an input to any FOM or
  /// search decision, so it can evolve freely without invalidating journals.
  double cost_estimate(const core::DesignPoint& p, Fidelity tier) const;

  /// Identity hash of everything evaluate() depends on besides the point —
  /// folded into the journal job hash.  max_fidelity enters in the ladder's
  /// original 3-tier numbering (analytic = 0) so journals written before the
  /// surrogate rung existed keep their job hash and resume cleanly.
  std::uint64_t hash(std::uint64_t h) const;

 private:
  core::Fom refine_nodal(const core::DesignPoint& p, core::Fom fom) const;
  core::Fom refine_monte_carlo(const core::DesignPoint& p, core::Fom fom) const;

  FidelityConfig config_;
  core::AppProfile profile_;
  core::Evaluator evaluator_;
};

}  // namespace xlds::dse
