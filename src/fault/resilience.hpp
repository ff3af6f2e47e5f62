// Cross-layer resilience sweeps: fault rate x time -> application accuracy.
//
// The paper's predictive-assessment loop judges a technology by propagating
// device behaviour to application figures of merit.  This evaluator closes
// that loop for *hard faults and aging*: it sweeps a defect-mechanism mix
// along a fault-rate axis and a retention/relaxation time axis, and reports
//   * HDC-CAM inference accuracy (the Sec. III case study) on the FeFET
//     partitioned MCAM,
//   * few-shot MANN accuracy (the Sec. IV case study) on the RRAM-LSH +
//     2T2R TCAM pipeline,
//   * Monte-Carlo array yield under the configured graceful-degradation
//     policies, and the policies' FOM overheads.
//
// The expensive seed-level artifacts (trained HDC model + test set, trained
// CNN feature extractor reduced to per-episode feature vectors) are memoized
// in process-wide caches — repeated sweeps at different policies or rates
// rebuild nothing.  A sweep runs as two branches on the shared pool: the
// MANN contexts (CNN pretraining, the longest chain) beside the HDC contexts
// and every grid point's HDC half; each point's MANN half runs once both are
// done.  Every (rate, time, seed) point owns one forked stream, which its
// HDC half draws from first and its MANN half continues, so every number is
// bit-identical at any XLDS_THREADS, and a failure throws what a serial
// sweep would throw.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cam/fefet_cam.hpp"
#include "cam/rram_tcam.hpp"
#include "fault/policy.hpp"
#include "hdc/model.hpp"
#include "workload/dataset.hpp"
#include "workload/fewshot.hpp"
#include "xbar/crossbar.hpp"

namespace xlds::fault {

/// HDC-CAM case-study knobs (kept small: the sweep multiplies them by
/// rates x times x seeds).
struct ResilienceHdcConfig {
  workload::GaussianClustersSpec data;
  hdc::HdcConfig model;
  cam::FeFetCamConfig subarray;  ///< per-segment geometry; rows follow n_classes
  std::size_t max_test_samples = 48;

  ResilienceHdcConfig() {
    data.n_classes = 8;
    data.dim = 32;
    data.train_per_class = 20;
    data.test_per_class = 8;
    model.hv_dim = 256;
    model.element_bits = 3;
    model.retrain_epochs = 1;
    subarray.cols = 64;
  }
};

/// Few-shot MANN case-study knobs.  The CNN runs only at context-build time;
/// sweep points consume precomputed L2-normalised feature vectors.
struct ResilienceMannConfig {
  workload::FewShotSpec fewshot;
  std::size_t embedding = 32;
  std::size_t signature_bits = 48;
  std::size_t episodes = 2;
  std::size_t n_way = 4;
  std::size_t k_shot = 2;
  std::size_t queries_per_class = 2;
  /// Fixed don't-care fraction of each stored TLSH signature.
  double dont_care_fraction = 0.15;
  std::size_t pretrain_classes = 8;
  std::size_t pretrain_per_class = 12;
  /// Enough epochs that the extractor separates classes (the MANN tests use
  /// 12); with fewer the sweep measures noise, not fault response.
  std::size_t pretrain_epochs = 12;
  double pretrain_lr = 0.001;
  xbar::CrossbarConfig hash_xbar;  ///< rows/cols overridden from embedding/bits
  cam::RramTcamConfig am;          ///< cols overridden from signature_bits

  ResilienceMannConfig() { fewshot.image_side = 16; }
};

struct ResilienceConfig {
  std::vector<double> fault_rates{0.0, 0.01, 0.05, 0.1};
  std::vector<double> time_points_s{0.0, 1.0e4, 1.0e7};
  std::size_t seeds = 3;
  std::uint64_t base_seed = 1234;
  /// Mechanism mix scaled along the fault-rate axis (rate r applies
  /// mechanism_mix.scaled(r)).
  FaultSpec mechanism_mix = FaultSpec::mixed(1.0);
  GracefulPolicies policies;
  ResilienceHdcConfig hdc;
  ResilienceMannConfig mann;
  std::size_t yield_trials = 200;
  double yield_max_residual_fraction = 0.02;
};

/// One (fault rate, time) grid point, averaged over seeds.
struct ResiliencePoint {
  double fault_rate = 0.0;
  double time_s = 0.0;
  double hdc_accuracy = 0.0;
  double mann_accuracy = 0.0;
  /// Residual (post-remap) faulty-cell fraction of the HDC CAM, seed mean.
  double residual_fraction = 0.0;
};

struct ResilienceReport {
  /// Rate-major x time grid, each point seed-averaged.
  std::vector<ResiliencePoint> points;
  /// Array yield at each fault rate (aligned with config.fault_rates), at
  /// the HDC subarray geometry under the configured policies.
  std::vector<YieldEstimate> yield;
  PolicyCost cost;  ///< FOM overhead of the enabled policies

  const ResiliencePoint& at(std::size_t rate_index, std::size_t time_index,
                            std::size_t n_times) const {
    return points[rate_index * n_times + time_index];
  }
};

class ResilienceEvaluator {
 public:
  explicit ResilienceEvaluator(ResilienceConfig config);

  const ResilienceConfig& config() const noexcept { return config_; }

  /// Run the full sweep.  Deterministic in the config (including at any
  /// XLDS_THREADS); seed-level model training is served from the memo cache
  /// when a compatible context was already built this process.
  ResilienceReport run() const;

 private:
  ResilienceConfig config_;
};

/// Fidelity-ladder adapter (DSE Monte-Carlo tier): a minimal two-rate,
/// two-time probe grid — {0, fault_rate} x {0, age_s} at one seed — sized so
/// a search can afford one run per shortlisted point.  The ladder uses the
/// accuracy *ratio* between the faulty corner and the clean corner, so the
/// tiny synthetic tasks' absolute accuracy never leaks into the FOMs.  Every
/// probe at the same (rate, age) shares the process-wide context caches.
ResilienceConfig dse_probe_config(double fault_rate, double age_s, std::uint64_t seed);

/// Hit counters of the process-wide resilience context caches.
struct ResilienceCacheStats {
  std::size_t lookups = 0;
  std::size_t hits = 0;
};

ResilienceCacheStats resilience_cache_stats();
void clear_resilience_caches();

}  // namespace xlds::fault
