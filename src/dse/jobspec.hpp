// JSON job specs and result serialisation for the xlds-dse CLI.
//
// A job spec is a small JSON document describing one exploration:
//
//   {
//     "application": "isolet-like",
//     "strategy": "nsga2",                  // random | lhs | nsga2 | halving
//     "budget": 33,                         // 0 / absent: viable space size
//     "seed": 1,
//     "space": {                            // absent axes = every value
//       "devices": ["rram", "fefet"],
//       "archs":   ["cam-accelerator"],
//       "algos":   ["hdc", "mann"]
//     },
//     "fidelity": { "max": "mc", "mc_fault_rate": 0.02, ... },
//     "surrogate": { "enabled": true, "refit_every": 8, ... },
//     "driver":   { "population": 24, "eta": 3.0, ... },
//     "weights":  { "latency": 1.0, "accuracy": 30.0, ... },
//     "journal":  "runs/isolet.xjl"
//   }
//
// Axis values are matched against the same to_string() names the rest of the
// framework prints, so specs copy-paste from any XLDS report.  Unknown names
// throw PreconditionError listing the valid spellings.
#pragma once

#include <string>

#include "dse/engine.hpp"
#include "util/json.hpp"

namespace xlds::dse {

/// Parse a job-spec document into an EngineConfig.  Unknown top-level or
/// nested keys are rejected (a typo must not silently fall back to a
/// default and burn a budget on the wrong job).
EngineConfig config_from_spec(const util::Json& spec);
EngineConfig config_from_spec_text(const std::string& text);

/// Kept only because perfbench/dse_workloads.cpp assigns it to ShardConfig::job_json.
std::string shard_job_spec_text(const EngineConfig& config);

/// Result document.  Deterministic for a deterministic result; with
/// `include_stats` false, journal-hit/compute counters are left out so a
/// resumed run and an uninterrupted run dump byte-identical documents (the
/// equality the crash-safe-resume CI check asserts).
util::Json result_to_json(const ExplorationResult& result, bool include_stats = true);

/// Flat CSV of every evaluated point (one row each, first-charge order):
/// device,arch,algo,tier,feasible,latency,energy,area_mm2,accuracy,on_front,rank
std::string result_to_csv(const ExplorationResult& result);

}  // namespace xlds::dse
