// serve_drift: back-to-back serve::ServingLoop::run calls under the
// watchdog policy (the trigger and backoffs of bench/serve_hdc_drift.cpp),
// each on a freshly built ServedHdcModel.  The model and loop seed of every
// run come from a finite catalogue drawn with the workload seed, and every
// catalogue run's report checksum is pinned in pins.json.
//
// A control tick is the unit of latency: a benchmark-owned policy decorator
// stamps each on_check() and forwards it, unchanged, to the real watchdog.
//
// The traced run replays each run's tick sequence through the model's layer
// entry points (ServedModel age/refresh_cam/repair_encoder and the HDC
// query_digits_batch/classify_digits pair) and must reproduce the run's
// checksum bit for bit.  Before each encode it factorizes every stale
// encoder tile through an empty Crossbar::readout_batch (no RNG draw), so
// the nodal factorizations are timed apart from the batched substitutions.
#include <algorithm>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "kernels/sampler.hpp"
#include "serve/loop.hpp"
#include "serve/model.hpp"
#include "serve/policy.hpp"
#include "serve/slo.hpp"
#include "util/error.hpp"
#include "util/parallel.hpp"
#include "workload/dataset.hpp"

namespace perfbench {

namespace {

namespace serve = xlds::serve;

constexpr std::size_t kRequestsPerRun = 1024;
constexpr std::uint32_t kCatalogueRuns = 24;  ///< model/loop seeds 1..24
constexpr std::size_t kTracedRuns = 2;
constexpr std::size_t kSetupRepeats = 9;

// Stream constants of src/serve/loop.cpp and src/serve/model.cpp; the replay
// regenerates the same arrivals, request ids and request pool.
constexpr std::uint64_t kArrivalStream = 0x5E57A12;
constexpr std::uint64_t kRequestStream = 0x5E57A13;
constexpr std::uint64_t kDatasetSalt = 0x9E3779B97F4A7C15ull;

std::string run_id(std::uint64_t s) {
  return "serve/m" + std::to_string(s) + "/r" + std::to_string(kRequestsPerRun);
}

serve::ServingConfig loop_config(std::uint64_t s) {
  serve::ServingConfig cfg;
  cfg.total_requests = kRequestsPerRun;
  cfg.seed = s;
  // At the default scale a 1024-request run rarely reaches the watchdog's
  // trigger; at 8 every catalogue run recalibrates one to three times, so
  // the CAM rewrite and encoder repair paths are part of the workload.
  cfg.drift_time_scale = 8.0;
  return cfg;
}

std::unique_ptr<serve::RecalibrationPolicy> make_watchdog(const serve::ServingConfig& cfg) {
  const double trigger = std::min(0.99, cfg.accuracy_floor + 0.03);
  const double backoff0 = 0.25 * static_cast<double>(cfg.accuracy_window) /
                          (cfg.target_utilisation / cfg.base_service_s);
  return serve::make_accuracy_watchdog(trigger, cfg.floor_min_samples, backoff0,
                                       4.0 * backoff0);
}

/// Stamps every control tick and forwards the check to the real policy; it
/// adds no decision of its own.
class TickStamp final : public serve::RecalibrationPolicy {
 public:
  TickStamp(serve::RecalibrationPolicy& inner, Trace& trace) : inner_(inner), trace_(trace) {}
  const char* name() const noexcept override { return inner_.name(); }
  serve::PolicyAction on_check(const serve::PolicyContext& ctx) override {
    stamps_.push_back(Clock::now());
    auto s = trace_.span("serve.policy_s");
    return inner_.on_check(ctx);
  }
  const std::vector<Clock::time_point>& stamps() const noexcept { return stamps_; }

 private:
  serve::RecalibrationPolicy& inner_;
  Trace& trace_;
  std::vector<Clock::time_point> stamps_;
};

class RunSequence {
 public:
  explicit RunSequence(std::uint64_t seed) : rng_(seed, 0x5E7E) {}
  std::uint64_t next() { return 1 + rng_.uniform_u32(kCatalogueRuns); }

 private:
  xlds::Rng rng_;
};

struct ServeRun {
  bool ok = false;
  std::string error;
  double wall_s = 0.0;
  std::vector<double> tick_s;
  serve::ServingReport report;
};

/// One closed-loop operation: a fresh model (built before the timed call),
/// one run() call, the checksum check.
ServeRun serve_once(std::uint64_t s, const Pins& pins, Trace& trace) {
  ServeRun run;
  try {
    std::optional<serve::ServedHdcModel> model;
    {
      auto span = trace.span("serve.model_build_s");
      model.emplace(serve::ServedModelConfig{}, s);
    }
    const serve::ServingConfig cfg = loop_config(s);
    const std::unique_ptr<serve::RecalibrationPolicy> watchdog = make_watchdog(cfg);
    TickStamp stamp(*watchdog, trace);
    const serve::ServingLoop loop(cfg);
    Clock::time_point t0, t1;
    {
      auto span = trace.span("trace.calls_s");
      t0 = Clock::now();
      run.report = loop.run(*model, stamp);
      t1 = Clock::now();
    }
    run.wall_s = seconds_between(t0, t1);
    const auto& st = stamp.stamps();
    for (std::size_t i = 0; i < st.size(); ++i)
      run.tick_s.push_back(seconds_between(st[i], i + 1 < st.size() ? st[i + 1] : t1));
    const auto pin = pins.serve.find(run_id(s));
    if (pin == pins.serve.end()) {
      run.error = run_id(s) + ": no pinned checksum";
    } else if (pin->second != std::to_string(run.report.checksum)) {
      run.error = run_id(s) + ": checksum " + std::to_string(run.report.checksum) + " != pinned " +
                  pin->second;
    } else {
      run.ok = true;
    }
  } catch (const std::exception& e) {
    run.error = run_id(s) + ": " + e.what();
  }
  return run;
}

/// A checksum mismatch fails every request of that run.
void record(WorkloadResult& out, const ServeRun& run) {
  out.attempted += kRequestsPerRun;
  if (!run.ok) {
    out.failed += kRequestsPerRun;
    out.failures.push_back(run.error);
  }
}

// FNV-1a accumulator, as src/serve/loop.cpp mixes its checksum.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix_bytes(const void* p, std::size_t n) {
    const unsigned char* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ull;
    }
  }
  void mix(double v) { mix_bytes(&v, sizeof v); }
  void mix(std::uint64_t v) { mix_bytes(&v, sizeof v); }
};

/// Replay one serving run's tick sequence through the layer entry points,
/// mirroring ServingLoop::run step for step; returns the report checksum
/// the replay reproduces.  Only the watchdog's actions (none, refresh) are
/// mirrored — the policy this workload runs.
std::uint64_t replay_run(std::uint64_t s, double& searches, Trace& trace) {
  const serve::ServedModelConfig mc;
  const serve::ServingConfig cfg = loop_config(s);
  std::optional<serve::ServedHdcModel> model_slot;
  {
    auto span = trace.span("serve.model_build_s");
    model_slot.emplace(mc, s);
  }
  serve::ServedHdcModel& model = *model_slot;
  xlds::workload::Dataset ds;
  {
    auto span = trace.span("bench.self_s");
    ds = xlds::workload::make_gaussian_clusters(mc.data, s ^ kDatasetSalt);
  }
  const std::unique_ptr<serve::RecalibrationPolicy> policy = make_watchdog(cfg);
  const auto& infer = model.inference();
  const auto& tiles = infer.encoder_tiles();

  xlds::Rng root(cfg.seed);
  xlds::Rng arrival_rng = root.fork(kArrivalStream);
  xlds::Rng request_rng = root.fork(kRequestStream);
  const double unit_service =
      cfg.base_service_s + model.encode_cost().latency + model.search_cost().latency;
  const double lambda =
      cfg.arrival_rate > 0.0 ? cfg.arrival_rate : cfg.target_utilisation / unit_service;
  const std::size_t n = cfg.total_requests;
  std::vector<double> arrival(n);
  xlds::kernels::fill_exponential(arrival_rng, arrival.data(), n, lambda);
  for (std::size_t i = 1; i < n; ++i) arrival[i] += arrival[i - 1];
  std::vector<std::size_t> ids(n);
  for (std::size_t& id : ids)
    id = request_rng.uniform_u32(static_cast<std::uint32_t>(model.pool_size()));

  serve::SlidingAccuracy window(cfg.accuracy_window);
  Fnv hash;
  double server_free_at = 0.0, aged_to = 0.0, recal_end = 0.0, duration = 0.0;
  double prev_tick_close = 0.0;
  const std::size_t votes = 1;
  std::vector<serve::TrajectoryPoint> trajectory;

  for (std::size_t begin = 0; begin < n; begin += cfg.check_interval) {
    const std::size_t end = std::min(n, begin + cfg.check_interval);
    const double tick_t = arrival[begin];
    if (tick_t > aged_to) {
      auto span = trace.span("xbar.age_s");
      model.age((tick_t - aged_to) * cfg.drift_time_scale);
      aged_to = tick_t;
    }
    serve::PolicyContext ctx;
    ctx.now = tick_t;
    ctx.window_accuracy = window.value();
    ctx.window_samples = window.samples();
    ctx.device_age = model.device_age();
    ctx.recal_in_flight = tick_t < recal_end;
    ctx.spare_ready = true;
    ctx.votes = votes;
    serve::PolicyAction act;
    {
      auto span = trace.span("serve.policy_s");
      act = policy->on_check(ctx);
    }
    XLDS_REQUIRE_MSG(act.kind == serve::ActionKind::kNone ||
                         act.kind == serve::ActionKind::kRefresh,
                     "replay mirrors only the watchdog's actions");
    if (act.kind == serve::ActionKind::kRefresh && !ctx.recal_in_flight) {
      {
        auto span = trace.span("cam.rewrite_s");
        (void)model.refresh_cam();
      }
      std::size_t xbar_cells = 0;
      {
        auto span = trace.span("serve.repair_s");
        xbar_cells = model.repair_encoder(cfg.repair_threshold_fraction);
      }
      recal_end = tick_t +
                  cfg.cam_write_time_per_word_s * static_cast<double>(model.cam_word_count()) +
                  cfg.xbar_write_time_per_cell_s * static_cast<double>(xbar_cells);
    }

    std::vector<std::size_t> admitted;
    for (std::size_t r = begin; r < end; ++r) {
      const bool in_recal = arrival[r] < recal_end;
      const double start = std::max(arrival[r], server_free_at);
      if (start - arrival[r] > cfg.max_queue_wait_s) continue;
      double service = cfg.base_service_s + model.encode_cost().latency +
                       static_cast<double>(votes) * model.search_cost().latency;
      if (in_recal) service *= cfg.degraded_latency_factor;
      server_free_at = start + service;
      hash.mix(server_free_at - arrival[r]);
      duration = std::max(duration, server_free_at);
      admitted.push_back(ids[r]);
    }

    std::vector<std::size_t> preds;
    if (!admitted.empty()) {
      xlds::MatrixD xs(admitted.size(), ds.dim, 0.0);
      for (std::size_t i = 0; i < admitted.size(); ++i)
        std::copy(ds.test_x[admitted[i]].begin(), ds.test_x[admitted[i]].end(), xs.row_data(i));
      {
        auto span = trace.span("xbar.factorize_s");
        xlds::parallel_for(tiles.tile_count(), 1, [&](std::size_t b, std::size_t e, std::size_t) {
          for (std::size_t t = b; t < e; ++t)
            if (!tiles.tile(t).nodal_factorized())
              (void)tiles.tile(t).readout_batch(xlds::MatrixD(0, tiles.tile(t).rows()));
        });
      }
      std::vector<std::vector<int>> digits;
      {
        auto span = trace.span("hdc.encode_s");
        digits = infer.query_digits_batch(xs);
      }
      auto span = trace.span("cam.search_s");
      for (const std::vector<int>& q : digits) preds.push_back(infer.classify_digits(q, votes));
      searches += static_cast<double>(digits.size() * votes);
    }
    for (std::size_t k = 0; k < preds.size(); ++k) {
      window.add(preds[k] == model.label(admitted[k]));
      hash.mix(static_cast<std::uint64_t>(preds[k]));
    }
    const double tick_close = end < n ? arrival[end] : std::max(duration, arrival[n - 1]);
    serve::TrajectoryPoint pt;
    pt.t = tick_close;
    pt.accuracy = window.value();
    pt.qps = static_cast<double>(preds.size()) / (tick_close - prev_tick_close);
    pt.votes = votes;
    trajectory.push_back(pt);
    prev_tick_close = tick_close;
  }
  for (const serve::TrajectoryPoint& pt : trajectory) {
    hash.mix(pt.t);
    hash.mix(pt.accuracy);
    hash.mix(pt.qps);
    hash.mix(static_cast<std::uint64_t>(pt.votes));
  }
  return hash.h;
}

}  // namespace

WorkloadResult run_serve_drift(const Options& opt, const Pins& pins, Trace& trace) {
  WorkloadResult out;
  out.machine["shards"] = "1";
  // Set-up: data generation, HDC training and CAM/tile programming of the
  // first run's model, repeated, median reported.
  {
    const std::uint64_t first = RunSequence(opt.seed).next();
    std::vector<double> setups;
    for (std::size_t r = 0; r < kSetupRepeats; ++r) {
      auto span = trace.span("bench.self_s");
      const Clock::time_point t0 = r == 0 ? opt.started : Clock::now();
      (void)xlds::parallel_thread_count();
      const serve::ServedHdcModel model(serve::ServedModelConfig{}, first);
      const std::unique_ptr<serve::RecalibrationPolicy> watchdog =
          make_watchdog(loop_config(first));
      setups.push_back(seconds_between(t0, Clock::now()));
    }
    out.setup_s = median(setups);
  }

  if (!trace.enabled()) {
    RunSequence seq(opt.seed);
    double served = 0.0, run_wall = 0.0;
    const double cpu0 = cpu_seconds_with_children();
    const Clock::time_point begin = Clock::now();
    while (out.op_s.empty() || seconds_between(begin, Clock::now()) < opt.seconds) {
      const ServeRun run = serve_once(seq.next(), pins, trace);
      out.op_s.insert(out.op_s.end(), run.tick_s.begin(), run.tick_s.end());
      served += static_cast<double>(run.report.served);
      run_wall += run.wall_s;
      record(out, run);
      if (run.tick_s.empty()) break;  // a run that threw: nothing left to time
    }
    out.cpu_s = cpu_seconds_with_children() - cpu0;
    out.throughput_per_s = run_wall > 0.0 ? served / run_wall : 0.0;
    return out;
  }

  double baseline = 0.0;
  {
    auto span = trace.span("bench.self_s");
    Trace off(false, Clock::now());
    RunSequence seq(opt.seed);
    for (std::size_t i = 0; i < kTracedRuns; ++i) {
      const ServeRun run = serve_once(seq.next(), pins, off);
      baseline += run.wall_s;
      record(out, run);
    }
  }

  RunSequence seq(opt.seed);
  double calls = 0.0, ticks = 0.0, recals = 0.0, cells = 0.0, cam_cells = 0.0, searches = 0.0;
  double invol = 0.0;
  ProfilerCounts profiler;
  for (std::size_t i = 0; i < kTracedRuns; ++i) {
    auto op = trace.span("bench.self_s");
    const std::uint64_t s = seq.next();
    const ProfilerCounts before = ProfilerCounts::now();
    const double invol0 = invol_ctx_switches();
    ServeRun run = serve_once(s, pins, trace);
    profiler.add_delta(before, ProfilerCounts::now());
    invol += invol_ctx_switches() - invol0;
    calls += run.wall_s;
    const serve::ServingReport& r = run.report;
    ticks += static_cast<double>(r.trajectory.size());
    recals += static_cast<double>(r.recal_events + r.spare_swaps);
    cells += static_cast<double>(r.cam_cells_rewritten + r.xbar_cells_repaired);
    cam_cells += static_cast<double>(r.cam_cells_rewritten);
    if (run.ok) {
      std::uint64_t replayed = 0;
      {
        auto span = trace.span("serve.self_s");
        replayed = replay_run(s, searches, trace);
      }
      if (replayed != r.checksum) {
        run.ok = false;
        run.error = run_id(s) + ": replayed tick sequence gives checksum " +
                    std::to_string(replayed) + ", the run " + std::to_string(r.checksum);
      }
    }
    record(out, run);
  }
  auto& m = out.layer;
  m["trace.overhead_frac"] = ratio(calls - baseline, baseline);
  m["serve.ticks"] = ticks;
  m["serve.recal_events"] = recals;
  m["serve.cells_reprogrammed"] = cells;
  m["cam.cells_rewritten"] = cam_cells;
  m["cam.searches"] = searches;
  m["proc.invol_ctx_switches"] = invol;
  profiler.put_metrics(m);
  return out;
}

void write_serve_pins(Pins& pins) {
  for (std::uint64_t s = 1; s <= kCatalogueRuns; ++s) {
    serve::ServedHdcModel model(serve::ServedModelConfig{}, s);
    const serve::ServingConfig cfg = loop_config(s);
    const std::unique_ptr<serve::RecalibrationPolicy> watchdog = make_watchdog(cfg);
    pins.serve[run_id(s)] = std::to_string(serve::ServingLoop(cfg).run(model, *watchdog).checksum);
  }
}

}  // namespace perfbench
