// Tests for the deterministic parallel execution layer: chunking/edge cases,
// exception propagation, and the core invariant — results are bit-identical
// regardless of the thread count — exercised on the Monte Carlo variation
// sweep and the full triage evaluate_all path (the nodal solver's width
// invariance is pinned in test_nodal.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/design_space.hpp"
#include "core/evaluate.hpp"
#include "device/fefet.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlds {
namespace {

/// Restores the pool to the environment default after each test so thread
/// overrides never leak across test cases.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

// ---- chunking / edge cases ---------------------------------------------------

TEST_F(ParallelTest, EmptyRangeNeverInvokesBody) {
  std::atomic<int> calls{0};
  parallel_for(0, 4, [&](std::size_t, std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  EXPECT_TRUE((parallel_map<int>(0, [](std::size_t i) { return static_cast<int>(i); }).empty()));
  EXPECT_EQ(parallel_sum(0, 4, [](std::size_t) { return 1.0; }), 0.0);
}

TEST_F(ParallelTest, RaggedLastChunkCoversWholeRange) {
  // n = 10, chunk = 4 -> chunks [0,4), [4,8), [8,10): boundaries are a pure
  // function of (n, chunk), never the thread count.
  std::vector<int> hits(10, 0);
  std::vector<std::size_t> chunk_of(10, 99);
  parallel_for(10, 4, [&](std::size_t begin, std::size_t end, std::size_t ci) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits[i];
      chunk_of[i] = ci;
    }
  });
  for (int h : hits) EXPECT_EQ(h, 1);
  const std::vector<std::size_t> expect = {0, 0, 0, 0, 1, 1, 1, 1, 2, 2};
  EXPECT_EQ(chunk_of, expect);
}

TEST_F(ParallelTest, ChunkZeroSelectsDefaultChunk) {
  EXPECT_GE(default_parallel_chunk(1), 1u);
  const std::size_t n = 1000;
  const std::size_t chunk = default_parallel_chunk(n);
  std::vector<std::size_t> seen;
  parallel_for(n, 0, [&](std::size_t begin, std::size_t, std::size_t ci) {
    if (ci == 1) {
      // Chunk 1 must start exactly where the default chunk size says.
      EXPECT_EQ(begin, chunk);
    }
    (void)begin;
  });
  (void)seen;
}

TEST_F(ParallelTest, MapPreservesIndexOrder) {
  set_parallel_threads(8);
  const auto out = parallel_map<int>(257, [](std::size_t i) { return static_cast<int>(i * 3); });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], static_cast<int>(i * 3));
}

TEST_F(ParallelTest, SetThreadsRoundTrip) {
  set_parallel_threads(3);
  EXPECT_EQ(parallel_thread_count(), 3u);
  set_parallel_threads(1);
  EXPECT_EQ(parallel_thread_count(), 1u);
}

// ---- exception propagation ---------------------------------------------------

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  set_parallel_threads(4);
  EXPECT_THROW(
      parallel_for(100, 5,
                   [&](std::size_t begin, std::size_t, std::size_t) {
                     if (begin == 50) throw std::runtime_error("chunk failure");
                   }),
      std::runtime_error);
  // The pool must stay usable after a failed job.
  EXPECT_EQ(parallel_sum(10, 3, [](std::size_t) { return 1.0; }), 10.0);
}

// ---- determinism: Monte Carlo variation sweep --------------------------------

/// The fig3g/fig2-style chunked MC sweep: per-chunk forked RNG streams,
/// per-chunk error counts combined in chunk order.
std::vector<std::size_t> mc_sweep_chunk_errors() {
  device::FeFetParams params;
  params.bits = 3;
  params.sigma_program = 0.094;
  const device::FeFetModel model(params);
  const int mid = params.levels() / 2;
  constexpr std::size_t kTrials = 20000;
  constexpr std::size_t kChunk = 500;
  Rng rng(7);
  std::vector<std::size_t> chunk_errors((kTrials + kChunk - 1) / kChunk, 0);
  parallel_for_rng(rng, kTrials, kChunk,
                   [&](Rng& trial_rng, std::size_t begin, std::size_t end, std::size_t ci) {
                     std::size_t errors = 0;
                     for (std::size_t t = begin; t < end; ++t)
                       if (model.readback_level(model.program_vth(mid, trial_rng)) != mid)
                         ++errors;
                     chunk_errors[ci] = errors;
                   });
  return chunk_errors;
}

TEST_F(ParallelTest, McSweepBitIdenticalAcrossThreadCounts) {
  set_parallel_threads(1);
  const auto serial = mc_sweep_chunk_errors();
  set_parallel_threads(8);
  const auto parallel = mc_sweep_chunk_errors();
  // Not just the same total: every per-chunk count matches, because each
  // chunk's RNG stream is a pure function of its chunk index.
  EXPECT_EQ(serial, parallel);
  const std::size_t total = std::accumulate(serial.begin(), serial.end(), std::size_t{0});
  EXPECT_GT(total, 0u);  // 3-bit cells at 94 mV do see level errors
}

// ---- determinism: full triage sweep (enumerate + evaluate_all) ---------------

bool fom_equal(const core::Fom& a, const core::Fom& b) {
  return a.latency == b.latency && a.energy == b.energy && a.area_mm2 == b.area_mm2 &&
         a.accuracy == b.accuracy && a.feasible == b.feasible && a.note == b.note;
}

TEST_F(ParallelTest, EvaluateAllBitIdenticalAcrossThreadCountsAndMatchesSerial) {
  const auto points = core::enumerate_design_space("isolet-like", /*include_culled=*/true);
  ASSERT_FALSE(points.empty());
  const auto profile = core::profile_for("isolet-like");
  const core::Evaluator ev;

  set_parallel_threads(1);
  const auto foms_1t = ev.evaluate_all(points, profile);
  set_parallel_threads(8);
  const auto foms_8t = ev.evaluate_all(points, profile);

  ASSERT_EQ(foms_1t.size(), points.size());
  ASSERT_EQ(foms_8t.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_TRUE(fom_equal(foms_1t[i], foms_8t[i])) << "point " << i;
    // The batched path must agree with the one-point-at-a-time API.
    if (points[i].culled_because) {
      EXPECT_FALSE(foms_1t[i].feasible);
      EXPECT_EQ(foms_1t[i].note, *points[i].culled_because);
    } else {
      EXPECT_TRUE(fom_equal(foms_1t[i], ev.evaluate(points[i].point, profile)))
          << "point " << i;
    }
  }
}

// ---- memo caches -------------------------------------------------------------

TEST_F(ParallelTest, EvaluationCachesAreHitDuringSweeps) {
  core::clear_evaluation_caches();
  const auto points = core::enumerate_design_space("isolet-like", /*include_culled=*/true);
  const auto profile = core::profile_for("isolet-like");
  const core::Evaluator ev;
  const auto first = ev.evaluate_all(points, profile);

  const auto stats = core::evaluation_cache_stats();
  // Many in-memory points share the handful of device kinds / CAM specs, so
  // the sweep must hit both caches well short of its lookup count.
  EXPECT_GT(stats.tile_cost_lookups, 0u);
  EXPECT_GT(stats.tile_cost_hits, 0u);
  EXPECT_LT(stats.tile_cost_hits, stats.tile_cost_lookups);
  EXPECT_GT(stats.cam_fom_lookups, 0u);
  EXPECT_GT(stats.cam_fom_hits, 0u);
  EXPECT_LT(stats.cam_fom_hits, stats.cam_fom_lookups);

  // A second identical sweep is a pure cache replay — and caching must not
  // change any result.
  const auto again = ev.evaluate_all(points, profile);
  const auto stats2 = core::evaluation_cache_stats();
  EXPECT_EQ(stats2.tile_cost_hits - stats.tile_cost_hits,
            stats2.tile_cost_lookups - stats.tile_cost_lookups);
  EXPECT_EQ(stats2.cam_fom_hits - stats.cam_fom_hits,
            stats2.cam_fom_lookups - stats.cam_fom_lookups);
  ASSERT_EQ(first.size(), again.size());
  for (std::size_t i = 0; i < first.size(); ++i)
    EXPECT_TRUE(fom_equal(first[i], again[i])) << "point " << i;
}

}  // namespace
}  // namespace xlds
