// Tests for the work-stealing task scheduler: nested-parallel bit-equality
// across thread counts against the 1-lane (inline) result, first-by-index
// exception determinism, steal-heavy nested stress (the TSan workhorse),
// cooperative counters, and the per-call minimum-work floor.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/counters.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace xlds {
namespace {

/// Restores the pool width after each test so overrides never leak across
/// test cases.
class SchedulerTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(0); }
};

/// Pool widths every bit-equality check runs at, against the 1-lane result.
constexpr std::size_t kLaneCounts[] = {1, 8, 16};

/// Outer DSE-style batch x inner MC-style chunked RNG sweep: the nested shape
/// whose result must be a pure function of (points, trials) — never of the
/// thread count or task placement.
std::vector<double> nested_sweep(std::size_t points, std::size_t trials) {
  return parallel_map<double>(points, [&](std::size_t p) {
    Rng rng(1234 + p);
    const std::size_t chunk = 64;
    const std::size_t n_chunks = (trials + chunk - 1) / chunk;
    std::vector<double> partial(n_chunks, 0.0);
    parallel_for_rng(rng, trials, chunk,
                     [&](Rng& r, std::size_t begin, std::size_t end, std::size_t ci) {
                       double s = 0.0;
                       for (std::size_t i = begin; i < end; ++i) s += r.normal();
                       partial[ci] = s;
                     });
    double acc = 0.0;
    for (const double s : partial) acc += s;  // chunk-index order
    return acc;
  });
}

TEST_F(SchedulerTest, NestedSweepBitIdenticalAcrossThreadsAndModes) {
  const std::size_t points = 6, trials = 2000;
  set_parallel_threads(1);
  const std::vector<double> serial = nested_sweep(points, trials);

  for (const std::size_t threads : kLaneCounts) {
    set_parallel_threads(threads);
    const std::vector<double> got = nested_sweep(points, trials);
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < got.size(); ++i)
      EXPECT_EQ(got[i], serial[i]) << "point " << i << " threads " << threads;
  }
}

TEST_F(SchedulerTest, ExceptionPropagatesFirstByIndexNotFirstByTime) {
  for (const std::size_t threads : kLaneCounts) {
    set_parallel_threads(threads);
    for (int rep = 0; rep < 20; ++rep) {
      try {
        // Chunk 11 delays before throwing while 37 and 53 throw immediately:
        // a first-by-time scheduler would usually surface 37 or 53 here.
        parallel_for(100, 1, [&](std::size_t begin, std::size_t, std::size_t ci) {
          if (ci == 11) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
            throw std::runtime_error("11");
          }
          if (ci == 37 || ci == 53) throw std::runtime_error(std::to_string(ci));
          (void)begin;
        });
        FAIL() << "expected an exception";
      } catch (const std::runtime_error& e) {
        EXPECT_STREQ(e.what(), "11") << "threads " << threads;
      }
    }
  }
  // The pool stays usable after failures.
  const std::vector<int> ok =
      parallel_map<int>(32, [](std::size_t i) { return static_cast<int>(i) * 3; });
  for (std::size_t i = 0; i < ok.size(); ++i) EXPECT_EQ(ok[i], static_cast<int>(i) * 3);
}

TEST_F(SchedulerTest, NestedExceptionPropagatesThroughCooperativeJoin) {
  set_parallel_threads(8);
  try {
    parallel_for(8, 1, [&](std::size_t begin, std::size_t, std::size_t) {
      parallel_for(16, 1, [&](std::size_t b2, std::size_t, std::size_t) {
        if (begin == 2 && b2 == 5) throw std::runtime_error("inner");
      });
    });
    FAIL() << "expected the inner exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "inner");
  }
  EXPECT_EQ(parallel_sum(64, 4, [](std::size_t) { return 1.0; }), 64.0);
}

TEST_F(SchedulerTest, StealHeavyNestedStressIsRaceFreeAndCooperative) {
  set_parallel_threads(8);
  const core::Profiler::SchedCounts before = core::Profiler::sched();
  constexpr std::size_t kOuter = 32, kInner = 16, kReps = 10;
  for (std::size_t rep = 0; rep < kReps; ++rep) {
    std::vector<std::vector<int>> slots(kOuter, std::vector<int>(kInner, -1));
    std::atomic<std::size_t> executed{0};
    parallel_for(kOuter, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
      for (std::size_t o = begin; o < end; ++o) {
        parallel_for(kInner, 1, [&](std::size_t b2, std::size_t e2, std::size_t) {
          for (std::size_t i = b2; i < e2; ++i) {
            slots[o][i] = static_cast<int>(o * kInner + i);
            executed.fetch_add(1, std::memory_order_relaxed);
          }
        });
      }
    });
    EXPECT_EQ(executed.load(), kOuter * kInner);
    for (std::size_t o = 0; o < kOuter; ++o)
      for (std::size_t i = 0; i < kInner; ++i)
        EXPECT_EQ(slots[o][i], static_cast<int>(o * kInner + i));
  }
  const core::Profiler::SchedCounts after = core::Profiler::sched();
  // Every inner call submits to the shared deques instead of inlining.
  EXPECT_GE(after.nested_cooperative - before.nested_cooperative, kOuter * kReps);
  EXPECT_EQ(after.nested_inlined, before.nested_inlined);
  EXPECT_GT(after.tasks + after.stolen_tasks, before.tasks + before.stolen_tasks);
}

TEST_F(SchedulerTest, MinWorkFloorRunsTinyBatchesInline) {
  set_parallel_threads(8);
  const core::Profiler::SchedCounts before = core::Profiler::sched();
  std::vector<int> hits(100, 0);
  parallel_for(
      100, 10,
      [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t i = begin; i < end; ++i) ++hits[i];
      },
      /*min_items_per_task=*/1000);
  const core::Profiler::SchedCounts after = core::Profiler::sched();
  for (const int h : hits) EXPECT_EQ(h, 1);
  // 100 items under a 1000-item floor -> one task -> no pool dispatch.
  EXPECT_EQ(after.jobs, before.jobs);
  EXPECT_GE(after.inline_jobs - before.inline_jobs, 1u);
}

TEST_F(SchedulerTest, ParallelSumBitIdenticalAcrossModes) {
  const auto run = [] {
    return parallel_sum(10000, 128, [](std::size_t i) {
      return std::sin(static_cast<double>(i) * 0.37) / (1.0 + static_cast<double>(i % 97));
    });
  };
  set_parallel_threads(1);
  const double serial = run();
  for (const std::size_t threads : kLaneCounts) {
    set_parallel_threads(threads);
    EXPECT_EQ(run(), serial) << "threads " << threads;
  }
}

}  // namespace
}  // namespace xlds
