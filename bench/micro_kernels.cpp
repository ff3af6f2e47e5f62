// Micro-benchmarks (google-benchmark) of the framework's hot kernels: CAM
// search, crossbar MVM (per IR-drop mode), HDC encode, TCAM search, and the
// src/kernels/ compute layer (bit-packed Hamming, tiled MVM, batched
// samplers) against the scalar paths it replaced.  These bound the
// simulator's own throughput — how many design points per second a triage
// sweep can afford.
//
// After the google-benchmark suite, main() measures the kernels-vs-scalar
// speedups, the fig3g Monte-Carlo variation sweep (batched vs scalar, on one
// lane) among them, and writes BENCH_kernels.json.
//
// `micro_kernels --kernel-smoke` runs only a ~1 s sanity comparison and exits
// nonzero if the packed Hamming kernel is slower than the scalar reference —
// the CI gate against a silently deoptimised kernel layer.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "cam/fefet_cam.hpp"
#include "cam/rram_tcam.hpp"
#include "device/fefet.hpp"
#include "hdc/encoder.hpp"
#include "kernels/bitpack.hpp"
#include "kernels/dispatch.hpp"
#include "kernels/mvm.hpp"
#include "kernels/sampler.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "xbar/crossbar.hpp"

using namespace xlds;

namespace {

void BM_FeFetCamSearch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  cam::FeFetCamConfig cfg;
  cfg.fefet.bits = 3;
  cfg.rows = rows;
  cfg.cols = 128;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  Rng rng(1);
  cam::FeFetCamArray cam(cfg, rng);
  Rng data(2);
  std::vector<int> word(cfg.cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int& d : word) d = static_cast<int>(data.uniform_u32(8));
    cam.write_word(r, word);
  }
  std::vector<int> query(cfg.cols);
  for (int& d : query) d = static_cast<int>(data.uniform_u32(8));
  for (auto _ : state) {
    benchmark::DoNotOptimize(cam.search(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cfg.cols));
}
BENCHMARK(BM_FeFetCamSearch)->Arg(16)->Arg(64)->Arg(256);

void BM_RramTcamSearch(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  cam::RramTcamConfig cfg;
  cfg.rows = rows;
  cfg.cols = 128;
  cfg.apply_variation = false;
  cfg.sense_noise_rel = 0.0;
  Rng rng(3);
  cam::RramTcamArray tcam(cfg, rng);
  Rng data(4);
  std::vector<int> word(cfg.cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (int& b : word) b = data.bernoulli(0.5) ? 1 : 0;
    tcam.write_word(r, word);
  }
  std::vector<int> query(cfg.cols);
  for (int& b : query) b = data.bernoulli(0.5) ? 1 : 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tcam.search(query));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cfg.cols));
}
BENCHMARK(BM_RramTcamSearch)->Arg(16)->Arg(64)->Arg(256);

void BM_CrossbarMvm(benchmark::State& state) {
  xbar::CrossbarConfig cfg;
  cfg.rows = 64;
  cfg.cols = 64;
  cfg.apply_variation = false;
  cfg.read_noise_rel = 0.0;
  cfg.ir_drop = static_cast<xbar::IrDropMode>(state.range(0));
  Rng rng(5);
  xbar::Crossbar xb(cfg, rng);
  MatrixD w(64, 32);
  Rng data(6);
  for (double& v : w.data()) v = data.uniform(-1.0, 1.0);
  xb.program_weights(w);
  std::vector<double> x(64);
  for (double& v : x) v = data.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(xb.mvm(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 64 * 64);
}
BENCHMARK(BM_CrossbarMvm)
    ->Arg(static_cast<int>(xbar::IrDropMode::kNone))
    ->Arg(static_cast<int>(xbar::IrDropMode::kAnalytic))
    ->Arg(static_cast<int>(xbar::IrDropMode::kNodal));

void BM_HdcEncode(benchmark::State& state) {
  const auto hv_dim = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  hdc::HdcEncoder enc(617, hv_dim, rng);
  std::vector<double> x(617);
  Rng data(8);
  for (double& v : x) v = data.uniform();
  for (auto _ : state) {
    benchmark::DoNotOptimize(enc.encode(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(enc.macs()));
}
BENCHMARK(BM_HdcEncode)->Arg(1024)->Arg(4096);

// ---- kernels layer vs scalar paths -----------------------------------------

std::vector<double> random_signs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.bernoulli(0.5) ? 1.0 : -1.0;
  return v;
}

void BM_HammingScalarDouble(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::vector<double> a = random_signs(n, 11), b = random_signs(n, 12);
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::hamming_ref(a.data(), b.data(), n));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HammingScalarDouble)->Arg(1024)->Arg(4096);

void BM_HammingPacked(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const kernels::PackedBits a = kernels::pack_signs(random_signs(n, 11));
  const kernels::PackedBits b = kernels::pack_signs(random_signs(n, 12));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernels::hamming(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_HammingPacked)->Arg(1024)->Arg(4096);

// The old Matrix<T>::matvec_transposed inner loop, verbatim (no restrict, no
// tiling), compiled with the bench TU's default flags — the honest "before".
void matvec_t_legacy(const double* a, std::size_t rows, std::size_t cols, const double* x,
                     double* y) {
  for (std::size_t c = 0; c < cols; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows; ++r) {
    const double* row = a + r * cols;
    const double xr = x[r];
    for (std::size_t c = 0; c < cols; ++c) y[c] += row[c] * xr;
  }
}

void BM_MatvecTLegacy(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  Rng rng(13);
  std::vector<double> a(rows * cols), x(rows), y(cols);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : x) v = rng.uniform();
  for (auto _ : state) {
    matvec_t_legacy(a.data(), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_MatvecTLegacy)->Args({64, 64})->Args({617, 4096});

void BM_MatvecTKernel(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto cols = static_cast<std::size_t>(state.range(1));
  Rng rng(13);
  std::vector<double> a(rows * cols), x(rows), y(cols);
  for (double& v : a) v = rng.uniform(-1.0, 1.0);
  for (double& v : x) v = rng.uniform();
  for (auto _ : state) {
    kernels::matvec_t(a.data(), rows, cols, x.data(), y.data());
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows * cols));
}
BENCHMARK(BM_MatvecTKernel)->Args({64, 64})->Args({617, 4096});

void BM_NormalPolar(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> block(4096);
  for (auto _ : state) {
    for (double& v : block) v = rng.normal(0.5, 0.094);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_NormalPolar);

void BM_NormalFastBatch(benchmark::State& state) {
  Rng rng(17);
  std::vector<double> block(4096);
  for (auto _ : state) {
    kernels::fill_normal_fast(rng, block.data(), block.size(), 0.5, 0.094);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(block.size()));
}
BENCHMARK(BM_NormalFastBatch);

// ---- direct kernels-vs-scalar timing (BENCH_kernels.json + smoke gate) ------

/// Best-of-reps wall time of `iters` calls to fn.
template <class Fn>
double time_best(Fn&& fn, int iters, int reps = 3) {
  double best = 1e30;
  for (int rep = 0; rep < reps; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < iters; ++i) fn();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

/// The fig3g_variation_accuracy Monte Carlo kernel, scalar form: one
/// program-and-read-back per trial through rng.normal.  Returns the error
/// count.
std::size_t run_mc_sweep_scalar(std::size_t trials) {
  device::FeFetParams params;
  params.bits = 3;
  params.sigma_program = 0.094;
  const device::FeFetModel model(params);
  const int mid = params.levels() / 2;
  constexpr std::size_t kChunk = 500;
  Rng rng(7);
  std::vector<std::size_t> chunk_errors((trials + kChunk - 1) / kChunk, 0);
  parallel_for_rng(rng, trials, kChunk,
                   [&](Rng& trial_rng, std::size_t begin, std::size_t end, std::size_t ci) {
                     std::size_t errors = 0;
                     for (std::size_t t = begin; t < end; ++t)
                       if (model.readback_level(model.program_vth(mid, trial_rng)) != mid)
                         ++errors;
                     chunk_errors[ci] = errors;
                   });
  std::size_t errors = 0;
  for (std::size_t e : chunk_errors) errors += e;
  return errors;
}

/// Batched form: per chunk, one fill_normal_fast block plus one vectorised
/// readback_errors pass.  Same estimator with its own draw sequence, so its
/// error count differs from the scalar kernel's.
std::size_t run_mc_sweep_batched(std::size_t trials) {
  device::FeFetParams params;
  params.bits = 3;
  params.sigma_program = 0.094;
  const device::FeFetModel model(params);
  const int mid = params.levels() / 2;
  const double mid_vth = model.level_vth(mid);
  constexpr std::size_t kChunk = 2000;
  Rng rng(7);
  std::vector<std::size_t> chunk_errors((trials + kChunk - 1) / kChunk, 0);
  parallel_for_rng(rng, trials, kChunk,
                   [&](Rng& trial_rng, std::size_t begin, std::size_t end, std::size_t ci) {
                     std::vector<double> vth(end - begin);
                     kernels::fill_normal_fast(trial_rng, vth.data(), vth.size(), mid_vth,
                                               params.sigma_program);
                     chunk_errors[ci] = model.readback_errors(mid, vth.data(), vth.size());
                   });
  std::size_t errors = 0;
  for (std::size_t e : chunk_errors) errors += e;
  return errors;
}

struct KernelComparison {
  const char* name;
  const char* scalar_path;
  double scalar_seconds;
  double kernel_seconds;
  double speedup() const { return scalar_seconds / kernel_seconds; }
};

/// Measure the headline kernels against their scalar predecessors.
/// `quick` shrinks the iteration counts for the ~1 s CI smoke run.
std::vector<KernelComparison> measure_kernels(bool quick) {
  std::vector<KernelComparison> out;
  const int scale = quick ? 1 : 8;

  {  // Hamming: packed XOR+popcount vs the scalar double-vector sign loop.
    constexpr std::size_t kDim = 4096;
    const std::vector<double> a = random_signs(kDim, 11), b = random_signs(kDim, 12);
    const kernels::PackedBits pa = kernels::pack_signs(a), pb = kernels::pack_signs(b);
    const int iters = 4000 * scale;
    std::size_t sink = 0;
    const double scalar = time_best(
        [&] { sink += kernels::hamming_ref(a.data(), b.data(), kDim); }, iters);
    const double packed =
        time_best([&] { sink += kernels::hamming(pa, pb); }, iters);
    benchmark::DoNotOptimize(sink);
    out.push_back({"hamming_4096", "scalar double-vector sign compare", scalar, packed});
  }

  {  // MVM: tiled restrict kernel vs the legacy Matrix loop.
    constexpr std::size_t kRows = 617, kCols = 4096;
    Rng rng(13);
    std::vector<double> a(kRows * kCols), x(kRows), y(kCols);
    for (double& v : a) v = rng.uniform(-1.0, 1.0);
    for (double& v : x) v = rng.uniform();
    const int iters = 20 * scale;
    const double scalar = time_best(
        [&] { matvec_t_legacy(a.data(), kRows, kCols, x.data(), y.data()); }, iters);
    const double kernel = time_best(
        [&] { kernels::matvec_t(a.data(), kRows, kCols, x.data(), y.data()); }, iters);
    benchmark::DoNotOptimize(y.data());
    out.push_back({"matvec_t_617x4096", "Matrix::matvec_transposed loop", scalar, kernel});
  }

  {  // Gaussian block: inverse-CDF batch vs per-call polar draws.
    std::vector<double> block(4096);
    Rng rng_a(17), rng_b(17);
    const int iters = 200 * scale;
    const double scalar = time_best(
        [&] {
          for (double& v : block) v = rng_a.normal(0.5, 0.094);
        },
        iters);
    const double kernel = time_best(
        [&] { kernels::fill_normal_fast(rng_b, block.data(), block.size(), 0.5, 0.094); },
        iters);
    benchmark::DoNotOptimize(block.data());
    out.push_back({"fill_normal_fast_4096", "per-call polar rng.normal", scalar, kernel});
  }

  {  // The fig3g Monte-Carlo sweep on one lane: batched draws and readback
     // per chunk vs one rng.normal program-and-read-back per trial.
    constexpr std::size_t kTrials = 500'000;
    set_parallel_threads(1);
    std::size_t sink = 0;
    const double scalar = time_best([&] { sink += run_mc_sweep_scalar(kTrials); }, scale);
    const double kernel = time_best([&] { sink += run_mc_sweep_batched(kTrials); }, scale);
    set_parallel_threads(0);  // back to XLDS_THREADS / hardware default
    benchmark::DoNotOptimize(sink);
    out.push_back({"mc_sweep_500k", "per-trial rng.normal program+readback", scalar, kernel});
  }
  return out;
}

void print_comparisons(const std::vector<KernelComparison>& cs) {
  for (const KernelComparison& c : cs)
    std::cout << "  " << c.name << ": scalar " << c.scalar_seconds * 1e3 << " ms, kernel "
              << c.kernel_seconds * 1e3 << " ms, speedup " << c.speedup() << "x\n";
}

void emit_kernels_json() {
  std::cout << "\nKernel layer vs scalar paths (isa: " << kernels::isa_name() << "):\n";
  const std::vector<KernelComparison> cs = measure_kernels(/*quick=*/false);
  print_comparisons(cs);

  std::ofstream json("BENCH_kernels.json");
  json << "{\n"
       << "  \"bench\": \"compute_kernel_layer\",\n"
       << "  \"isa\": \"" << kernels::isa_name() << "\",\n"
       << "  \"results\": [\n";
  for (std::size_t i = 0; i < cs.size(); ++i) {
    const KernelComparison& c = cs[i];
    json << "    {\"kernel\": \"" << c.name << "\", \"scalar_path\": \"" << c.scalar_path
         << "\", \"scalar_seconds\": " << c.scalar_seconds
         << ", \"kernel_seconds\": " << c.kernel_seconds << ", \"speedup\": " << c.speedup()
         << "}" << (i + 1 < cs.size() ? "," : "") << "\n";
  }
  json << "  ]\n}\n";
  std::cout << "  -> BENCH_kernels.json\n";
}

/// CI smoke gate: a fast scalar-vs-kernel comparison; fails (nonzero) if the
/// packed Hamming kernel has regressed below the scalar reference.
int run_kernel_smoke() {
  std::cout << "kernel smoke (isa: " << kernels::isa_name() << "):\n";
  const std::vector<KernelComparison> cs = measure_kernels(/*quick=*/true);
  print_comparisons(cs);
  bool ok = true;
  for (const KernelComparison& c : cs) {
    if (c.speedup() >= 1.0) continue;
    // Hard gates: the packed Hamming kernel (compute-bound, large headroom)
    // and the matvec_t kernel — row blocking gives the latter real daylight
    // over the legacy loop even on the bandwidth-saturated 617x4096 shape, so
    // "never slower than scalar" is now enforceable rather than flaky.
    if (std::strcmp(c.name, "hamming_4096") == 0 ||
        std::strcmp(c.name, "matvec_t_617x4096") == 0) {
      std::cout << "FAIL: " << c.name << " is slower than its scalar path (speedup "
                << c.speedup() << "x)\n";
      ok = false;
    } else {
      std::cout << "WARN: " << c.name << " slower than its scalar path (speedup "
                << c.speedup() << "x)\n";
    }
  }
  std::cout << (ok ? "kernel smoke OK\n" : "kernel smoke FAILED\n");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--kernel-smoke") == 0) return run_kernel_smoke();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_kernels_json();
  return 0;
}
