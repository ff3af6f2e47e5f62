// Dispatch policy for the compute-kernel layer (src/kernels/).
//
// Every kernel in this layer ships two implementations:
//
//   * a *scalar reference* (`*_ref`), written as the straightforward loop the
//     rest of the codebase used before this layer existed.  References are the
//     semantic ground truth: tests assert the optimised path reproduces them
//     bit-exactly (bit-packed Hamming, sequence-compatible samplers) or within
//     a documented ULP bound (blocked MVM).
//   * an *optimised default*, structured so the compiler can vectorise it:
//     bit-parallel word operations (XOR + popcount), restrict-qualified
//     contiguous spans, column-tiled accumulation, and branch-free inner
//     loops.  The kernel TUs are compiled at -O3 (see src/kernels/CMakeLists)
//     for the portable target; headers never require any ISA.
//
// Dispatch is resolved at compile time inside the kernel TUs: the public
// entry points (kernels::hamming, kernels::matvec_t, ...) are always the
// optimised path, and the references stay exported for tests and the
// bench-smoke CI gate (which fails the build if optimised < reference).
//
// Determinism contract (inherited from util/parallel): a kernel's output is a
// pure function of its inputs — no hidden state, no thread-count dependence.
// Samplers document their draw sequence relative to util::Rng so call sites
// know whether swapping a per-call loop for a block call preserves golden
// values (fill_* do; fill_normal_fast defines its own sequence).
#pragma once

namespace xlds::kernels {

/// Human-readable description of how the kernel TUs were compiled — shown by
/// benches so BENCH_kernels.json records which build produced the numbers.
const char* isa_name() noexcept;

}  // namespace xlds::kernels
