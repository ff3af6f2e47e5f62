// Register-resident lanes of doubles for bit-identical blocked kernels.
//
// A kernel that runs W independent accumulators side by side (W queries of
// the nodal solver, W rows of a factorization panel, W output pixels of a
// convolution row) keeps them in Lanes<W>: W / N vectors of N doubles, or a
// plain double when W == 1.  N is 2 in a portable TU and 4 in one built with
// AVX (the second build of xbar/nodal_kernels.cpp), capped at W.  GCC keeps
// plain double[W] accumulators in memory, which gains nothing over one
// accumulator at a time; explicit vectors stay in registers.  Every operation
// is lane-wise IEEE arithmetic with the scalar expression's operand order, so
// lane k computes exactly what the one-accumulator loop computes, at either
// vector width.
//
// Each vector width is its own inline namespace (util::vec2, util::vec4), so
// a TU built with AVX and one built without never share a mangled name: the
// linker cannot hand a portable caller the AVX copy of an out-of-line member.
// XLDS_LANES_NS names it for code built at both widths.
//
// Never include this from a TU built with FMA enabled: the compiler may then
// contract `s + a * b` into one rounding, which breaks bit-identity with the
// portable build.  The AVX build of the nodal kernels passes -mno-fma
// -ffp-contract=off for that reason.
#pragma once

#include <cstddef>
#include <cstring>

#if defined(__AVX__)
#define XLDS_LANES_NS vec4
#else
#define XLDS_LANES_NS vec2
#endif

namespace xlds::util {
inline namespace XLDS_LANES_NS {

/// The vector of N doubles.  The four-wide type exists only where AVX is
/// on: a 32-byte vector in a TU without it would change the calling
/// convention (GCC's -Wpsabi).
template <std::size_t N>
struct Vec;

template <>
struct Vec<2> {
  using type = double __attribute__((vector_size(16)));
  static type splat(double a) { return type{a, a}; }
};

#if defined(__AVX__)
template <>
struct Vec<4> {
  using type = double __attribute__((vector_size(32)));
  static type splat(double a) { return type{a, a, a, a}; }
};
/// Doubles per vector register in this TU.
inline constexpr std::size_t kVectorWidth = 4;
#else
inline constexpr std::size_t kVectorWidth = 2;
#endif

template <std::size_t W>
struct Lanes {
  static constexpr std::size_t N = W < kVectorWidth ? W : kVectorWidth;  ///< doubles per vector
  static_assert(N >= 2 && W % N == 0, "blocks are whole vectors");
  using V = typename Vec<N>::type;
  V v[W / N];

  static Lanes splat(double a) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) l.v[j] = Vec<N>::splat(a);
    return l;
  }
  // One vector-sized copy per vector: copying the whole array at once takes
  // its address, and GCC then spills the accumulators to the stack.
  static Lanes load(const double* p) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) {
      V t;
      std::memcpy(&t, p + N * j, sizeof t);
      l.v[j] = t;
    }
    return l;
  }
  /// Lane k holds p[k * stride].  (The index expressions are spelled out
  /// here: through a helper, GCC schedules the CNN kernels differently.)
  static Lanes load(const double* p, std::size_t stride) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) {
      if constexpr (N == 2) {
        l.v[j] = V{p[2 * j * stride], p[(2 * j + 1) * stride]};
      } else {
        l.v[j] = V{p[4 * j * stride], p[(4 * j + 1) * stride], p[(4 * j + 2) * stride],
                   p[(4 * j + 3) * stride]};
      }
    }
    return l;
  }
  void store(double* p) const {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) {
      const V t = v[j];
      std::memcpy(p + N * j, &t, sizeof t);
    }
  }
  /// this += b, lane by lane.
  void add(const Lanes& b) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] += b.v[j];
  }
  /// this += a * b, lane by lane.
  void add_mul(double a, const Lanes& b) {
    const V av = Vec<N>::splat(a);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] += av * b.v[j];
  }
  /// this += a * b, lane by lane (the scalar operand on the right).
  void add_mul(const Lanes& a, double b) {
    const V bv = Vec<N>::splat(b);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] += a.v[j] * bv;
  }
  /// this -= a * b, lane by lane.
  void sub_mul(double a, const Lanes& b) {
    const V av = Vec<N>::splat(a);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] -= av * b.v[j];
  }
  /// this -= a * b, lane by lane (both operands per lane).
  void sub_mul(const Lanes& a, const Lanes& b) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] -= a.v[j] * b.v[j];
  }
  void div(double d) {
    const V dv = Vec<N>::splat(d);
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / N; ++j) v[j] /= dv;
  }
};

template <>
struct Lanes<1> {
  double v;

  static Lanes splat(double a) { return Lanes{a}; }
  static Lanes load(const double* p) { return Lanes{*p}; }
  static Lanes load(const double* p, std::size_t) { return Lanes{*p}; }
  void store(double* p) const { *p = v; }
  void add(const Lanes& b) { v += b.v; }
  void add_mul(double a, const Lanes& b) { v += a * b.v; }
  void add_mul(const Lanes& a, double b) { v += a.v * b; }
  void sub_mul(double a, const Lanes& b) { v -= a * b.v; }
  void sub_mul(const Lanes& a, const Lanes& b) { v -= a.v * b.v; }
  void div(double d) { v /= d; }
};

/// Cover [begin, end) with blocks: `f.template operator()<W>(i)` for each
/// whole block of W starting at i, then the ragged tail through the same
/// callable at W / 2, W / 4, ..., 1.  W is a power of two.
template <std::size_t W, typename F>
void for_each_block(std::size_t begin, std::size_t end, F&& f) {
  static_assert((W & (W - 1)) == 0, "block width is a power of two");
  for (; begin + W <= end; begin += W) f.template operator()<W>(begin);
  if constexpr (W > 1) for_each_block<W / 2>(begin, end, f);
}

}  // namespace XLDS_LANES_NS
}  // namespace xlds::util
