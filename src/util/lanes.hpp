// Register-resident lanes of doubles for bit-identical blocked kernels.
//
// A kernel that runs W independent accumulators side by side (W queries of
// the nodal solver, W rows of a factorization panel, W output pixels of a
// convolution row) keeps them in Lanes<W>: W / 2 two-wide vectors, or a
// plain double when W == 1.  GCC keeps plain double[W] accumulators in
// memory, which gains nothing over one accumulator at a time; explicit
// vectors stay in registers.  Every operation is lane-wise IEEE arithmetic
// with the scalar expression's operand order, so lane k computes exactly
// what the one-accumulator loop computes.
//
// Never include this from a TU built with -march=native (src/kernels/ under
// XLDS_NATIVE): on an FMA target the compiler may contract `s + a * b` into
// one rounding, which breaks bit-identity with the portable build.
#pragma once

#include <cstddef>
#include <cstring>

namespace xlds::util {

using V2 = double __attribute__((vector_size(16)));

template <std::size_t W>
struct Lanes {
  static_assert(W % 2 == 0, "blocks are whole vectors");
  V2 v[W / 2];

  static Lanes splat(double a) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) l.v[j] = V2{a, a};
    return l;
  }
  // One 16-byte copy per vector: copying the whole array at once takes its
  // address, and GCC then spills the accumulators to the stack.
  static Lanes load(const double* p) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) {
      V2 t;
      std::memcpy(&t, p + 2 * j, sizeof t);
      l.v[j] = t;
    }
    return l;
  }
  /// Lane k holds p[k * stride].
  static Lanes load(const double* p, std::size_t stride) {
    Lanes l;
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) l.v[j] = V2{p[2 * j * stride], p[(2 * j + 1) * stride]};
    return l;
  }
  void store(double* p) const {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) {
      const V2 t = v[j];
      std::memcpy(p + 2 * j, &t, sizeof t);
    }
  }
  /// this += b, lane by lane.
  void add(const Lanes& b) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] += b.v[j];
  }
  /// this += a * b, lane by lane.
  void add_mul(double a, const Lanes& b) {
    const V2 av = {a, a};
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] += av * b.v[j];
  }
  /// this += a * b, lane by lane (the scalar operand on the right).
  void add_mul(const Lanes& a, double b) {
    const V2 bv = {b, b};
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] += a.v[j] * bv;
  }
  /// this -= a * b, lane by lane.
  void sub_mul(double a, const Lanes& b) {
    const V2 av = {a, a};
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] -= av * b.v[j];
  }
  /// this -= a * b, lane by lane (both operands per lane).
  void sub_mul(const Lanes& a, const Lanes& b) {
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] -= a.v[j] * b.v[j];
  }
  void div(double d) {
    const V2 dv = {d, d};
#pragma GCC unroll 8
    for (std::size_t j = 0; j < W / 2; ++j) v[j] /= dv;
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

}  // namespace xlds::util
