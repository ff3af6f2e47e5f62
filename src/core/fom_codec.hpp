// The byte layout of a core::Fom in every XLDS record format (util/record.hpp):
//
//   values:  feasible u8 | pad[3] | latency f64 | energy f64 | area_mm2 f64
//            | accuracy f64
//   note:    note length u32 | note bytes
//
// It is split at the note because the journal's v2 body stores the
// surrogate uncertainty between the two halves.
#pragma once

#include <array>

#include "core/evaluate.hpp"
#include "util/record.hpp"

namespace xlds::core {

/// Bytes of the smallest encoded FOM: the values and an empty note.
constexpr std::size_t kFomMinBytes = 4 + 4 * sizeof(double) + sizeof(std::uint32_t);

using FomPad = std::array<std::uint8_t, 3>;

inline void put_fom_values(std::string& out, const Fom& fom) {
  util::put_raw(out, static_cast<std::uint8_t>(fom.feasible ? 1 : 0));
  util::put_raw(out, FomPad{});
  for (const double v : {fom.latency, fom.energy, fom.area_mm2, fom.accuracy})
    util::put_raw(out, v);
}

inline bool get_fom_values(std::string_view in, std::size_t& pos, Fom& fom) {
  std::uint8_t feasible = 0;
  FomPad pad;
  if (!util::get_raw(in, pos, feasible) || !util::get_raw(in, pos, pad)) return false;
  fom.feasible = feasible != 0;
  for (double* v : {&fom.latency, &fom.energy, &fom.area_mm2, &fom.accuracy})
    if (!util::get_raw(in, pos, *v)) return false;
  return true;
}

/// Both halves back to back, as the result cache and the wire store a FOM.
inline void put_fom(std::string& out, const Fom& fom) {
  put_fom_values(out, fom);
  util::put_string(out, fom.note);
}

inline bool get_fom(std::string_view in, std::size_t& pos, Fom& fom) {
  return get_fom_values(in, pos, fom) && util::get_string(in, pos, fom.note);
}

}  // namespace xlds::core
