// Shared definition of the legacy-journal regression fixture.
//
// tests/data/legacy_3tier.xjl is a checked-in format-v1 (pre-surrogate,
// 3-tier) journal of the exploration described by legacy_fixture_config().
// The fixture file is generated by tests/make_legacy_fixture.cpp and the
// regression test in tests/test_surrogate.cpp resumes from it, so both must
// agree on the job — that agreement lives here, in one place.
//
// downgrade_journal_to_v1() rewrites current-format (v2) journal bytes in
// the v1 layout: version field 1, tiers shifted back to the old numbering
// (analytic = 0), the uncertainty field dropped, checksums recomputed.  It
// is the inverse of the upgrade path in dse/journal.cpp and exists only for
// test fixtures — production code never writes v1.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>

#include "dse/engine.hpp"
#include "dse/space.hpp"
#include "util/error.hpp"
#include "util/record.hpp"

namespace xlds::dse::testfix {

inline EngineConfig legacy_fixture_config() {
  EngineConfig config;
  config.axes.devices = {device::DeviceKind::kRram, device::DeviceKind::kFeFet};
  config.axes.archs = {core::ArchKind::kCamAccelerator, core::ArchKind::kCamXbarHybrid};
  config.axes.algos = {core::AlgoKind::kHdc, core::AlgoKind::kMann};
  config.application = "isolet-like";
  config.strategy = "halving";  // spreads records across all three legacy tiers
  config.budget = 0;            // one charge per viable point
  config.seed = 1;
  config.fidelity.max_fidelity = Fidelity::kMonteCarlo;
  return config;
}

inline std::string downgrade_journal_to_v1(const std::string& v2) {
  std::size_t pos = 8;
  std::uint32_t version = 0;
  XLDS_REQUIRE_MSG(v2.compare(0, 8, "XLDSJNL1") == 0 && util::get_raw(v2, pos, version),
                   "not an XLDS journal");
  XLDS_REQUIRE_MSG(version == 2 && v2.size() >= 20, "downgrade expects a format-v2 journal");

  std::string out = v2.substr(0, 8);
  util::put_raw(out, std::uint32_t{1});
  out.append(v2, 12, 8);  // job hash is version-independent

  for (pos = 20; pos < v2.size();) {
    std::string_view frame;
    XLDS_REQUIRE_MSG(util::get_frame(v2, pos, 1u << 20, frame), "torn record in downgrade input");
    std::string body(frame);

    // v2 body layout: key u64 | fidelity u32 | feasible u8 + pad[3]
    //   | 4 x f64 FOM | uncertainty f64 | note length u32 | note bytes.
    XLDS_REQUIRE_MSG(body.size() >= 60, "record body too short to downgrade");
    std::uint32_t fidelity = 0;
    std::memcpy(&fidelity, body.data() + 8, 4);
    XLDS_REQUIRE_MSG(fidelity >= 1, "surrogate-tier records have no v1 representation");
    --fidelity;
    std::memcpy(body.data() + 8, &fidelity, 4);
    body.erase(48, 8);  // v1 has no uncertainty field
    util::put_frame(out, body);
  }
  return out;
}

}  // namespace xlds::dse::testfix
