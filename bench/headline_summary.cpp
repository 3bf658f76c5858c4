// Headline numbers (paper §I and §IV text): maximum clean-payload
// throughput per implementation and protocol, plus the simultaneous
// throughput+latency improvements the abstract claims.
//
// Paper reference points (8 nodes, 1350B unless noted):
//   1GbE:  Spread accelerated reaches >920 Mbps (network saturation);
//          accelerated improves latency by ~45% while raising throughput
//          30-60% over the original protocol.
//   10GbE: max throughput — Spread 2.3 Gbps (vs 1.7 original), daemon
//          prototype 3.3 Gbps, library prototype 4.6 Gbps.
//   10GbE, 8850B payloads: Spread 5.3 Gbps, daemon 6 Gbps, library 7.3 Gbps.
#include "bench_common.hpp"

namespace {

using namespace accelring::bench;
using accelring::harness::PointResult;

void report_max(std::vector<Curve>& curves, const char* fabric_name,
                bool ten_gig, size_t payload, double start, double step,
                double ceiling) {
  std::vector<double> loads;
  for (double offered = start; offered <= ceiling; offered += step) {
    loads.push_back(offered);
  }
  std::printf("---- max clean-payload throughput, %s, %zuB ----\n",
              fabric_name, payload);
  std::printf("%-10s %-14s %14s %14s\n", "impl", "protocol", "max_mbps",
              "mean_lat_us");
  for (ImplProfile profile :
       {ImplProfile::kLibrary, ImplProfile::kDaemon, ImplProfile::kSpread}) {
    for (Variant variant : {Variant::kOriginal, Variant::kAccelerated}) {
      PointConfig pc = base_point(ten_gig);
      pc.profile = profile;
      pc.proto = accelring::harness::bench_protocol(variant);
      pc.service = Service::kAgreed;
      pc.payload_size = payload;
      const PointResult best =
          accelring::harness::find_max_throughput(pc, loads);
      Curve curve;
      curve.label = std::string(fabric_name) + " / " +
                    curve_label(profile, variant, Service::kAgreed, payload);
      curve.points.push_back(best);
      curves.push_back(std::move(curve));
      std::printf("%-10s %-14s %14.0f %14.1f\n",
                  accelring::harness::profile_name(profile),
                  variant == Variant::kOriginal ? "original" : "accelerated",
                  best.achieved_mbps,
                  accelring::util::to_usec(best.mean_latency));
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  std::printf("==== Headline summary: maximum throughputs ====\n\n");
  std::vector<Curve> curves;
  report_max(curves, "1GbE", false, 1350, 500, 100, 1000);
  report_max(curves, "10GbE", true, 1350, 1500, 500, 5500);
  report_max(curves, "10GbE", true, 8850, 4000, 500, 8500);
  emit_bench_artifacts("headline_summary", curves);
  return 0;
}
