// Multi-ring scaling: aggregate merged throughput for K = 1, 2, 4, 8 rings
// on the simulated 10-gigabit fabric, versus the single-ring baseline.
//
// Each K runs through harness::run_point with `rings = K`, so every row uses
// the §IV method of the other figures: fixed-rate stamped senders (16 × K
// ordering keys each), injection-to-client latency, clean payload over the
// window. Each K is swept over offered load (K x a per-ring grid) and
// reported at its best achieved merged throughput — the same max-throughput
// search as the paper's headline numbers, which stops at the first load
// where achieved falls below 85% of offered. The grid starts far below
// single-ring capacity because at K > 1 the round-robin merge, not the
// rings, saturates first (at a few hundred Mbps per ring), and a grid that
// began above that rate would stop at its first load. The
// scaling column is the multiplier over the K=1 baseline's best. Latency is
// injection to merged client receipt, so it includes time a message waits
// for the round-robin cursor to reach its ring.
#include <cstdio>

#include "bench_common.hpp"

namespace accelring::bench {
namespace {

using harness::PointResult;

PointConfig scaling_point(int rings, protocol::Service service) {
  PointConfig pc = base_point(/*ten_gig=*/true);
  pc.rings = rings;
  pc.proto = harness::bench_protocol(Variant::kAccelerated);
  pc.profile = ImplProfile::kLibrary;
  pc.service = service;
  pc.payload_size = 1350;
  pc.measure = util::msec(200);
  return pc;
}

void print_multiring_row(int rings, const PointResult& r,
                         double baseline_mbps) {
  std::printf(
      "%5d %12.0f %12.1f %8.2fx %12.1f %12.1f %10llu %10llu %8.1f\n", rings,
      r.offered_mbps, r.achieved_mbps,
      baseline_mbps > 0 ? r.achieved_mbps / baseline_mbps : 1.0,
      util::to_usec(r.mean_latency), util::to_usec(r.p99_latency),
      static_cast<unsigned long long>(r.retransmits),
      static_cast<unsigned long long>(r.buffer_drops + r.submit_rejected),
      100.0 * r.max_cpu_utilization);
}

void run_service(const char* title, protocol::Service service) {
  std::printf("# %s (library profile, accelerated, 1350B, 8 nodes/ring)\n",
              title);
  std::printf("%5s %12s %12s %9s %12s %12s %10s %10s %8s\n", "K",
              "offered_mbps", "merged_mbps", "scaling", "mean_lat_us",
              "p99_us", "retrans", "drops", "cpu%");
  double baseline = 0;
  for (int rings : {1, 2, 4, 8}) {
    std::vector<double> loads;
    for (double per_ring : {125.0, 250.0, 500.0, 750.0, 1000.0, 1500.0,
                             2000.0, 3000.0, 3750.0, 4250.0, 4750.0,
                             5250.0}) {
      loads.push_back(per_ring * rings);
    }
    const PointResult r =
        harness::find_max_throughput(scaling_point(rings, service), loads);
    if (rings == 1) baseline = r.achieved_mbps;
    print_multiring_row(rings, r, baseline);
  }
  std::printf("\n");
}

}  // namespace
}  // namespace accelring::bench

int main() {
  std::printf("==== Multi-ring sharded ordering: throughput scaling ====\n\n");
  accelring::bench::run_service("Agreed delivery",
                                accelring::protocol::Service::kAgreed);
  accelring::bench::run_service("Safe delivery",
                                accelring::protocol::Service::kSafe);
  return 0;
}
