// Related-work comparison (paper §V): the Accelerated Ring protocol versus
// a fixed-sequencer protocol (JGroups SEQUENCER style) and a
// U-Ring-Paxos-style protocol, all on the identical simulated fabric.
//
// Paper reference points (same 8-machine setup as the main evaluation):
//  * JGroups total ordering: ~650 Mbps at 1GbE with 1350-byte messages,
//    up to ~3 Gbps at 10GbE.
//  * U-Ring Paxos: >750 Mbps at 1GbE with 1350-byte messages (with
//    batching), latency profile similar to the original Ring protocol's
//    Safe delivery; close to 1.5 Gbps at 10GbE.
//  * Accelerated Ring: >920 Mbps at 1GbE; 2.3-4.6 Gbps at 10GbE.
//
// The JVM-era per-message processing overheads of JGroups and the
// (un-modelled) Paxos bookkeeping are approximated with a heavier CPU cost
// profile; see DESIGN.md §1. Every curve is measured the same way: the
// baselines use harness::run_point's RateInjector and LatencyRecorder, and
// their cpu% and drops columns come from the same process and switch
// counters.
#include <algorithm>

#include "bench_common.hpp"

#include "baselines/baseline_cluster.hpp"
#include "baselines/sequencer.hpp"
#include "baselines/uring_paxos.hpp"
#include "harness/latency.hpp"

namespace {

using namespace accelring;
using namespace accelring::bench;

/// Heavier per-message costs for the managed-runtime baselines (calibrated
/// so the sequencer's 10GbE ceiling lands near JGroups' measured ~3 Gbps).
transport::HostCosts baseline_costs() {
  transport::HostCosts costs;
  costs.data_process = 1'000;
  costs.delivery = 800;
  costs.send_syscall = 1'400;
  return costs;
}

/// One baseline point under harness::run_point's method: the shared
/// RateInjector and LatencyRecorder, with node 1 (not the coordinator) as
/// the one observer.
template <typename Protocol, typename Config>
harness::PointResult run_baseline_point(bool ten_gig, Config cfg,
                                        double offered_mbps,
                                        size_t payload_size) {
  const int kNodes = 8;
  const int kObserver = 1;
  const protocol::Nanos warmup = util::msec(100);
  const protocol::Nanos window_end = warmup + util::msec(300);
  baselines::BaselineCluster<Protocol, Config> cluster(
      kNodes,
      ten_gig ? simnet::FabricParams::ten_gig()
              : simnet::FabricParams::one_gig(),
      cfg, /*seed=*/1, baseline_costs());

  harness::LatencyRecorder recorder(kNodes, warmup, window_end);
  cluster.set_on_deliver([&recorder](int node, const protocol::Delivery& d,
                                     protocol::Nanos at) {
    if (node == kObserver) recorder.record(node, d, at);
  });
  harness::RateInjector::Options inject;
  inject.payload_size = payload_size;
  inject.aggregate_mbps = offered_mbps;
  inject.start = util::usec(100);
  inject.stop = window_end;
  harness::RateInjector injector(
      cluster.eq(), kNodes,
      [&cluster](int node, uint32_t, std::vector<std::byte> payload) {
        cluster.submit(node, std::move(payload));
      },
      inject);
  injector.arm();
  cluster.run_until(window_end + util::msec(50));

  harness::PointResult r;
  r.offered_mbps = offered_mbps;
  r.achieved_mbps = recorder.node_mbps(kObserver);
  r.mean_latency = recorder.latency().mean();
  r.p50_latency = recorder.latency().percentile(0.5);
  r.p99_latency = recorder.latency().percentile(0.99);
  r.messages = recorder.node_messages(kObserver);
  r.buffer_drops = cluster.net().stats().drops_buffer;
  const auto elapsed = static_cast<double>(cluster.eq().now());
  for (int node = 0; node < kNodes; ++node) {
    r.max_cpu_utilization =
        std::max(r.max_cpu_utilization,
                 static_cast<double>(cluster.busy_time(node)) / elapsed);
  }
  return r;
}

template <typename Protocol, typename Config>
harness::Curve run_baseline_curve(const char* label, bool ten_gig, Config cfg,
                                  const std::vector<double>& loads) {
  harness::Curve curve;
  curve.label = label;
  for (double mbps : loads) {
    curve.points.push_back(
        run_baseline_point<Protocol, Config>(ten_gig, cfg, mbps, 1350));
  }
  harness::print_curve(curve);
  return curve;
}

double max_achieved(const harness::Curve& curve) {
  double best = 0;
  for (const auto& p : curve.points) best = std::max(best, p.achieved_mbps);
  return best;
}

/// One line per fabric, read off the printed rows: each protocol's highest
/// achieved throughput and which one caps lowest.
void print_ceilings(const char* fabric,
                    const std::vector<harness::Curve>& curves) {
  const harness::Curve* lowest = nullptr;
  std::printf("%s max achieved:", fabric);
  for (const auto& c : curves) {
    std::printf(" %s %.1f Mbps;", c.label.c_str(), max_achieved(c));
    if (lowest == nullptr || max_achieved(c) < max_achieved(*lowest)) {
      lowest = &c;
    }
  }
  std::printf(" lowest cap: %s\n", lowest->label.c_str());
}

}  // namespace

int main() {
  std::printf("==== Related protocols (paper SectionV), 1350B payloads ====\n\n");

  const std::vector<double> one_gig = {100, 300, 500, 650, 800, 900};
  const std::vector<double> ten_gig = {500, 1000, 1500, 2000, 2500, 3000};

  // Our protocol, same grid, for reference.
  std::vector<harness::Curve> at_1g;
  PointConfig ring = base_point(/*ten_gig=*/false);
  ring.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  at_1g.push_back(accelring::harness::run_curve(
      "accelerated ring / library / 1GbE", ring, one_gig));
  accelring::harness::print_curve(at_1g.back());

  at_1g.push_back(run_baseline_curve<baselines::SequencerProtocol,
                                     baselines::SequencerConfig>(
      "sequencer (JGroups-style) / 1GbE", false, {}, one_gig));
  at_1g.push_back(
      run_baseline_curve<baselines::URingProtocol, baselines::URingConfig>(
          "u-ring paxos (batching) / 1GbE", false, {}, one_gig));

  std::vector<harness::Curve> at_10g;
  ring = base_point(/*ten_gig=*/true);
  ring.proto = accelring::harness::bench_protocol(Variant::kAccelerated);
  at_10g.push_back(accelring::harness::run_curve(
      "accelerated ring / library / 10GbE", ring, ten_gig));
  accelring::harness::print_curve(at_10g.back());

  at_10g.push_back(run_baseline_curve<baselines::SequencerProtocol,
                                      baselines::SequencerConfig>(
      "sequencer (JGroups-style) / 10GbE", true, {}, ten_gig));
  at_10g.push_back(
      run_baseline_curve<baselines::URingProtocol, baselines::URingConfig>(
          "u-ring paxos (batching) / 10GbE", true, {}, ten_gig));

  print_ceilings("1GbE", at_1g);
  print_ceilings("10GbE", at_10g);
  std::printf(
      "model: the sequencer is bound by coordinator CPU and the double "
      "traversal of the sender link; u-ring paxos pays ring-traversal "
      "latency similar to original-ring Safe delivery\n");
  return 0;
}
