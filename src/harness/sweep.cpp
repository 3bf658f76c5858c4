#include "harness/sweep.hpp"

#include <algorithm>
#include <cstdio>

#include "multiring/ring_set.hpp"

namespace accelring::harness {

PointResult run_point(const PointConfig& config) {
  multiring::MultiRingConfig mcfg;
  mcfg.rings = config.rings;
  mcfg.nodes_per_ring = config.topology.hosts.empty()
                            ? config.nodes
                            : config.topology.num_hosts();
  mcfg.topology = config.topology;
  mcfg.fabric = config.fabric;
  mcfg.proto = config.proto;
  mcfg.profile = config.profile;
  mcfg.seed = config.seed;
  multiring::RingSet rings(mcfg);
  const int nodes = rings.nodes_per_ring();
  // Always-on: recording is free of perturbation (obs_determinism_test pins
  // this), and every bench point then ships its latency histograms.
  rings.enable_metrics();
  const Nanos window_start = config.warmup;
  const Nanos window_end = config.warmup + config.measure;
  LatencyRecorder recorder(nodes, window_start, window_end);
  rings.set_on_merged(
      [&recorder](int node, int, const protocol::Delivery& d, Nanos at) {
        recorder.record(node, d, at);
      });
  std::vector<util::Meter> ordered(static_cast<size_t>(config.rings));
  for (int ring = 0; ring < config.rings; ++ring) {
    rings.ring(ring).add_on_deliver(
        [&, ring](int node, const protocol::Delivery& d, Nanos at) {
          PayloadStamp stamp;
          if (node != 0 || at < window_start || at >= window_end ||
              !parse_payload(d.payload, stamp)) {
            return;
          }
          ordered[static_cast<size_t>(ring)].add(d.payload.size());
        });
  }

  RateInjector::Options inject;
  inject.payload_size = config.payload_size;
  inject.aggregate_mbps = config.offered_mbps;
  inject.start = util::usec(100);  // let the ring form first
  inject.stop = window_end;
  const uint32_t streams = 16 * static_cast<uint32_t>(config.rings);
  RateInjector injector(
      rings.eq(), nodes,
      [&rings, &config, streams](int node, uint32_t index,
                                 std::vector<std::byte> payload) {
        const uint64_t stream =
            static_cast<uint64_t>(node) * streams + index % streams;
        rings.submit_keyed(node, stream, config.service, std::move(payload));
      },
      inject);

  rings.start_static();
  injector.arm();
  // Drain time lets in-flight messages deliver (they only count if they
  // arrive inside the window).
  rings.run_until(window_end + util::msec(50));

  PointResult r;
  r.offered_mbps = config.offered_mbps;
  // All receivers see the same merged stream; report the mean across nodes
  // to smooth edge-of-window effects.
  double sum = 0;
  for (int i = 0; i < nodes; ++i) sum += recorder.node_mbps(i);
  r.achieved_mbps = sum / nodes;
  r.mean_latency = recorder.latency().mean();
  r.p50_latency = recorder.latency().percentile(0.5);
  r.p90_latency = recorder.latency().percentile(0.90);
  r.p99_latency = recorder.latency().percentile(0.99);
  r.p999_latency = recorder.latency().percentile(0.999);
  r.max_latency = recorder.latency().max();
  r.messages = recorder.node_messages(0);
  for (const ClusterStats& stats : rings.ring_stats()) {
    r.buffer_drops += stats.net.drops_buffer;
    r.socket_drops += stats.socket_drops();
    r.retransmits += stats.retransmits();
    r.rtr_requested += stats.rtr_requested();
    r.token_retransmits += stats.token_retransmits();
    r.submit_rejected += stats.submit_rejected();
    r.max_cpu_utilization =
        std::max(r.max_cpu_utilization, stats.max_cpu_utilization());
  }
  for (const util::Meter& meter : ordered) {
    r.per_ring_mbps.push_back(meter.mbps(window_end - window_start));
  }
  auto merged = std::make_shared<obs::MetricsRegistry>(rings.merged_metrics());
  // Cross-node delivery latency (inject stamp at the sender's client →
  // merged client receipt anywhere), the number the paper's figures plot.
  // The engine-level origin_* histograms cover only own-node delivery.
  obs::Histogram& dist = merged->histogram("harness", "delivery_latency_ns");
  for (const Nanos sample : recorder.latency().samples()) dist.record(sample);
  r.metrics = std::move(merged);
  return r;
}

Curve run_curve(std::string label, PointConfig base,
                const std::vector<double>& offered_mbps) {
  Curve curve;
  curve.label = std::move(label);
  for (double mbps : offered_mbps) {
    base.offered_mbps = mbps;
    curve.points.push_back(run_point(base));
  }
  return curve;
}

PointResult find_max_throughput(PointConfig base,
                                const std::vector<double>& offered_mbps) {
  PointResult best;
  for (const double offered : offered_mbps) {
    base.offered_mbps = offered;
    const PointResult r = run_point(base);
    if (r.achieved_mbps > best.achieved_mbps) best = r;
    // Saturated: achieved falls well short of offered and is no longer
    // improving, so pushing harder only grows queues.
    if (r.achieved_mbps < 0.85 * offered) break;
  }
  return best;
}

void print_curve(const Curve& curve) {
  std::printf("# %s\n", curve.label.c_str());
  std::printf("%12s %12s %12s %12s %12s %10s %10s %8s\n", "offered_mbps",
              "achieved", "mean_lat_us", "p50_us", "p99_us", "retrans",
              "drops", "cpu%");
  for (const PointResult& p : curve.points) {
    std::printf("%12.0f %12.1f %12.1f %12.1f %12.1f %10llu %10llu %8.1f\n",
                p.offered_mbps, p.achieved_mbps, util::to_usec(p.mean_latency),
                util::to_usec(p.p50_latency), util::to_usec(p.p99_latency),
                static_cast<unsigned long long>(p.retransmits),
                static_cast<unsigned long long>(p.buffer_drops +
                                                p.socket_drops),
                100.0 * p.max_cpu_utilization);
  }
  std::printf("\n");
}

protocol::ProtocolConfig bench_protocol(protocol::Variant v) {
  protocol::ProtocolConfig cfg;
  cfg.variant = v;
  cfg.priority = protocol::PriorityMethod::kAggressive;
  cfg.personal_window = 20;
  cfg.global_window = 160;
  cfg.accelerated_window = 15;
  return cfg;
}

}  // namespace accelring::harness
