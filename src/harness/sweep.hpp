// Experiment harness: run one (protocol, profile, fabric, rings, load) point
// or a whole latency-vs-throughput series, producing the rows behind each
// figure in the paper. Used by every binary under bench/ and by the
// integration tests' smoke checks.
//
// There is one point runner for one ring and for K rings: run_point always
// builds a multiring::RingSet (a one-ring set replays a bare SimCluster event
// for event), injects keyed fixed-rate traffic, and measures the merged
// stream — the stream an application on top of the K rings sees.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "harness/latency.hpp"
#include "harness/workload.hpp"
#include "obs/metrics.hpp"

namespace accelring::harness {

struct PointConfig {
  int nodes = 8;
  /// K rings sharing the nodes. Each sender cycles through 16 × K ordering
  /// keys, so the shard map spreads its traffic over every ring.
  int rings = 1;
  /// When non-empty, every ring is built from this multi-datacenter
  /// topology and `nodes` is ignored (the topology's host count rules).
  simnet::Topology topology;
  simnet::FabricParams fabric = simnet::FabricParams::one_gig();
  protocol::ProtocolConfig proto;
  ImplProfile profile = ImplProfile::kLibrary;
  protocol::Service service = protocol::Service::kAgreed;
  size_t payload_size = 1350;
  double offered_mbps = 100.0;
  Nanos warmup = util::msec(150);
  Nanos measure = util::msec(600);
  uint64_t seed = 1;
};

struct PointResult {
  double offered_mbps = 0;
  /// Clean merged payload per receiver, averaged over the receivers.
  double achieved_mbps = 0;
  Nanos mean_latency = 0;
  Nanos p50_latency = 0;
  Nanos p90_latency = 0;
  Nanos p99_latency = 0;
  Nanos p999_latency = 0;
  Nanos max_latency = 0;
  uint64_t messages = 0;        ///< messages measured (one receiver)
  // Counters below are summed over all rings (CPU: the busiest engine).
  uint64_t buffer_drops = 0;    ///< switch port-buffer tail drops
  uint64_t socket_drops = 0;    ///< host socket-buffer drops
  uint64_t retransmits = 0;     ///< data retransmissions (all nodes)
  uint64_t rtr_requested = 0;   ///< retransmission requests added to tokens
  uint64_t token_retransmits = 0;
  uint64_t submit_rejected = 0; ///< backpressure at the senders
  /// Highest per-node virtual CPU utilization over the run (busy time /
  /// elapsed). The paper stresses that the single-threaded daemon must not
  /// consume more than one core; this is that number.
  double max_cpu_utilization = 0;
  /// Clean payload each ring ordered at node 0 over the window, before the
  /// merge (K entries). The merge emits equal shares from every ring, so
  /// only the ordered counts show an uneven shard split.
  std::vector<double> per_ring_mbps;
  /// Cluster-wide metric registry for the point (engine/membership metrics
  /// merged across nodes and rings, every node's merger metrics, plus the
  /// harness's cross-node delivery-latency histogram under ("harness",
  /// "delivery_latency_ns")). Shared so PointResult stays cheaply copyable
  /// through curve/max-search plumbing.
  std::shared_ptr<const obs::MetricsRegistry> metrics;
};

/// Run one point: build the rings, inject at the offered rate, measure.
[[nodiscard]] PointResult run_point(const PointConfig& config);

/// A labelled latency-vs-throughput curve (one line in a paper figure).
struct Curve {
  std::string label;
  std::vector<PointResult> points;
};

/// Run `base` at each offered load in `offered_mbps`.
[[nodiscard]] Curve run_curve(std::string label, PointConfig base,
                              const std::vector<double>& offered_mbps);

/// Step through the ascending offered loads until achieved throughput stops
/// following offered load (saturation), returning the point with the
/// highest achieved throughput. Used for the headline "maximum throughput"
/// numbers in §IV and the multi-ring scaling figure.
[[nodiscard]] PointResult find_max_throughput(
    PointConfig base, const std::vector<double>& offered_mbps);

/// Print a curve as an aligned table (bench binaries' output format).
void print_curve(const Curve& curve);

/// Convenience: protocol config for a variant with the benchmark windows.
[[nodiscard]] protocol::ProtocolConfig bench_protocol(protocol::Variant v);

}  // namespace accelring::harness
