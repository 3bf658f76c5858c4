// sim_ring: the paper's core point — one ring of 8 nodes on the simulated
// 10GbE fabric, library profile, Accelerated Ring, agreed service, 1350 B
// payloads, 4000 Mbps offered in aggregate (open loop, each node on a fixed
// schedule with a seed-drawn phase). Exercises simnet + protocol with bulk
// payloads; bypasses multiring, rsm, kv and storage.
#include <cstring>

#include "harness/cluster.hpp"
#include "harness/sweep.hpp"
#include "replay.hpp"
#include "sim_common.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace accelring;
using util::Nanos;

constexpr int kNodes = 8;
constexpr size_t kPayload = 1350;
constexpr double kOfferedMbps = 4000;
constexpr Nanos kInjectFrom = util::usec(100);
constexpr Nanos kMeasureFrom = util::msec(10);
constexpr Nanos kStop = util::msec(60);
constexpr Nanos kDrain = util::msec(10);
constexpr Nanos kSlice = util::usec(20);

Rep run_rep(const Options& opt, bool traced, bool first_traced,
            Result& result) {
  Rep rep;
  Tracer tracer;
  const int64_t t0 = wall_ns();
  harness::SimCluster cluster(kNodes, simnet::FabricParams::ten_gig(),
                              harness::bench_protocol(protocol::Variant::kAccelerated),
                              harness::ImplProfile::kLibrary, opt.seed);
  util::Rng rng(opt.seed);
  std::vector<std::byte> fill(kPayload);
  for (auto& b : fill) b = static_cast<std::byte>(rng.next());

  // Per message id: members delivered, inject and last-delivery times.
  std::vector<uint8_t> members;
  std::vector<Nanos> injected_at, done_at;
  std::vector<uint64_t> delivered(kNodes, 0), order_hash(kNodes, 0);
  uint64_t window_bytes = 0;
  cluster.set_on_deliver([&](int node, const protocol::Delivery& d, Nanos at) {
    uint64_t id = 0;
    std::memcpy(&id, d.payload.data(), sizeof(id));
    const auto n = static_cast<size_t>(node);
    ++delivered[n];
    order_hash[n] = mix(order_hash[n], (static_cast<uint64_t>(d.sender) << 48) ^
                                           static_cast<uint64_t>(d.seq));
    if (node == 0 && at >= kMeasureFrom && at <= kStop) {
      window_bytes += d.payload.size();
    }
    if (id < members.size() && ++members[id] == kNodes) done_at[id] = at;
  });

  // Open-loop injection: one chain per node at the per-node interval.
  const auto interval = static_cast<Nanos>(
      static_cast<double>(kPayload) * 8 * kNodes / (kOfferedMbps * 1e6) * 1e9);
  std::function<void(int, Nanos)> inject = [&](int node, Nanos at) {
    const uint64_t id = members.size();
    std::vector<std::byte> payload = fill;
    std::memcpy(payload.data(), &id, sizeof(id));
    members.push_back(0);
    injected_at.push_back(at);
    done_at.push_back(-1);
    cluster.submit(node, protocol::Service::kAgreed, std::move(payload));
    if (at + interval < kStop) {
      cluster.eq().schedule(at + interval, [&inject, node, at, interval] {
        inject(node, at + interval);
      });
    }
  };
  for (int node = 0; node < kNodes; ++node) {
    const Nanos first = kInjectFrom + static_cast<Nanos>(rng.below(
                                          static_cast<uint64_t>(interval)));
    cluster.eq().schedule(first, [&inject, node, first] { inject(node, first); });
  }

  PacketCapture capture;
  if (first_traced) {
    cluster.net().set_drop_filter(
        [&capture](int, int, simnet::SocketId, const std::vector<std::byte>& data) {
          if (!capture.full()) capture.offer(data);
          return false;
        });
  }
  cluster.start_static();
  // Set-up ends once the ring has run its warm-up (until kMeasureFrom).
  Stepper stepper(cluster.eq(), tracer);
  stepper.run_until(kMeasureFrom, kSlice);
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  const int64_t warm_wall = stepper.wall_ns_spent();
  const uint64_t warm_events = stepper.events();

  tracer.set_enabled(traced);
  stepper.run_until(kStop + kDrain, kSlice);
  tracer.set_enabled(false);
  const uint64_t events = stepper.events() - warm_events;

  // Outcomes. The measured ops are the messages that reached every member
  // after the warm-up; the virtual (model) latencies cover messages
  // injected after it.
  uint64_t complete = 0, measured = 0;
  std::vector<std::pair<Nanos, Nanos>> ops;
  std::vector<double> window_lat_us;
  for (size_t id = 0; id < members.size(); ++id) {
    if (members[id] != kNodes) continue;
    ++complete;
    if (done_at[id] >= kMeasureFrom) ++measured;
    if (injected_at[id] >= kMeasureFrom) {
      ops.emplace_back(injected_at[id], done_at[id]);
      window_lat_us.push_back(util::to_usec(done_at[id] - injected_at[id]));
    }
  }
  const harness::ClusterStats stats = cluster.stats();
  const double wall_s =
      static_cast<double>(stepper.wall_ns_spent() - warm_wall) / 1e9;
  rep.ops_per_s = static_cast<double>(measured) / wall_s;
  rep.agreed_per_s = rep.ops_per_s;
  wall_latency(stepper, ops, rep);
  rep.attempted = members.size();
  rep.failed = members.size() - complete;

  bool same_order = true;
  for (int n = 1; n < kNodes; ++n) {
    same_order = same_order && delivered[n] == delivered[0] &&
                 order_hash[n] == order_hash[0];
  }
  result.check(same_order, "sim_ring members delivered different agreed orders");

  const double model_mbps = static_cast<double>(window_bytes) * 8 /
                            util::to_sec(kStop - kMeasureFrom) / 1e6;
  const double model_p50 = quantile(window_lat_us, 0.5);
  const double model_p99 = quantile(window_lat_us, 0.99);
  uint64_t fp = mix(0, events);
  for (int n = 0; n < kNodes; ++n) fp = mix(mix(fp, delivered[n]), order_hash[n]);
  fp = mix(mix(fp, stats.retransmits()), stats.submit_rejected());
  fp = mix_double(mix_double(mix_double(fp, model_mbps), model_p50), model_p99);
  rep.fingerprint = fp;

  if (first_traced) {
    const Tracer::Totals step = tracer.totals_of("simnet.step");
    result.add_layer("simnet.ns_per_event",
                     static_cast<double>(step.self_ns) / static_cast<double>(events),
                     "ns");
    result.add_layer("simnet.events_per_op",
                     static_cast<double>(events) / static_cast<double>(measured),
                     "count");
    result.add_layer("model.agreed_mbps", model_mbps, "virtual_Mbps");
    result.add_layer("model.p50_us", model_p50, "virtual_us");
    result.add_layer("model.p99_us", model_p99, "virtual_us");
    result.add_layer("model.retransmits", static_cast<double>(stats.retransmits()), "count");
    if (!opt.trace_out.empty()) {
      tracer.write(opt.trace_out + "/sim_ring.spans");
    }
    replay_packets(capture, result);
  }
  return rep;
}

}  // namespace

Result run_sim_ring(const Options& opt) {
  Result r;
  run_reps(opt, [&](bool traced, bool capture) {
    return run_rep(opt, traced, capture, r);
  }, r);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace perfbench
