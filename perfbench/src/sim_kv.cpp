// sim_kv and sim_kv_durable: the sharded KV service on K=4 rings x 8 nodes
// (the kv_service smoke shape): 100k sessions, 10k preloaded keys, zipf
// 0.99, 64 B values, 80k ops/s base diurnal open-loop load.
//
//  * sim_kv — 90% reads, no durability: exercises the merger, rsm/KV apply,
//    leases and small packed commands;
//  * sim_kv_durable — 50% writes, every replica on a ReplicaStore over a
//    SimDisk: the only workload where storage works.
//
// Storage is timed through a bench-owned storage::Disk wrapper handed in
// via ServiceConfig::store_factory. The merger and rsm/KV apply are timed by
// replaying node 0's captured inputs into fresh DeterministicMerger and
// rsm::Replica + KvStateMachine instances after the rep.
#include <memory>
#include <variant>

#include "harness/sweep.hpp"
#include "kv/service.hpp"
#include "kv/workload.hpp"
#include "multiring/ring_set.hpp"
#include "replay.hpp"
#include "sim_common.hpp"
#include "storage/replica_store.hpp"
#include "storage/sim_disk.hpp"
#include "util/crc32.hpp"

namespace perfbench {
namespace {

using namespace accelring;
using util::Nanos;

constexpr int kShards = 4;
constexpr int kNodes = 8;
constexpr Nanos kStart = util::msec(50);  // client load starts; set-up ends
constexpr Nanos kMeasureFrom = util::msec(60);
constexpr Nanos kDrain = util::msec(100);
constexpr Nanos kSlice = util::usec(20);
constexpr uint8_t kLeaseFrame = 16;  // kv/service.cpp: routed to leases, not replicas

struct DiskCounters {
  uint64_t appends = 0;
  uint64_t fsyncs = 0;
  uint64_t fsync_bytes = 0;
};

/// storage::Disk wrapper: spans around every call, the file size each fsync
/// covers, and (slowed-layer mode) a fixed busy-wait per fsync.
class TimedDisk final : public storage::Disk {
 public:
  TimedDisk(storage::Disk& inner, Tracer& tracer, int64_t slow_ns,
            DiskCounters& counters)
      : inner_(inner), tracer_(tracer), slow_ns_(slow_ns), counters_(counters),
        append_(tracer.intern("storage.append")),
        fsync_(tracer.intern("storage.fsync")),
        other_(tracer.intern("storage.other")) {}

  storage::IoStatus read(const std::string& name, std::vector<std::byte>& out) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.read(name, out);
  }
  storage::IoStatus write(const std::string& name, std::span<const std::byte> data) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.write(name, data);
  }
  storage::IoStatus append(const std::string& name, std::span<const std::byte> data) override {
    ++counters_.appends;
    Tracer::Scope span(tracer_, append_);
    return inner_.append(name, data);
  }
  storage::IoStatus truncate(const std::string& name, uint64_t size) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.truncate(name, size);
  }
  storage::IoStatus fsync(const std::string& name) override {
    ++counters_.fsyncs;
    counters_.fsync_bytes += inner_.size(name);
    Tracer::Scope span(tracer_, fsync_);
    spin_for(slow_ns_);
    return inner_.fsync(name);
  }
  storage::IoStatus rename(const std::string& from, const std::string& to) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.rename(from, to);
  }
  storage::IoStatus remove(const std::string& name) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.remove(name);
  }
  storage::IoStatus fsync_dir() override {
    Tracer::Scope span(tracer_, other_);
    return inner_.fsync_dir();
  }
  bool exists(const std::string& name) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.exists(name);
  }
  uint64_t size(const std::string& name) override {
    Tracer::Scope span(tracer_, other_);
    return inner_.size(name);
  }

 private:
  storage::Disk& inner_;
  Tracer& tracer_;
  int64_t slow_ns_;
  DiskCounters& counters_;
  uint32_t append_, fsync_, other_;
};

/// Node 0's inputs, captured in arrival order for the replays.
struct Captured {
  std::vector<std::pair<int, protocol::Delivery>> merger_in;  ///< (ring, d)
  /// Shard 0's replica inputs: configuration changes and merged deliveries.
  std::vector<std::variant<protocol::ConfigurationChange, protocol::Delivery>> replica_in;
};

void replay_merger(const Captured& cap, multiring::RingSet& rings,
                   Result& result) {
  std::unique_ptr<multiring::DeterministicMerger> merger;
  uint64_t merged = 0;
  const double ns = time_pass(
      [&] {
        for (const auto& [ring, d] : cap.merger_in) merger->push(ring, d);
      },
      [&] {
        merger = std::make_unique<multiring::DeterministicMerger>(
            kShards, rings.config().merge_batch);
        merged = 0;
        merger->set_on_merged([&merged](int, const protocol::Delivery&) { ++merged; });
      });
  result.check(merged == rings.merger(0).stats().merged,
               "merger replay emitted a different merged count than node 0");
  result.add_layer("merger.push_ns", ns / static_cast<double>(cap.merger_in.size()), "ns");
}

void replay_replica(const Captured& cap, kv::KvService& service,
                    const kv::ServiceConfig& scfg, Result& result) {
  std::unique_ptr<kv::KvStateMachine> machine;
  std::unique_ptr<rsm::Replica> replica;
  const double ns = time_pass(
      [&] {
        for (const auto& in : cap.replica_in) {
          if (const auto* c = std::get_if<protocol::ConfigurationChange>(&in)) {
            replica->on_configuration(*c);
          } else {
            replica->on_delivery(std::get<protocol::Delivery>(in));
          }
        }
      },
      [&] {
        replica.reset();
        machine = std::make_unique<kv::KvStateMachine>();
        for (uint64_t i = 0; i < scfg.preload_keys; ++i) {
          const std::string key = kv::make_key(i);
          if (service.frontend(0).shard_of(key) == 0) {
            machine->preload(key, kv::make_value(i, scfg.preload_value_size));
          }
        }
        replica = std::make_unique<rsm::Replica>(
            0, *machine, [](std::vector<std::byte>) { return true; },
            /*founder=*/true, scfg.replica);
      });
  const uint64_t applied = replica->stats().applied;
  result.check(util::crc32(machine->snapshot()) ==
                   util::crc32(service.machine(0, 0).snapshot()),
               "rsm replay state differs from node 0's shard 0 replica");
  result.add_layer("rsm.apply_ns", applied == 0 ? 0 : ns / static_cast<double>(applied), "ns");
}

Rep run_rep(const Options& opt, bool durable, bool traced, bool first_traced,
            Result& result) {
  Rep rep;
  Tracer tracer;
  DiskCounters disk_counters;
  const int64_t t0 = wall_ns();

  multiring::MultiRingConfig mc;
  mc.rings = kShards;
  mc.nodes_per_ring = kNodes;
  mc.fabric = simnet::FabricParams::ten_gig();
  mc.proto = harness::bench_protocol(protocol::Variant::kAccelerated);
  mc.profile = harness::ImplProfile::kLibrary;
  mc.merge_batch = 64;
  mc.skip_interval = util::usec(100);
  mc.seed = opt.seed;
  multiring::RingSet rings(mc);

  kv::ServiceConfig scfg;
  scfg.shards = kShards;
  scfg.replica.checkpoint_interval = 4096;
  scfg.preload_keys = 10'000;
  scfg.preload_value_size = 64;
  std::vector<std::unique_ptr<storage::SimDisk>> disks;
  std::vector<std::unique_ptr<TimedDisk>> timed;
  if (durable) {
    for (int n = 0; n < kNodes; ++n) {
      disks.push_back(std::make_unique<storage::SimDisk>(opt.seed + 1000 + n));
      timed.push_back(std::make_unique<TimedDisk>(*disks.back(), tracer,
                                                  opt.slow_ns, disk_counters));
    }
    scfg.store_factory = [&timed](int node, int shard) {
      return std::make_unique<storage::ReplicaStore>(
          *timed[static_cast<size_t>(node)], "shard" + std::to_string(shard));
    };
  }
  kv::KvService service(rings, scfg);

  // Outcomes: every completion's virtual (issue, done) pair, and the
  // measure-window latencies of ordered ops (lease reads complete in zero
  // virtual time and are counted, not timed).
  std::vector<std::pair<Nanos, Nanos>> ordered_ops;
  std::vector<double> window_us, write_us;
  const Nanos stop = durable ? util::msec(100) : util::msec(110);
  service.set_on_outcome([&](int, const kv::Frontend::Outcome& o) {
    if (o.lease_served) return;
    ordered_ops.emplace_back(o.issued_at, o.done_at);
    if (o.done_at < kMeasureFrom || o.done_at > stop) return;
    window_us.push_back(util::to_usec(o.done_at - o.issued_at));
    if (o.type != kv::OpType::kGet) write_us.push_back(window_us.back());
  });

  Captured cap;
  PacketCapture packets;
  if (first_traced) {
    for (int r = 0; r < kShards; ++r) {
      rings.ring(r).add_on_deliver([&cap, r](int node, const protocol::Delivery& d, Nanos) {
        if (node == 0) cap.merger_in.emplace_back(r, d);
      });
    }
    rings.ring(0).add_on_config([&cap](int node, const protocol::ConfigurationChange& c) {
      if (node == 0) cap.replica_in.emplace_back(c);
    });
    rings.add_on_merged([&cap](int node, int ring, const protocol::Delivery& d, Nanos) {
      if (node == 0 && ring == 0 && !d.payload.empty() &&
          static_cast<uint8_t>(d.payload[0]) != kLeaseFrame) {
        cap.replica_in.emplace_back(d);
      }
    });
    rings.ring(0).net().set_drop_filter(
        [&packets](int, int, simnet::SocketId, const std::vector<std::byte>& data) {
          if (!packets.full()) packets.offer(data);
          return false;
        });
  }

  kv::WorkloadConfig wcfg;
  wcfg.sessions = 100'000;
  wcfg.keys = scfg.preload_keys;
  wcfg.zipf_s = 0.99;
  wcfg.read_fraction = durable ? 0.5 : 0.9;
  wcfg.value_size = 64;
  wcfg.base_rate = 80'000;
  wcfg.peak_factor = 2.0;
  wcfg.period = util::sec(1);
  wcfg.start = kStart;
  wcfg.stop = stop;
  wcfg.measure_from = kMeasureFrom;
  wcfg.churn_per_sec = 50;
  wcfg.seed = opt.seed;
  kv::SessionWorkload workload(service, wcfg);
  rings.start_static();
  workload.start();
  // Set-up ends when client load starts: the rings have formed and the
  // lease holders have granted.
  Stepper stepper(rings.eq(), tracer);
  stepper.run_until(kStart, kSlice);
  rep.setup_s = static_cast<double>(wall_ns() - t0) / 1e9;
  const int64_t warm_wall = stepper.wall_ns_spent();
  const uint64_t warm_events = stepper.events();
  // Agreed messages delivered at every member of their ring, all rings.
  auto agreed_everywhere = [&rings] {
    uint64_t agreed = 0;
    for (const harness::ClusterStats& ring : rings.ring_stats()) {
      uint64_t all = UINT64_MAX;
      for (const auto& node : ring.nodes) all = std::min(all, node.delivered);
      agreed += all;
    }
    return agreed;
  };
  const uint64_t warm_agreed = agreed_everywhere();
  const DiskCounters warm_disk = disk_counters;
  const multiring::MergerStats warm_merger = rings.merger(0).stats();

  tracer.set_enabled(traced);
  stepper.run_until(stop + kDrain, kSlice);
  tracer.set_enabled(false);
  const uint64_t events = stepper.events() - warm_events;
  const int64_t step_wall = stepper.wall_ns_spent() - warm_wall;

  const kv::WorkloadStats& ws = workload.stats();
  const double wall_s = static_cast<double>(step_wall) / 1e9;
  const uint64_t agreed = agreed_everywhere() - warm_agreed;
  const DiskCounters disk{disk_counters.appends - warm_disk.appends,
                          disk_counters.fsyncs - warm_disk.fsyncs,
                          disk_counters.fsync_bytes - warm_disk.fsync_bytes};
  rep.ops_per_s = static_cast<double>(ws.completed) / wall_s;
  rep.agreed_per_s = static_cast<double>(agreed) / wall_s;
  wall_latency(stepper, ordered_ops, rep);
  uint64_t shed = 0;
  for (int n = 0; n < kNodes; ++n) shed += service.frontend(n).stats().submit_shed;
  rep.attempted = ws.issued;
  rep.failed = (ws.issued > ws.completed ? ws.issued - ws.completed : 0) + shed;

  uint64_t divergence = 0;
  for (int n = 0; n < kNodes; ++n) {
    for (int s = 0; s < kShards; ++s) {
      divergence += service.replica(n, s).stats().divergence_detected;
    }
  }
  result.check(service.total_divergence() == 0, "KvService::total_divergence() != 0");
  result.check(divergence == 0, "rsm divergence_detected != 0");

  const double kops = workload.measured_ops_per_sec() / 1000.0;
  const double p50 = quantile(window_us, 0.5), p99 = quantile(window_us, 0.99);
  const double write_p99 = quantile(write_us, 0.99);
  const multiring::MergerStats& node0 = rings.merger(0).stats();
  const multiring::MergerStats merger{node0.merged - warm_merger.merged,
                                      node0.skip_msgs - warm_merger.skip_msgs,
                                      node0.skipped_slots - warm_merger.skipped_slots};
  uint64_t fp = mix(mix(mix(0, events), ws.issued), ws.completed);
  fp = mix(mix(mix(fp, ws.lease_reads), ws.timeouts), agreed);
  fp = mix(mix(mix(fp, merger.merged), merger.skipped_slots), merger.skip_msgs);
  fp = mix(mix(mix(fp, disk.appends), disk.fsyncs), disk.fsync_bytes);
  fp = mix_double(mix_double(mix_double(mix_double(fp, kops), p50), p99), write_p99);
  for (int s = 0; s < kShards; ++s) fp = mix(fp, service.machine(0, s).version());
  rep.fingerprint = fp;

  if (first_traced) {
    auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    const Tracer::Totals step = tracer.totals_of("simnet.step");
    const Tracer::Totals append = tracer.totals_of("storage.append");
    const Tracer::Totals fsync = tracer.totals_of("storage.fsync");
    const Tracer::Totals other = tracer.totals_of("storage.other");
    const auto completed = static_cast<double>(ws.completed);
    result.add_layer("simnet.ns_per_event",
                     per(static_cast<double>(step.self_ns), static_cast<double>(events)), "ns");
    result.add_layer("simnet.events_per_op", per(static_cast<double>(events), completed), "count");
    result.add_layer("merger.useful_ratio",
                     per(static_cast<double>(merger.merged),
                         static_cast<double>(merger.merged + merger.skipped_slots)),
                     "ratio");
    result.add_layer("merger.skip_msgs_per_op", per(static_cast<double>(merger.skip_msgs), completed),
                     "count");
    result.add_layer("kv.lease_read_share",
                     per(static_cast<double>(ws.lease_reads),
                         static_cast<double>(ws.lease_reads + ws.ordered_reads)),
                     "ratio");
    if (durable) {
      result.add_layer("storage.append_ns",
                       per(static_cast<double>(append.total_ns), static_cast<double>(append.count)), "ns");
      result.add_layer("storage.fsync_ns",
                       per(static_cast<double>(fsync.total_ns), static_cast<double>(fsync.count)), "ns");
      result.add_layer("storage.fsync_bytes_per_append",
                       per(static_cast<double>(disk.fsync_bytes),
                           static_cast<double>(disk.appends)),
                       "B");
      result.add_layer("storage.share_of_wall",
                       per(static_cast<double>(append.total_ns + fsync.total_ns + other.total_ns),
                           static_cast<double>(step_wall)),
                       "ratio");
    }
    result.add_layer("model.kops", kops, "virtual_kops");
    result.add_layer("model.p50_us", p50, "virtual_us");
    result.add_layer("model.p99_us", p99, "virtual_us");
    result.add_layer("model.write_p99_us", write_p99, "virtual_us");
    result.add_layer("model.timeouts", static_cast<double>(ws.timeouts), "count");
    if (!opt.trace_out.empty()) {
      tracer.write(opt.trace_out + (durable ? "/sim_kv_durable.spans" : "/sim_kv.spans"));
    }
    replay_packets(packets, result);
    replay_merger(cap, rings, result);
    replay_replica(cap, service, scfg, result);
  }
  return rep;
}

}  // namespace

Result run_sim_kv(const Options& opt, bool durable) {
  Result r;
  run_reps(opt, [&](bool traced, bool first_traced) {
    return run_rep(opt, durable, traced, first_traced, r);
  }, r);
  r.add_e2e("peak_rss_mb", peak_rss_mb(), "MB");
  return r;
}

}  // namespace perfbench
