// Sharded KV service benchmark: completed ops/sec and client-observed
// latency for K = 1, 4, 8 shards on the simulated 10-gigabit fabric.
//
// Each K runs the full stack end to end — RingSet (one ring per shard),
// rsm replicas with chunked snapshots and compaction, lease-based local
// reads, exactly-once session frontends — under the open-loop session
// workload driver (zipf keys, diurnal arrivals, up to a million sessions).
// All K share one offered-load grid whose top point sits past the single
// ring's saturation knee: K=1 collapses there while K=4 and K=8 keep flat
// client latency, which is the sharding claim in one table.
//
// Axis units: this figure is operation-oriented, so offered_mbps /
// achieved_mbps in the artifacts carry *kilo-ops per second* (the shared
// point schema's throughput fields, reused so one validator and plotter
// handle every artifact). Latency quantiles are client-observed completion
// times in nanoseconds, split by path (lease read / ordered read / write)
// in the per-point kv extras, and by shard in each point's "shards" array
// (ops + op-mix + p50/p99 per shard — the live balance check for the
// consistent-hash map, and the before/after comparison for migrations).
//
// `--smoke [--shards K]` runs one short single-K point for CI; the full
// sweep takes a few minutes. `--durable` gives every node a SimDisk and
// runs the replicas over WAL + checkpoint stores (storage::ReplicaStore),
// so the smoke also covers the persistence write path end to end.
#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "kv/service.hpp"
#include "kv/workload.hpp"
#include "multiring/ring_set.hpp"
#include "storage/replica_store.hpp"
#include "storage/sim_disk.hpp"

namespace accelring::bench {
namespace {

/// Per-shard slice of the measure window: which shard did the work and at
/// what client-observed latency. A balanced map should show ops within the
/// consistent-hash bound of each other and near-identical quantiles; a hot
/// shard shows up as one row with outsized ops and a fatter p99.
struct ShardLoad {
  uint64_t ops = 0;            ///< completions resolved by this shard
  uint64_t lease_reads = 0;
  uint64_t ordered_reads = 0;
  uint64_t mutations = 0;
  obs::Histogram latency;      ///< completion latency, this shard only
};

struct KvPoint {
  double offered_kops = 0;   ///< mean offered rate over the measure window
  double achieved_kops = 0;  ///< completed ops/sec over the measure window
  uint64_t measured = 0;     ///< completions inside the window
  uint64_t sessions_touched = 0;
  uint64_t timeouts = 0;
  uint64_t retries = 0;
  kv::WorkloadStats stats;
  obs::Histogram latency;          ///< all completions
  obs::Histogram lease_read;
  obs::Histogram ordered_read;
  obs::Histogram write;
  std::vector<ShardLoad> per_shard;  ///< breakdown by Outcome::shard
  std::shared_ptr<obs::MetricsRegistry> metrics;
};

KvPoint run_kv_point(int shards, double base_rate, uint64_t sessions,
                     util::Nanos stop, uint64_t seed, bool durable = false) {
  multiring::MultiRingConfig mc;
  mc.rings = shards;
  mc.nodes_per_ring = 8;
  mc.fabric = simnet::FabricParams::ten_gig();
  mc.proto = harness::bench_protocol(Variant::kAccelerated);
  mc.profile = ImplProfile::kLibrary;
  // The merged stream advances at most merge_batch slots per ring per
  // rotation, and an underfilled ring holds the rotation until its skip
  // daemon fires — so merged throughput per ring is capped near
  // merge_batch / skip_interval (the default 16 / 500us ~= 32 kops/ring
  // saturates long before the rings do). Open the batch and tighten the
  // skip period so the merge layer stays off the critical path. At K = 1
  // no skip daemon runs (a lone ring has no rotation to hold up), so
  // neither knob matters there.
  mc.merge_batch = 64;
  mc.skip_interval = util::usec(100);
  mc.seed = seed;
  multiring::RingSet rings(mc);
  rings.enable_metrics();

  kv::ServiceConfig scfg;
  scfg.shards = shards;
  scfg.replica.checkpoint_interval = 4096;
  scfg.preload_keys = 10'000;
  scfg.preload_value_size = 64;
  // Per-node disks outlive the service; stores are per-(node, shard).
  std::vector<std::unique_ptr<storage::SimDisk>> disks;
  if (durable) {
    for (int n = 0; n < mc.nodes_per_ring; ++n) {
      disks.push_back(std::make_unique<storage::SimDisk>(seed + 1000 + n));
    }
    scfg.store_factory = [&disks](int node, int shard) {
      return std::make_unique<storage::ReplicaStore>(
          *disks[static_cast<size_t>(node)],
          "shard" + std::to_string(shard));
    };
  }
  kv::KvService service(rings, scfg);
  service.bind_metrics();
  rings.start_static();

  // Per-shard tap: the service's outcome observer sees every resolution
  // (the workload observes per-op completion callbacks, not this slot), so
  // it can split the measure window by Outcome::shard.
  std::vector<ShardLoad> per_shard(static_cast<size_t>(shards));
  const util::Nanos measure_from = util::msec(150);
  service.set_on_outcome(
      [&per_shard, measure_from, stop](int /*node*/,
                                       const kv::Frontend::Outcome& o) {
        if (o.done_at < measure_from || o.done_at > stop) return;
        if (o.shard < 0 || static_cast<size_t>(o.shard) >= per_shard.size()) {
          return;
        }
        ShardLoad& s = per_shard[static_cast<size_t>(o.shard)];
        ++s.ops;
        if (o.type == kv::OpType::kGet) {
          if (o.lease_served) {
            ++s.lease_reads;
          } else {
            ++s.ordered_reads;
          }
        } else {
          ++s.mutations;
        }
        s.latency.record(o.done_at - o.issued_at);
      });

  kv::WorkloadConfig wcfg;
  wcfg.sessions = sessions;
  wcfg.keys = scfg.preload_keys;
  wcfg.zipf_s = 0.99;
  wcfg.read_fraction = 0.9;
  wcfg.value_size = 64;
  wcfg.base_rate = base_rate;
  wcfg.peak_factor = 2.0;
  wcfg.period = util::sec(1);
  wcfg.start = util::msec(50);
  wcfg.stop = stop;
  wcfg.measure_from = measure_from;
  wcfg.churn_per_sec = 50;
  wcfg.seed = seed;
  kv::SessionWorkload workload(service, wcfg);
  workload.start();
  rings.run_until(stop + util::msec(200));  // drain in-flight completions

  KvPoint p;
  const double window_sec = util::to_sec(wcfg.stop - wcfg.measure_from);
  p.offered_kops = wcfg.base_rate *
                   kv::diurnal_integral(wcfg.measure_from, wcfg.stop, wcfg) /
                   window_sec / 1000.0;
  p.achieved_kops = workload.measured_ops_per_sec() / 1000.0;
  p.measured = workload.stats().measured;
  p.sessions_touched = workload.stats().sessions_touched;
  p.timeouts = workload.stats().timeouts;
  p.retries = workload.stats().retries;
  p.stats = workload.stats();
  p.latency = workload.latency();
  p.lease_read = workload.lease_read_latency();
  p.ordered_read = workload.ordered_read_latency();
  p.write = workload.write_latency();
  p.per_shard = std::move(per_shard);
  auto merged = std::make_shared<obs::MetricsRegistry>(rings.merged_metrics());
  // The validator's instrumentation guard keys on this histogram; for an
  // op-oriented figure the client-observed completion latency is the
  // delivery latency of interest.
  merged->histogram("harness", "delivery_latency_ns").merge(p.latency);
  p.metrics = std::move(merged);
  return p;
}

void append_kv_point(obs::JsonWriter& w, const KvPoint& p) {
  auto quants = [&](const obs::Histogram& h) {
    w.begin_object()
        .kv("mean", static_cast<int64_t>(h.mean()))
        .kv("p50", h.quantile(0.5))
        .kv("p90", h.quantile(0.9))
        .kv("p99", h.quantile(0.99))
        .kv("p999", h.quantile(0.999))
        .kv("max", h.max())
        .end_object();
  };
  w.begin_object();
  w.kv("offered_mbps", p.offered_kops);   // kops/s (see file comment)
  w.kv("achieved_mbps", p.achieved_kops); // kops/s
  w.kv("messages", p.measured);
  w.key("latency_ns");
  quants(p.latency);
  w.kv("ops_per_sec", p.achieved_kops * 1000.0);
  w.kv("sessions", p.sessions_touched);
  w.kv("lease_reads", p.stats.measured_lease_reads);
  w.kv("ordered_reads", p.stats.measured_ordered_reads);
  w.kv("mutations", p.stats.measured_mutations);
  w.kv("timeouts", p.timeouts);
  w.kv("retries", p.retries);
  w.kv("read_lease_p50", p.lease_read.quantile(0.5));
  w.kv("read_lease_p99", p.lease_read.quantile(0.99));
  w.kv("read_ordered_p50", p.ordered_read.quantile(0.5));
  w.kv("read_ordered_p99", p.ordered_read.quantile(0.99));
  w.kv("write_p50", p.write.quantile(0.5));
  w.kv("write_p99", p.write.quantile(0.99));
  // Per-shard breakdown: who did the work, and at what latency. The ops
  // ratio across rows is the live balance check (consistent-hash bound);
  // a migration shifts rows between consecutive points of a curve.
  w.key("shards").begin_array();
  for (size_t s = 0; s < p.per_shard.size(); ++s) {
    const ShardLoad& load = p.per_shard[s];
    w.begin_object()
        .kv("shard", static_cast<uint64_t>(s))
        .kv("ops", load.ops)
        .kv("lease_reads", load.lease_reads)
        .kv("ordered_reads", load.ordered_reads)
        .kv("mutations", load.mutations)
        .kv("p50", load.latency.quantile(0.5))
        .kv("p99", load.latency.quantile(0.99))
        .kv("max", load.latency.max())
        .end_object();
  }
  w.end_array();
  w.end_object();
}

void emit_kv_artifacts(const std::string& name,
                       const std::vector<std::pair<std::string,
                                                   std::vector<KvPoint>>>&
                           curves) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("bench", name);
  w.key("curves").begin_array();
  std::string csv =
      "label,offered_kops,achieved_kops,ops,sessions,lease_reads,"
      "ordered_reads,mutations,p50_us,p99_us,lease_p50_us,lease_p99_us,"
      "ordered_p50_us,ordered_p99_us,write_p50_us,write_p99_us,timeouts,"
      "shard_ops_min,shard_ops_max\n";
  for (const auto& [label, points] : curves) {
    w.begin_object();
    w.kv("label", label);
    w.key("points").begin_array();
    const KvPoint* best = nullptr;
    for (const KvPoint& p : points) {
      append_kv_point(w, p);
      if (best == nullptr || p.achieved_kops > best->achieved_kops) best = &p;
      uint64_t shard_min = p.per_shard.empty() ? 0 : p.per_shard[0].ops;
      uint64_t shard_max = shard_min;
      for (const ShardLoad& load : p.per_shard) {
        shard_min = std::min(shard_min, load.ops);
        shard_max = std::max(shard_max, load.ops);
      }
      char row[512];
      std::snprintf(
          row, sizeof(row),
          "%s,%.1f,%.1f,%llu,%llu,%llu,%llu,%llu,%.1f,%.1f,%.1f,%.1f,%.1f,"
          "%.1f,%.1f,%.1f,%llu,%llu,%llu\n",
          label.c_str(), p.offered_kops, p.achieved_kops,
          static_cast<unsigned long long>(p.measured),
          static_cast<unsigned long long>(p.sessions_touched),
          static_cast<unsigned long long>(p.stats.measured_lease_reads),
          static_cast<unsigned long long>(p.stats.measured_ordered_reads),
          static_cast<unsigned long long>(p.stats.measured_mutations),
          util::to_usec(p.latency.quantile(0.5)),
          util::to_usec(p.latency.quantile(0.99)),
          util::to_usec(p.lease_read.quantile(0.5)),
          util::to_usec(p.lease_read.quantile(0.99)),
          util::to_usec(p.ordered_read.quantile(0.5)),
          util::to_usec(p.ordered_read.quantile(0.99)),
          util::to_usec(p.write.quantile(0.5)),
          util::to_usec(p.write.quantile(0.99)),
          static_cast<unsigned long long>(p.timeouts),
          static_cast<unsigned long long>(shard_min),
          static_cast<unsigned long long>(shard_max));
      csv += row;
    }
    w.end_array();
    if (best != nullptr && best->metrics) {
      w.key("metrics");
      obs::append_registry(w, *best->metrics);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  const std::string base = bench_output_dir() + "/BENCH_" + name;
  if (!obs::write_text_file(base + ".json", w.str())) {
    std::fprintf(stderr, "warning: could not write %s.json\n", base.c_str());
  }
  if (!obs::write_text_file(base + ".csv", csv)) {
    std::fprintf(stderr, "warning: could not write %s.csv\n", base.c_str());
  }
  std::fprintf(stderr, "artifacts: %s.json %s.csv\n", base.c_str(),
               base.c_str());
}

void print_kv_point(const char* label, const KvPoint& p) {
  std::printf(
      "%-28s %9.1f %9.1f %8llu %9.1f %9.1f %9.1f %9.1f %7llu\n", label,
      p.offered_kops, p.achieved_kops,
      static_cast<unsigned long long>(p.sessions_touched),
      util::to_usec(p.latency.quantile(0.5)),
      util::to_usec(p.latency.quantile(0.99)),
      util::to_usec(p.lease_read.quantile(0.99)),
      util::to_usec(p.write.quantile(0.99)),
      static_cast<unsigned long long>(p.timeouts));
}

void print_header() {
  std::printf("%-28s %9s %9s %8s %9s %9s %9s %9s %7s\n", "curve",
              "off_kops", "ach_kops", "sessions", "p50_us", "p99_us",
              "lease_p99", "write_p99", "tmo");
}

}  // namespace
}  // namespace accelring::bench

int main(int argc, char** argv) {
  using namespace accelring;
  using namespace accelring::bench;

  bool smoke = false;
  bool durable = false;
  int smoke_shards = 1;
  double smoke_rate = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--durable") == 0) durable = true;
    if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      smoke_shards = std::atoi(argv[++i]);
    }
    if (std::strcmp(argv[i], "--rate") == 0 && i + 1 < argc) {
      smoke_rate = std::atof(argv[++i]);
    }
  }

  if (smoke) {
    std::printf("==== KV service smoke: K=%d%s ====\n\n", smoke_shards,
                durable ? " durable" : "");
    print_header();
    if (smoke_rate <= 0) smoke_rate = 20'000.0 * smoke_shards;
    const KvPoint p = run_kv_point(smoke_shards, smoke_rate,
                                   100'000, util::msec(500), 1, durable);
    const std::string label = "K=" + std::to_string(smoke_shards) + " smoke" +
                              (durable ? " durable" : "");
    print_kv_point(label.c_str(), p);
    emit_kv_artifacts("kv_smoke_" + std::to_string(smoke_shards) + "shard" +
                          (durable ? "_durable" : ""),
                      {{label, {p}}});
    return 0;
  }

  std::printf(
      "==== KV service: ops/sec and client latency, K = 1, 4, 8 ====\n\n");
  print_header();
  std::vector<std::pair<std::string, std::vector<KvPoint>>> curves;
  for (const int shards : {1, 4, 8}) {
    // One load grid shared by every K: the top point (~547 kops offered at
    // the diurnal mean) sits past the single ring's knee, so K=1 saturates
    // there while K=4 and K=8 hold flat client latency — sharding moves the
    // knee out rather than speeding up an unloaded ring.
    std::vector<KvPoint> points;
    const std::string label =
        "K=" + std::to_string(shards) + " / library / ten-gig / 1M sessions";
    for (const double rate : {150'000.0, 250'000.0, 350'000.0}) {
      points.push_back(
          run_kv_point(shards, rate, 1'000'000, util::msec(1150), 1));
      print_kv_point(label.c_str(), points.back());
    }
    curves.emplace_back(label, std::move(points));
  }
  emit_kv_artifacts("kv_service", curves);
  return 0;
}
