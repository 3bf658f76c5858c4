#include "check/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <set>
#include <utility>

#include "check/client_fleet.hpp"
#include "check/durability_oracle.hpp"
#include "check/kv_oracle.hpp"
#include "storage/replica_store.hpp"
#include "harness/workload.hpp"
#include "kv/workload.hpp"
#include "multiring/ring_set.hpp"
#include "obs/flight.hpp"
#include "util/rng.hpp"

namespace accelring::check {
namespace {

/// What one run's faults land on, and who hears of them: every ring of the
/// run's RingSet (one machine hosts a node's engine in every ring, so a
/// network fault hits each ring's fabric, a node fault hits that node in each
/// ring, and kMigrate goes to the RingSet), plus the oracles and workload
/// drivers it owns. Lives on the runner's stack for the whole run; scheduled
/// fault and expiry events point back at it.
struct FaultTarget {
  explicit FaultTarget(multiring::RingSet& set) : rings(set) {}
  FaultTarget(const FaultTarget&) = delete;  // scheduled events point at it
  FaultTarget& operator=(const FaultTarget&) = delete;

  multiring::RingSet& rings;
  // Who else hears of a crash or restart (unset ones are skipped).
  // apply_fault calls them in one fixed order, which is part of the
  // determinism contract: the durability oracle snapshots a node's applied
  // versions before crash_node resolves its un-fsynced disk state, and every
  // other witness hears after the cluster did.
  std::vector<std::unique_ptr<ClusterOracle>> oracles;  ///< one per ring
  std::unique_ptr<ClientFleet> fleet;            ///< client workload
  std::unique_ptr<kv::KvService> service;        ///< KV workloads
  KvOracle kv_oracle;                            ///< judges `service`
  std::unique_ptr<DurabilityOracle> durability;  ///< durable KV workload
  uint32_t token_drops_pending = 0;
  /// Faults this ring count cannot judge yet; each fails the run.
  std::vector<Violation> unsupported;

  [[nodiscard]] simnet::EventQueue& eq() const { return rings.eq(); }
  [[nodiscard]] bool down(int node) const { return rings.node_down(node); }
  [[nodiscard]] bool multi() const { return rings.num_rings() > 1; }
  /// Flight-record name of `node` in ring `ring`.
  [[nodiscard]] std::string node_name(int ring, int node) const {
    const std::string n = "node" + std::to_string(node);
    return multi() ? "ring" + std::to_string(ring) + "/" + n : n;
  }
  /// `fn(ring)` on every ring: now, or once `delay` has passed.
  template <typename Fn>
  void each(Fn fn) const {
    for (int r = 0; r < rings.num_rings(); ++r) fn(rings.ring(r));
  }
  template <typename Fn>
  void each_after(Nanos delay, Fn fn) {
    eq().schedule_after(delay, [this, fn] { each(fn); });
  }
};

/// The MigrationPlan a kMigrate event asks for, its ring indices resolved
/// against K (-1 = the last ring, others modulo K). Empty for an unknown mode.
multiring::MigrationPlan migration_plan(const FaultEvent& e,
                                        const multiring::ShardMap& map,
                                        int k) {
  const auto ring_arg = [k](int r) { return r < 0 ? k - 1 : r % k; };
  if (e.count == 1) return map.plan_add_ring(ring_arg(e.peer));
  if (e.count == 2) return map.plan_remove_ring(ring_arg(e.node));
  if (e.count == 3) {
    return map.plan_move_fraction(ring_arg(e.node), ring_arg(e.peer), e.rate);
  }
  if (e.count == 4) {
    // Rebalance: the ring owning stream id 0 (the zipf-hot key) is the
    // hottest; the smallest ownership share takes the slice.
    const int hot = map.ring_of_key(multiring::mix64(0));
    int coldest = 0;
    for (int r = 1; r < k; ++r) {
      if (map.owned_fraction(r) < map.owned_fraction(coldest)) coldest = r;
    }
    return map.plan_move_fraction(hot, coldest, e.rate);
  }
  return {};
}

/// Apply one fault event to every cluster of the run. Every event is
/// droppable by design (the shrinker relies on it): a restart of a node that
/// is up, a heal without a partition, or a rate-1 CPU multiplier is a no-op.
void apply_fault(const FaultEvent& e, FaultTarget& t) {
  const auto crash = [&t](int n) {
    if (t.down(n)) return;
    if (t.durability != nullptr) t.durability->note_crash(n);
    t.each([n](auto& c) { c.crash_node(n); });
    for (const auto& oracle : t.oracles) oracle->note_crash(n);
    if (t.fleet != nullptr) t.fleet->on_crash(n);
    if (t.service != nullptr) t.service->on_crash(n);
  };
  const auto restart = [&t](int n) {
    if (!t.down(n)) return false;
    t.each([n](auto& c) { c.restart_node(n); });
    for (const auto& oracle : t.oracles) oracle->note_restart(n);
    if (t.fleet != nullptr) t.fleet->on_restart(n);
    if (t.service != nullptr) {
      t.service->on_restart(n);
      t.kv_oracle.note_restart(n);
    }
    if (t.durability != nullptr) t.durability->note_restart(n);
    return true;
  };
  const auto disk_unsafe = [&t, &e](const char* why) {
    if (t.durability != nullptr) t.durability->note_disk_unsafe(e.node, why);
  };
  switch (e.kind) {
    case FaultKind::kLossBurst:
      t.each([&e](auto& c) { c.net().set_loss_rate(e.rate); });
      t.each_after(e.duration, [](auto& c) { c.net().set_loss_rate(0); });
      break;
    case FaultKind::kTokenDrop:
      t.token_drops_pending += e.count;
      break;
    case FaultKind::kPartition:
      t.each([&e](auto& c) {
        for (int n : e.group) c.net().set_partition(n, 1);
      });
      break;
    case FaultKind::kHeal:
      t.each([](auto& c) { c.net().heal(); });
      break;
    case FaultKind::kCrash:
      crash(e.node);
      break;
    case FaultKind::kRestart:
    case FaultKind::kRackRestore:
    case FaultKind::kPowerRestoreAll:
      if (t.multi()) {
        // A restarted node's merged stream legitimately holds a gap (what
        // was delivered while it was down), which the merged-prefix oracle
        // cannot excuse yet: refuse loudly rather than drop the event.
        t.unsupported.push_back(Violation{
            std::string(fault_name(e.kind)) + " unsupported at rings=" +
            std::to_string(t.rings.num_rings())});
      } else if (e.kind == FaultKind::kRestart) {
        restart(e.node);
      } else if (e.kind == FaultKind::kRackRestore) {
        for (int n : e.group) restart(n);
      } else {
        bool any = false;
        for (int n = 0; n < t.rings.nodes_per_ring(); ++n) {
          any = restart(n) || any;
        }
        // The whole cluster is back: judge what survived against the
        // committed history, then roll the KV oracle onto the revived
        // lineage. Skipped when the power loss was shrunk away.
        if (any && t.durability != nullptr) {
          t.durability->note_cluster_recovery(&t.kv_oracle);
        }
      }
      break;
    case FaultKind::kLatencyShift:
      // Shifts compose additively (overlapping congestion episodes add up);
      // the expiry subtracts exactly its own onset, and the fabric clamps at
      // 0 if a heal-all already absorbed it.
      t.each([&e](auto& c) { c.net().add_extra_latency(e.extra_latency); });
      t.each_after(e.duration, [x = e.extra_latency](auto& c) {
        c.net().add_extra_latency(-x);
      });
      break;
    case FaultKind::kOverload:
      if (t.fleet != nullptr) t.fleet->burst(e.node, e.count);
      break;
    case FaultKind::kCpuMultiplier:
      t.each([&e](auto& c) { c.process(e.node).set_cpu_multiplier(e.rate); });
      break;
    case FaultKind::kLinkLoss:
      t.each([&e](auto& c) { c.net().set_link_loss(e.peer, e.node, e.rate); });
      break;
    case FaultKind::kLinkDown:
      t.each([&e](auto& c) { c.net().set_link_down(e.peer, e.node, true); });
      t.each_after(e.duration, [e](auto& c) {
        c.net().set_link_down(e.peer, e.node, false);
      });
      break;
    case FaultKind::kReorder:
      t.each([&e](auto& c) { c.net().set_reorder(e.rate, e.extra_latency); });
      t.each_after(e.duration, [](auto& c) { c.net().set_reorder(0, 0); });
      break;
    case FaultKind::kDuplicate:
      t.each([&e](auto& c) { c.net().set_duplicate(e.rate); });
      t.each_after(e.duration, [](auto& c) { c.net().set_duplicate(0); });
      break;
    case FaultKind::kRackPower:
      // One power domain dies at the same instant.
      for (int n : e.group) crash(n);
      break;
    case FaultKind::kSwitchBrownout:
      t.each([&e](auto& c) {
        c.net().set_dc_brownout(e.node, e.rate, e.extra_latency);
      });
      t.each_after(e.duration,
                   [e](auto& c) { c.net().set_dc_brownout(e.node, 0, 0); });
      break;
    case FaultKind::kWanDown:
      t.each([&e](auto& c) { c.net().set_wan_down(e.node, e.peer, true); });
      t.each_after(e.duration, [e](auto& c) {
        c.net().set_wan_down(e.node, e.peer, false);
      });
      break;
    case FaultKind::kPowerLossAll:
      for (int n = 0; n < t.rings.nodes_per_ring(); ++n) crash(n);
      break;
    case FaultKind::kDiskDesync:
      t.each([&e](auto& c) {
        c.disk(e.node).set_crash_mode(e.count >= 2
                                          ? storage::CrashMode::kReorder
                                          : storage::CrashMode::kTorn);
        c.disk(e.node).set_write_cache_lies(true);
      });
      disk_unsafe("lying write cache");
      break;
    case FaultKind::kDiskBitRot:
      t.each([&e](auto& c) {
        c.disk(e.node).flip_bits(static_cast<int>(e.count), "shard");
      });
      disk_unsafe("bit rot");
      break;
    case FaultKind::kDiskFull:
      t.each([&e](auto& c) { c.disk(e.node).set_capacity(1); });
      disk_unsafe("enospc");
      t.each_after(e.duration,
                   [e](auto& c) { c.disk(e.node).set_capacity(0); });
      break;
    case FaultKind::kDiskStall:
      t.each([&e](auto& c) {
        c.disk(e.node).stall_ops(static_cast<int>(e.count));
      });
      disk_unsafe("io stall");
      break;
    case FaultKind::kRingOffline:
      // Construction-time hint, consumed by the runner before the run.
      break;
    case FaultKind::kMigrate:
      // Droppable: an empty plan (adding an active ring, removing the last
      // active one, moving a span onto itself) or a migration already in
      // flight is a no-op, and so is any migration at K = 1.
      if (t.multi() && t.rings.migration_idle()) {
        (void)t.rings.start_migration(
            migration_plan(e, t.rings.shards(), t.rings.num_rings()));
      }
      break;
  }
}

/// Install the token-drop filter and schedule every event of `schedule`.
void arm_faults(FaultTarget& t, const Schedule& schedule) {
  t.each([&t](harness::SimCluster& c) {
    c.net().set_drop_filter([&t](int, int, simnet::SocketId sock,
                                 const std::vector<std::byte>&) {
      if (sock != simnet::kTokenSocket || t.token_drops_pending == 0) {
        return false;
      }
      --t.token_drops_pending;
      return true;
    });
  });
  for (const FaultEvent& e : schedule.events) {
    t.eq().schedule_after(e.at, [&t, e] { apply_fault(e, t); });
  }
}

/// Heal everything at the horizon so the drain can converge. Gray faults heal
/// too: a quarantined member turns healthy here and probes its way back
/// through probation during the drain.
void arm_heal(FaultTarget& t, Nanos horizon) {
  t.eq().schedule_after(horizon, [&t] {
    t.each([](harness::SimCluster& c) {
      c.net().heal();
      c.net().set_loss_rate(0);
      c.net().set_extra_latency(0);
      c.net().clear_link_faults();  // WAN links up, brownouts off too
      for (int n = 0; n < c.size(); ++n) {
        // Back to the *constructed* speed: heterogeneous topologies keep
        // their hardware through a heal.
        c.process(n).set_cpu_multiplier(c.base_cpu_multiplier(n));
      }
    });
    t.token_drops_pending = 0;
  });
}

/// Ejection audit (see RunResult::false_ejections). Partitions, crashes,
/// restarts, and correlated power or WAN faults can legitimately remove any
/// node from a configuration; a gray fault (slow CPU, lossy or severed link,
/// browned-out switch) justifies removing only its victims. Everyone else is
/// healthy: a configuration that excludes a healthy, reachable node counts as
/// a false ejection, and a gray-failure quarantine of one is a safety
/// violation. Construct before the run starts; judge() after it.
class EjectionAudit {
 public:
  EjectionAudit(const Schedule& schedule, FaultTarget& t) : t_(t) {
    const simnet::Topology& topo = t.rings.ring(0).net().topology();
    for (const FaultEvent& e : schedule.events) {
      const FaultKind k = e.kind;
      if (k == FaultKind::kPartition || k == FaultKind::kCrash ||
          k == FaultKind::kRestart || k == FaultKind::kRackPower ||
          k == FaultKind::kRackRestore || k == FaultKind::kWanDown ||
          k == FaultKind::kPowerLossAll || k == FaultKind::kPowerRestoreAll) {
        churn_ = true;
      } else if ((k == FaultKind::kCpuMultiplier && e.rate > 1.0) ||
                 k == FaultKind::kLinkLoss || k == FaultKind::kLinkDown) {
        degraded_.insert(e.node);
        // A severed directed link degrades both endpoints' view of each
        // other; either may legitimately fall out of a configuration.
        if (k == FaultKind::kLinkDown && e.peer >= 0) degraded_.insert(e.peer);
      } else if (k == FaultKind::kSwitchBrownout) {
        // Every host behind the browned switch is degraded.
        for (int h = 0; h < topo.num_hosts(); ++h) {
          if (topo.dc_of(h) == e.node) degraded_.insert(h);
        }
      }
    }
    if (churn_) return;
    for (int r = 0; r < t.rings.num_rings(); ++r) {
      harness::SimCluster& c = t.rings.ring(r);
      c.add_on_config([this, &c, r](int,
                                    const protocol::ConfigurationChange& ch) {
        if (ch.transitional) return;
        for (int n = 0; n < c.size(); ++n) {
          if (c.net().host_down(n) || degraded_.contains(n)) continue;
          const auto pid = static_cast<protocol::ProcessId>(n);
          bool member = false;
          for (const auto m : ch.config.members) member = member || m == pid;
          if (!member) ejected_.insert({r, ch.config.ring_id});
        }
      });
    }
  }
  EjectionAudit(const EjectionAudit&) = delete;  // observers point at it
  EjectionAudit& operator=(const EjectionAudit&) = delete;

  void judge(RunResult& res) const {
    res.false_ejections = ejected_.size();
    // Every pid any engine's membership layer ever quarantined (read from
    // the quarantine log, which — unlike the trace ring buffer — never
    // wraps) must have been the target of a gray fault. Churn schedules are
    // exempt: membership churn there can hand the detector a legitimately
    // torn ring.
    if (churn_) return;
    for (int r = 0; r < t_.rings.num_rings(); ++r) {
      harness::SimCluster& c = t_.rings.ring(r);
      std::set<protocol::ProcessId> blamed;
      for (int n = 0; n < c.size(); ++n) {
        for (const protocol::ProcessId v : c.engine(n).quarantine_victims()) {
          blamed.insert(v);
        }
      }
      for (const protocol::ProcessId v : blamed) {
        if (degraded_.contains(static_cast<int>(v))) continue;
        res.ok = false;
        res.violations.push_back(Violation{
            (t_.multi() ? "ring " + std::to_string(r) + ": " : std::string()) +
            "healthy member quarantined: node " + std::to_string(v) +
            " was gray-failure evicted but no fault degraded it"});
      }
    }
  }

 private:
  const FaultTarget& t_;
  bool churn_ = false;
  std::set<int> degraded_;
  std::set<std::pair<int, uint64_t>> ejected_;  ///< (ring, ring id)
};

/// Fold one oracle's verdict into the run's.
void fold(RunResult& res, bool ok, const std::vector<Violation>& violations) {
  res.ok = res.ok && ok;
  res.violations.insert(res.violations.end(), violations.begin(),
                        violations.end());
}

/// What every run ends with: the ejection audit, the faults this K could not
/// apply, the joined report, and — for a failing run with artifacts on — the
/// flight record: violations, each node's recent trace, the disks' injected
/// storage faults, and a metric snapshot.
RunResult finish_run(RunResult res, const FaultTarget& t,
                     const EjectionAudit& audit, const RunOptions& opt,
                     const Schedule& schedule, uint64_t seed) {
  audit.judge(res);
  for (const Violation& v : t.unsupported) {
    res.ok = false;
    res.violations.push_back(v);
  }
  res.report = join_reports({&res.violations});
  if (res.ok || opt.artifact_dir.empty()) return res;

  const obs::MetricsRegistry metrics = t.rings.merged_metrics();
  obs::FlightRecord record;
  record.scenario = schedule.scenario;
  record.seed = seed;
  record.captured_at = t.eq().now();
  for (const Violation& v : res.violations) record.violations.push_back(v.what);
  for (int r = 0; r < t.rings.num_rings(); ++r) {
    harness::SimCluster& c = t.rings.ring(r);
    for (int n = 0; n < c.size(); ++n) {
      // What each disk actually did to the data (desync windows, torn-write
      // resolutions, bit flips, ENOSPC) is what a durability failure
      // reproduces from.
      for (const std::string& line : c.disk(n).fault_log()) {
        record.storage_faults.push_back(t.node_name(r, n) + ": " + line);
      }
      obs::FlightNode fn;
      fn.name = t.node_name(r, n);
      fn.events = c.tracer(n).snapshot();
      record.nodes.push_back(std::move(fn));
    }
  }
  record.metrics = &metrics;
  res.artifact_path = obs::dump_flight(record, opt.artifact_dir);
  return res;
}

/// The migration campaigns' keyed workload: a small universe of shared
/// stream ids (so every key sees many messages from many submitters across
/// a handoff), uniform by default, triangular-skewed toward key 0 for the
/// hot-shard scenarios. Deterministic in (node, index) alone, so the
/// MergedOracle recomputes the routing key from the payload stamp.
uint64_t keyed_stream_id(bool zipf, int node, uint32_t index) {
  constexpr uint64_t kKeyUniverse = 64;
  const uint64_t h =
      multiring::mix64((static_cast<uint64_t>(node) << 32) | index);
  if (!zipf) return h % kKeyUniverse;
  // min of two uniforms: mass concentrates at small ids, key 0 hottest.
  return std::min(h % kKeyUniverse, (h >> 32) % kKeyUniverse);
}

/// Schedule every node's submit chain, each payload stamped with its
/// submitter, index (unique per node) and submit time. Raw submits go
/// round-robin over the rings, each noted with its ring's ClusterOracle.
/// Keyed submits go through the per-node ShardRouters: the router (not the
/// caller) picks the ring, holding moving keys across each handoff, so the
/// per-ring self-delivery bookkeeping does not apply — the MergedOracle's
/// handoff audit owns the continuity obligations.
void arm_workload(FaultTarget& t, const RunOptions& opt, bool keyed,
                  bool zipf) {
  const int64_t shots = opt.horizon / opt.submit_interval;
  for (int node = 0; node < opt.nodes; ++node) {
    // Phase-shift nodes so submissions do not synchronize.
    const Nanos phase =
        opt.submit_interval * node / std::max(opt.nodes, 1);
    for (int64_t k = 0; k < shots; ++k) {
      const Nanos at = opt.submit_interval * k + phase + util::usec(50);
      const auto index = static_cast<uint32_t>(k);
      t.eq().schedule_after(at, [&t, &opt, keyed, zipf, node, index] {
        if (t.down(node)) return;
        harness::PayloadStamp stamp;
        stamp.inject_time = t.eq().now();
        stamp.sender = static_cast<uint32_t>(node);
        stamp.index = index;
        std::vector<std::byte> payload =
            harness::make_payload(opt.payload_size, stamp);
        // Mostly Agreed with a steady trickle of Safe, so both delivery
        // paths and both sides of the safe line are exercised under faults.
        const protocol::Service service = index % 5 == 0
                                              ? protocol::Service::kSafe
                                              : protocol::Service::kAgreed;
        if (keyed) {
          t.rings.submit_keyed(node, keyed_stream_id(zipf, node, index),
                               service, std::move(payload));
          return;
        }
        const int ring = static_cast<int>(index) % opt.rings;
        t.oracles[static_cast<size_t>(ring)]->note_submit(node, index);
        t.rings.submit(node, ring, service, std::move(payload));
      });
    }
  }
}

}  // namespace

protocol::ProtocolConfig fast_proto_config() {
  protocol::ProtocolConfig cfg;
  cfg.timeouts.token_loss = util::msec(30);
  cfg.timeouts.join = util::msec(5);
  cfg.timeouts.consensus = util::msec(60);
  return cfg;
}

protocol::ProtocolConfig campaign_proto_config() {
  protocol::ProtocolConfig cfg = fast_proto_config();
  cfg.gray.enabled = true;
  return cfg;
}

protocol::ProtocolConfig wan_proto_config() {
  protocol::ProtocolConfig cfg = campaign_proto_config();
  // A token rotation on campaign_wan_topology crosses up to three 3 ms WAN
  // links each way; the LAN-tuned timeouts would declare loss on every
  // rotation. Stretched statics keep the failure detector sound, and the
  // adaptive estimator (the feature WAN delay motivates) tightens them back
  // toward the measured rotation once the ring is steady.
  cfg.timeouts.token_retransmit = util::msec(25);
  cfg.timeouts.token_loss = util::msec(80);
  cfg.timeouts.join = util::msec(15);
  cfg.timeouts.consensus = util::msec(160);
  cfg.adaptive_timeouts = true;
  return cfg;
}

RunResult run_schedule(const RunOptions& base, const Schedule& schedule,
                       uint64_t seed) {
  const Scenario* sc = find_scenario(schedule.scenario);
  const Workload workload = sc != nullptr ? sc->workload : Workload::kRaw;
  const bool wan = sc != nullptr && sc->wan;
  const bool multi = base.rings > 1;
  const bool kv = workload == Workload::kKv || workload == Workload::kDurableKv;
  const bool durable = workload == Workload::kDurableKv;
  if (multi && (kv || workload == Workload::kClients)) {
    // The client fleet and the KV stack run on one ring only. Refuse rather
    // than fall back to raw submits, where a kOverload would do nothing.
    RunResult res;
    res.violations.push_back(Violation{
        std::string(kv ? "kv" : "client") + " workload unsupported at rings=" +
        std::to_string(base.rings)});
    res.report = join_reports({&res.violations});
    return res;
  }
  // At K = 1 there is nothing to migrate between: a migration scenario runs
  // raw submits there, which keep the per-ring self-delivery check.
  const bool keyed = multi && sc != nullptr && sc->migration();
  const bool zipf = workload == Workload::kMigrationZipf;
  RunOptions opt = base;
  if (wan) {
    // WAN scenarios swap in the rescaled timeouts and give the drain room
    // for a post-heal view change over 3 ms links. Callers that already ask
    // for a longer drain keep theirs.
    opt.proto = wan_proto_config();
    opt.drain = std::max<Nanos>(opt.drain, util::msec(450));
  }

  multiring::MultiRingConfig mcfg;
  if (wan) mcfg.topology = campaign_wan_topology(opt.nodes);
  mcfg.rings = opt.rings;
  mcfg.nodes_per_ring = opt.nodes;
  mcfg.fabric = opt.fabric;
  mcfg.proto = opt.proto;
  if (workload == Workload::kClients) {
    // A client run must be able to overload its daemons within one burst:
    // clamp the engine queue so sends actually cross the high-water line.
    mcfg.proto.max_pending = std::min<size_t>(mcfg.proto.max_pending, 384);
  }
  mcfg.profile = opt.profile;
  mcfg.merge_batch = opt.merge_batch;
  mcfg.skip_interval = opt.skip_interval;
  mcfg.seed = seed;
  // A kRingOffline event is a construction-time hint: the last ring starts
  // owning no hash space (its skip daemon still keeps the merge rotating)
  // until a kMigrate add brings it in.
  for (const FaultEvent& e : schedule.events) {
    if (e.kind == FaultKind::kRingOffline) {
      mcfg.active_rings = std::max(1, opt.rings - 1);
    }
  }
  multiring::RingSet rings(mcfg);
  if (opt.inject_handoff_bug) rings.inject_stale_flush(1);
  // Metrics ride along only when a failure would dump them: recording is
  // perturbation-free (obs_determinism_test), so the verdict is unaffected,
  // and passing runs skip the registry allocations.
  if (!opt.artifact_dir.empty()) rings.enable_metrics();

  FaultTarget faults(rings);
  for (int r = 0; r < opt.rings; ++r) {
    faults.oracles.push_back(std::make_unique<ClusterOracle>(
        opt.nodes, multi ? "ring " + std::to_string(r) : ""));
    faults.oracles.back()->attach(rings.ring(r));
  }
  const EjectionAudit audit(schedule, faults);

  std::optional<MergedOracle> merged;
  if (multi) {
    merged.emplace(opt.nodes);
    if (opt.inject_merge_bug) {
      // Mutation: swap adjacent pairs of node 1's merged stream before the
      // oracle sees them — a deliberate total-order bug the oracles must
      // catch (and the shrinker must reduce).
      auto held = std::make_shared<
          std::optional<std::pair<int, protocol::Delivery>>>();
      rings.add_on_merged([&merged, held](int node, int ring,
                                          const protocol::Delivery& d, Nanos) {
        if (node != 1) {
          merged->on_merged(node, ring, d);
          return;
        }
        if (!held->has_value()) {
          *held = std::make_pair(ring, d);
          return;
        }
        merged->on_merged(node, ring, d);
        merged->on_merged(node, (*held)->first, (*held)->second);
        held->reset();
      });
    } else {
      merged->attach(rings);
    }
  }
  if (keyed) {
    // Handoff audit: recompute each delivery's routing key from the payload
    // stamp (submit_keyed mixes the raw stream id before the arc lookup, so
    // the oracle mixes identically).
    merged->enable_handoff_audit(
        [zipf](const protocol::Delivery& d)
            -> std::optional<MergedOracle::KeyedPayload> {
          harness::PayloadStamp stamp;
          if (!harness::parse_payload(d.payload, stamp)) return std::nullopt;
          MergedOracle::KeyedPayload kp;
          kp.key = multiring::mix64(keyed_stream_id(
              zipf, static_cast<int>(stamp.sender), stamp.index));
          kp.submitter = stamp.sender;
          kp.index = stamp.index;
          return kp;
        });
  }

  if (workload == Workload::kClients) {
    FleetOptions fopt;
    fopt.daemon.session_queue_limit = 48;
    fopt.seed = seed;
    faults.fleet = std::make_unique<ClientFleet>(rings.ring(0), fopt);
  }

  std::unique_ptr<kv::SessionWorkload> sessions;
  if (kv) {
    // One shard, no preload: the KvOracle needs a fully observed history.
    kv::ServiceConfig scfg;
    if (durable) {
      // Every (node, shard) replica persists to the node's SimDisk. The file
      // prefix starts with "shard" so kDiskBitRot (which targets that
      // prefix) corrupts WAL/checkpoint files but never the epoch file
      // beside them.
      scfg.store_factory = [&rings](int node, int shard) {
        return std::make_unique<storage::ReplicaStore>(
            rings.ring(0).disk(node), "shard" + std::to_string(shard));
      };
    }
    faults.service = std::make_unique<kv::KvService>(rings, scfg);
    kv::KvService& service = *faults.service;
    if (!opt.artifact_dir.empty()) service.bind_metrics();
    KvOracle& kv_oracle = faults.kv_oracle;
    kv_oracle.bind(service);
    if (durable) {
      faults.durability = std::make_unique<DurabilityOracle>();
      faults.durability->bind(service);
    }
    // One set of service observers fans out to both oracles (the KvOracle
    // first, so mutation history is recorded before durability bookkeeping
    // reads the same event).
    DurabilityOracle* const dur = faults.durability.get();
    service.set_on_applied([&kv_oracle, dur](int node, int shard,
                                              const kv::AppliedOp& applied,
                                              Nanos at) {
      kv_oracle.on_applied(node, shard, applied, at);
      if (dur != nullptr) dur->on_applied(node, shard, applied, at);
    });
    service.set_on_lease_grant(
        [&kv_oracle](int node, int shard, const kv::LeaseId& id, Nanos at) {
          kv_oracle.on_lease_grant(node, shard, id, at);
        });
    service.set_on_outcome(
        [&kv_oracle, dur](int node, const kv::Frontend::Outcome& outcome) {
          kv_oracle.on_outcome(node, outcome);
          if (dur != nullptr) dur->on_outcome(node, outcome);
        });
    // Write-heavy next to the bench, so the oracle sees more history churn,
    // and issuing through the drain's first half, so reads and leases are
    // exercised across the heal.
    kv::WorkloadConfig wcfg;
    wcfg.sessions = 64;
    wcfg.keys = 128;
    wcfg.zipf_s = 0.9;
    wcfg.read_fraction = 0.7;
    wcfg.value_size = opt.payload_size;
    wcfg.base_rate = 4000;
    wcfg.peak_factor = 1.5;
    wcfg.period = opt.horizon;
    wcfg.start = util::msec(5);
    wcfg.stop = opt.horizon + opt.drain / 2;
    wcfg.churn_per_sec = 20;
    // WAN: a quorum round-trip crosses 3 ms links, and a rack-power view
    // change takes several WAN token rotations — give ops headroom to retry
    // past it instead of timing out spuriously.
    wcfg.op_timeout = wan ? util::msec(80) : util::msec(30);
    wcfg.measure_from = 0;
    wcfg.seed = seed;
    sessions = std::make_unique<kv::SessionWorkload>(service, wcfg);
  }

  rings.start_static();
  if (sessions) sessions->start();
  arm_faults(faults, schedule);
  if (faults.fleet) {
    faults.fleet->start(opt.horizon);
  } else if (!kv) {
    arm_workload(faults, opt, keyed, zipf);
  }
  arm_heal(faults, opt.horizon);
  rings.run_until(opt.horizon + opt.drain);

  RunResult res;
  res.ok = true;
  for (int r = 0; r < opt.rings; ++r) {
    ClusterOracle& oracle = *faults.oracles[static_cast<size_t>(r)];
    const harness::ClusterStats stats = rings.ring(r).stats();
    oracle.finalize(&stats);
    fold(res, oracle.ok(), oracle.violations());
    res.delivered += oracle.observed();
    res.quarantines += stats.quarantines();
    res.readmits += stats.readmits();
  }
  if (merged) {
    merged->finalize();
    fold(res, merged->ok(), merged->violations());
  }
  if (faults.fleet) {
    const FleetReport fr = faults.fleet->finalize();
    fold(res, fr.ok, fr.violations);
    res.client_delivered = fr.delivered;
  }
  if (faults.service) {
    faults.kv_oracle.finalize();
    fold(res, faults.kv_oracle.ok(), faults.kv_oracle.violations());
    if (faults.durability) {
      faults.durability->finalize();
      fold(res, faults.durability->ok(), faults.durability->violations());
    }
    res.client_delivered = sessions->stats().completed;
  }
  // Handoff liveness: once the last migration completed (controller idle),
  // every held keyed submission must have flushed to its destination. A
  // migration still in flight at the end of the drain (e.g. started during
  // an unhealed partition after shrinking) legitimately keeps its holds.
  if (keyed && rings.migration_idle() && rings.held_messages() != 0) {
    res.ok = false;
    res.violations.push_back(Violation{
        "migration completed but " + std::to_string(rings.held_messages()) +
        " keyed message(s) still held un-flushed"});
  }
  return finish_run(std::move(res), faults, audit, opt, schedule, seed);
}


Schedule shrink(const RunOptions& opt, const Schedule& schedule,
                uint64_t seed) {
  // Candidate runs must not spam artifacts: the failing run already dumped
  // its black box, and a shrink sweep replays hundreds of near-duplicates.
  RunOptions quiet = opt;
  quiet.artifact_dir.clear();
  Schedule best = schedule;
  bool improved = true;
  while (improved && !best.events.empty()) {
    improved = false;
    for (Schedule& cand : shrink_candidates(best)) {
      if (!run_schedule(quiet, cand, seed).ok) {
        best = std::move(cand);
        improved = true;
        break;
      }
    }
  }
  return best;
}

CampaignResult run_campaign(const CampaignOptions& opt) {
  CampaignResult result;
  size_t scenario_index = 0;
  for (const Scenario& sc : scenarios()) {
    const size_t idx = scenario_index++;
    if (!opt.only.empty()) {
      bool wanted = false;
      for (const std::string& name : opt.only) wanted = wanted || name == sc.name;
      if (!wanted) continue;
    }
    if (opt.run.rings > 1 && !sc.multiring_safe) continue;
    // Migration scenarios need a ring set to migrate between.
    if (opt.run.rings <= 1 && sc.migration()) continue;

    std::vector<uint64_t> seeds;
    for (int i = 0; i < opt.seeds_per_scenario; ++i) {
      seeds.push_back(opt.seed_base + static_cast<uint64_t>(i));
    }
    for (uint64_t s : opt.extra_seeds) seeds.push_back(s);

    // Counters as of this scenario's start, for its verbose line.
    const CampaignResult before = result;
    for (uint64_t seed : seeds) {
      // The schedule derives from (scenario, seed) alone, so a failure
      // reproduces from the printed pair.
      uint64_t sm = seed * 1000003ULL + idx;
      const uint64_t gen_seed = util::splitmix64(sm);
      const Schedule schedule =
          sc.make(gen_seed, opt.run.nodes, opt.run.horizon);
      const RunResult run = run_schedule(opt.run, schedule, seed);
      ++result.runs;
      result.delivered += run.delivered;
      result.client_delivered += run.client_delivered;
      result.false_ejections += run.false_ejections;
      result.quarantines += run.quarantines;
      result.readmits += run.readmits;
      if (run.ok) continue;

      ++result.failures;
      std::fprintf(stderr,
                   "campaign FAILURE scenario=%s seed=%llu rings=%d\n  %s\n",
                   sc.name, static_cast<unsigned long long>(seed),
                   opt.run.rings, describe(schedule).c_str());
      for (const Violation& v : run.violations) {
        std::fprintf(stderr, "  violation: %s\n", v.what.c_str());
      }
      if (!run.artifact_path.empty()) {
        std::fprintf(stderr, "  flight record: %s\n",
                     run.artifact_path.c_str());
      }
      if (result.cases.size() < 8) {
        FailureCase fc;
        fc.scenario = sc.name;
        fc.seed = seed;
        fc.schedule = schedule;
        fc.shrunk = opt.shrink_failures ? shrink(opt.run, schedule, seed)
                                        : schedule;
        fc.report = run.report;
        if (opt.shrink_failures) {
          std::fprintf(stderr, "  shrunk to: %s\n",
                       describe(fc.shrunk).c_str());
        }
        result.cases.push_back(std::move(fc));
      }
    }
    if (opt.verbose) {
      std::fprintf(
          stderr,
          "campaign scenario=%-31s rings=%d runs=%d delivered=%llu "
          "client_delivered=%llu quarantines=%llu readmits=%llu "
          "false_ejections=%llu %s\n",
          sc.name, opt.run.rings, result.runs - before.runs,
          static_cast<unsigned long long>(result.delivered - before.delivered),
          static_cast<unsigned long long>(result.client_delivered -
                                          before.client_delivered),
          static_cast<unsigned long long>(result.quarantines -
                                          before.quarantines),
          static_cast<unsigned long long>(result.readmits - before.readmits),
          static_cast<unsigned long long>(result.false_ejections -
                                          before.false_ejections),
          result.failures == before.failures ? "ok" : "FAILED");
    }
  }
  return result;
}

}  // namespace accelring::check
