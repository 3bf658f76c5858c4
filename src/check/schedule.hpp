// Fault-schedule DSL for the campaign runner.
//
// A Schedule is a short list of timed fault events against a running
// cluster: loss bursts, token drops, partitions (with immediate or delayed
// heal), and node crash/restart. Schedules are generated deterministically
// from a seed by small scenario generators, so a failure reproduces from
// (scenario, seed) alone; the campaign runner (campaign.hpp) also shrinks a
// failing schedule to a minimal reproducer by greedy event removal, which
// works because every event is independently droppable (a heal without a
// partition, or a restart without a crash, degrades to a no-op).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "simnet/topology.hpp"
#include "util/time.hpp"

namespace accelring::check {

using util::Nanos;

enum class FaultKind : uint8_t {
  kLossBurst,     ///< random loss at `rate` for `duration`
  kTokenDrop,     ///< absorb the next `count` token-socket datagrams
  kPartition,     ///< move `group` into their own partition
  kHeal,          ///< put every host back into one partition
  kCrash,         ///< take `node` down
  kRestart,       ///< cold-restart `node` (no-op unless it is down)
  kLatencyShift,  ///< add `extra_latency` to every delivery for `duration`
  kOverload,      ///< client fleet: `count` extra sends burst from `node`
  kCpuMultiplier, ///< scale `node`'s simulated CPU costs by `rate` (1 = heal)
  kLinkLoss,      ///< drop `rate` of frames on the `peer`->`node` link
  kLinkDown,      ///< black-hole the `peer`->`node` link for `duration`
  kReorder,       ///< reorder `rate` of deliveries (up to `extra_latency` late)
  kDuplicate,     ///< duplicate `rate` of deliveries
  // Correlated faults (WAN scenarios; see docs/TOPOLOGIES.md).
  kRackPower,     ///< crash every host in `group` at once (rack power loss)
  kRackRestore,   ///< cold-restart every downed host in `group`
  kSwitchBrownout, ///< dc `node`: loss `rate` + `extra_latency` on every port
                   ///< for `duration`
  kWanDown,       ///< WAN link `node`<->`peer` (dc ids) down for `duration`
  // Storage faults (durable KV scenarios; see docs/ROBUSTNESS.md).
  kPowerLossAll,    ///< whole-cluster power loss: every up node crashes at once
  kPowerRestoreAll, ///< restart every downed node; recovery comes from disk
  kDiskDesync,      ///< `node`'s write cache starts lying (`count` picks the
                    ///< crash mode: 1 = torn, 2 = reorder); cleared by the
                    ///< next power loss
  kDiskBitRot,      ///< flip `count` durable bits in `node`'s shard files
  kDiskFull,        ///< `node`'s disk reports ENOSPC for `duration`
  kDiskStall,       ///< `node`'s next `count` disk ops fail with IO errors
  // Elastic-multiring faults (migration scenarios; see docs/MULTIRING.md).
  // Ring indices are resolved against the run's ring count K at execution
  // time (-1 = the last ring, other values taken modulo K), so one schedule
  // replays at any K.
  kRingOffline,     ///< at t=0: ring `node` starts owning no hash space
  kMigrate,         ///< start a live migration; `count` picks the mode:
                    ///< 1 = add ring `peer`, 2 = remove ring `node`,
                    ///< 3 = move `rate` of ring `node`'s span to `peer`,
                    ///< 4 = rebalance `rate` of the hottest ring's span to
                    ///<     the least-loaded ring
};

[[nodiscard]] const char* fault_name(FaultKind kind);

struct FaultEvent {
  Nanos at = 0;
  FaultKind kind = FaultKind::kLossBurst;
  int node = -1;           ///< crash / restart victim
  double rate = 0;         ///< loss probability during a burst
  Nanos duration = 0;      ///< loss-burst length
  uint32_t count = 0;      ///< token datagrams to absorb / burst sends
  Nanos extra_latency = 0; ///< added delivery latency during a shift
  int peer = -1;           ///< link-fault source host (-1 = any sender)
  std::vector<int> group;  ///< partition members split off
};

struct Schedule {
  std::string scenario;
  std::vector<FaultEvent> events;
};

[[nodiscard]] std::string describe(const FaultEvent& event);
[[nodiscard]] std::string describe(const Schedule& schedule);

/// Scenario generator: deterministic schedule from (seed, cluster size,
/// fault horizon). All generated events land inside [horizon/10, horizon].
using ScenarioFn = Schedule (*)(uint64_t seed, int nodes, Nanos horizon);

/// What a scenario's run drives, and which extra oracles judge it.
enum class Workload : uint8_t {
  /// Direct engine submits, a fixed cadence per node; at K > 1 each node
  /// spreads its submits round-robin over the rings.
  kRaw,
  /// A ClientFleet (daemons + failover clients) drives the workload. K = 1
  /// only.
  kClients,
  /// A full KV service (KvService + SessionWorkload + KvOracle) instead of
  /// raw submits, checking state-machine agreement, read correctness,
  /// session guarantees, and lease exclusivity under the schedule's faults.
  /// K = 1 only.
  kKv,
  /// kKv with per-node durability: every replica persists through a
  /// ReplicaStore over the node's SimDisk, and the DurabilityOracle judges
  /// every recovery against the committed history. K = 1 only.
  kDurableKv,
  /// Live migration: the workload submits through the per-node ShardRouters
  /// (keyed), the schedule carries kMigrate/kRingOffline events, and the
  /// MergedOracle runs its handoff audit. The campaign sweep skips these at
  /// K = 1, where there is nothing to migrate between (run_schedule runs
  /// them there as raw submits, with kMigrate a no-op).
  kMigration,
  /// kMigration with zipf-skewed keys (hot-shard scenarios) instead of
  /// uniform per-(node, index) keys.
  kMigrationZipf,
};

struct Scenario {
  const char* name;
  ScenarioFn make;
  /// Safe to run against a multi-ring set: faults that may legitimately
  /// split the merged total order (partitions) are excluded there.
  bool multiring_safe;
  Workload workload = Workload::kRaw;
  /// Runs on the campaign's multi-datacenter topology
  /// (campaign_wan_topology) with WAN-scaled protocol timeouts and a longer
  /// drain, instead of the single-switch LAN fabric.
  bool wan = false;

  [[nodiscard]] bool migration() const {
    return workload == Workload::kMigration ||
           workload == Workload::kMigrationZipf;
  }
};

/// The 3-datacenter topology every WAN campaign scenario runs on: `nodes`
/// hosts split contiguously over 3 metro-distance DCs (3 ms WAN propagation
/// — far above the LAN's 300 ns, small enough that token rotation stays well
/// inside the WAN campaign timeouts), racks of 2, full WAN mesh.
/// Deterministic: correlated-fault group selection draws against this.
[[nodiscard]] simnet::Topology campaign_wan_topology(int nodes);

/// The scenario catalogue, in campaign order.
[[nodiscard]] const std::vector<Scenario>& scenarios();
/// Lookup by name; nullptr when unknown.
[[nodiscard]] const Scenario* find_scenario(const std::string& name);

/// All one-event-removed variants, in order (for greedy shrinking).
[[nodiscard]] std::vector<Schedule> shrink_candidates(
    const Schedule& schedule);

}  // namespace accelring::check
