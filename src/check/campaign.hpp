// Fault-injection campaign runner.
//
// run_schedule() drives one seeded simulation under a fault Schedule with
// the safety oracles attached, heals every fault at the horizon, drains, and
// returns the oracle verdict. There is one runner: every run is a
// multiring::RingSet of `rings` rings, and rings = 1 is the single cluster
// (one ring and no skip daemon, so its merged stream is the ring's own
// delivery stream and the run replays a bare SimCluster event for event).
// Every ring gets a ClusterOracle; at rings > 1 the MergedOracle judges every
// node's merged stream on top. The scenario's Workload picks the driver:
// raw submits, a client fleet, the KV stack with its KV and durability
// oracles, or the keyed migration workload. The client and KV workloads run
// on one ring only; at rings > 1 the run is refused with a violation
// ("kv workload unsupported at rings=K") rather than falling back to raw
// submits. One fault applier fans each event out over every ring (one
// machine hosts a node's engine in each), and one audit, heal and flight
// recorder close every run. Restarts cannot be judged at rings > 1 yet, so a
// restart event there fails the run with a violation rather than being
// dropped. Observers register, and events are scheduled, in one fixed
// order: the determinism contract the shrinker and the seed corpora rely on.
// run_campaign() sweeps every applicable scenario across N seeds, prints
// each failure's seed and schedule (a failure reproduces from those alone),
// and greedily shrinks the failing schedule to a minimal reproducer.
//
// The `inject_merge_bug` option deliberately reorders node 1's merged
// stream (adjacent-pair swap) before it reaches the MergedOracle — a
// mutation used by the tests to prove the oracles catch ordering bugs and
// the shrinker converges.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "harness/cluster.hpp"
#include "protocol/types.hpp"
#include "simnet/network.hpp"

namespace accelring::check {

/// Membership timeouts tight enough that view changes complete well inside a
/// few-hundred-millisecond run.
[[nodiscard]] protocol::ProtocolConfig fast_proto_config();

/// fast_proto_config() plus gray-failure detection. The campaign default:
/// every scenario — fault-free and loss-only included — doubles as the
/// detector's zero-false-positive regression via the healthy-member
/// quarantine audit. Kept separate from fast_proto_config() so experiments
/// that borrow the fast timeouts (e.g. the adaptive-timeout A/B) vary one
/// variable at a time and keep seed-identical packet sizes.
[[nodiscard]] protocol::ProtocolConfig campaign_proto_config();

/// campaign_proto_config() rescaled for the multi-datacenter campaign
/// topology: a token rotation crosses several 3 ms WAN links, so the static
/// membership timeouts stretch accordingly and the Jacobson/Karels adaptive
/// estimator is switched on (WAN delay is exactly the condition it exists
/// for). Applied automatically by run_schedule for scenarios with
/// Scenario::wan set, together with a longer drain.
[[nodiscard]] protocol::ProtocolConfig wan_proto_config();

struct RunOptions {
  int nodes = 5;
  int rings = 1;  ///< K rings in the RingSet; 1 = single cluster
  Nanos horizon = util::msec(250);     ///< workload + fault window
  Nanos drain = util::msec(300);       ///< heal-all, then quiesce
  Nanos submit_interval = util::msec(2);  ///< per-node submit cadence
  size_t payload_size = 64;
  simnet::FabricParams fabric = simnet::FabricParams::one_gig();
  harness::ImplProfile profile = harness::ImplProfile::kLibrary;
  protocol::ProtocolConfig proto = campaign_proto_config();
  uint32_t merge_batch = 4;                ///< multi-ring only
  Nanos skip_interval = util::usec(300);   ///< multi-ring only
  bool inject_merge_bug = false;           ///< mutation (multi-ring only)
  /// Mutation (migration scenarios only): node 1 flushes one held moving-key
  /// message to the *source* ring after activation — the classic stale-map
  /// handoff bug. The MergedOracle's handoff audit must catch it.
  bool inject_handoff_bug = false;
  /// When non-empty, a failing run (oracle violation or healthy-member
  /// quarantine) writes a flight-recorder artifact —
  /// `<artifact_dir>/<scenario>_<seed>.json` with the violations, each
  /// node's recent trace events, and a metric snapshot — so a CI failure
  /// ships its own black box. Metrics are enabled for the run iff this is
  /// set (recording is perturbation-free, so the verdict cannot change).
  /// shrink() always runs its candidates with dumping off.
  std::string artifact_dir;
};

struct RunResult {
  bool ok = false;
  std::vector<Violation> violations;
  uint64_t delivered = 0;  ///< deliveries the oracles observed
  /// Distinct regular configurations (summed over rings) that excluded a
  /// live node no gray fault degraded, counted only when the schedule held
  /// no churn (partition, crash, restart, rack or whole-cluster power, WAN
  /// down), so no ejection is justified. Not a safety violation — EVS
  /// permits spurious view changes — but the liveness regression adaptive
  /// timeouts exist to prevent.
  uint64_t false_ejections = 0;
  /// Gray-failure quarantine evictions initiated / probations completed
  /// across all engines. A quarantine of a node no fault degraded is a
  /// Violation ("healthy member quarantined"), not just a counter.
  uint64_t quarantines = 0;
  uint64_t readmits = 0;
  /// Client and KV runs: deliveries at the client fleet's application
  /// callbacks, or KV ops the session workload completed. `delivered`
  /// counts only protocol deliveries.
  uint64_t client_delivered = 0;
  std::string report;      ///< violations joined, "" when ok
  /// Flight-recorder artifact written for this run ("" when the run passed,
  /// artifact_dir was empty, or the write failed).
  std::string artifact_path;
};

[[nodiscard]] RunResult run_schedule(const RunOptions& opt,
                                     const Schedule& schedule, uint64_t seed);

/// Greedy shrink: repeatedly drop any single event whose removal keeps the
/// run failing, until no event is removable. Deterministic given the seed.
[[nodiscard]] Schedule shrink(const RunOptions& opt, const Schedule& schedule,
                              uint64_t seed);

struct CampaignOptions {
  RunOptions run;
  int seeds_per_scenario = 20;
  uint64_t seed_base = 1;
  bool shrink_failures = true;
  bool verbose = false;  ///< print per-scenario progress to stderr
  /// Restrict to these scenario names (empty = all applicable to run.rings).
  std::vector<std::string> only;
  /// Extra seeds replayed for every scenario (the tests/seeds corpus).
  std::vector<uint64_t> extra_seeds;
};

struct FailureCase {
  std::string scenario;
  uint64_t seed = 0;
  Schedule schedule;
  Schedule shrunk;  ///< == schedule when shrinking is off
  std::string report;
};

struct CampaignResult {
  int runs = 0;
  int failures = 0;
  uint64_t delivered = 0;            ///< across all runs
  uint64_t client_delivered = 0;     ///< across all runs (see RunResult)
  uint64_t false_ejections = 0;      ///< across all runs (see RunResult)
  uint64_t quarantines = 0;          ///< across all runs (see RunResult)
  uint64_t readmits = 0;             ///< across all runs (see RunResult)
  std::vector<FailureCase> cases;    ///< detail for the first failures
  [[nodiscard]] bool ok() const { return failures == 0; }
};

[[nodiscard]] CampaignResult run_campaign(const CampaignOptions& opt);

}  // namespace accelring::check
