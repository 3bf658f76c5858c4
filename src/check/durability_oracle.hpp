// Durability oracle: proves that what a cluster recovers from disk is a
// committed prefix of what it acknowledged before the power went out.
//
// The contract it checks, per shard:
//
//  * Prefix, not invention — every node's recovered version is at or below
//    the version it had applied when it crashed (recovery never resurrects
//    state the lineage did not produce), and the cluster-wide recovery
//    basis B (the highest recovered version across up nodes) never exceeds
//    the highest version any node had applied.
//  * Safe-node equality — a node whose disk was honest (no lying write
//    cache, no injected IO faults, no bit rot) recovers *exactly* the
//    version it had applied: the WAL is fsynced before every apply, so an
//    honest disk loses nothing.
//  * Acked-write durability — any version that was applied by at least one
//    safe-disk node must be covered by B after a whole-cluster power loss.
//    Versions acked only through unsafe-disk nodes may legitimately be
//    lost; the oracle counts those as *excused* rather than failing
//    (that is precisely the torn-write / lying-cache failure mode the
//    campaign injects on a minority).
//  * Lineage integrity — across all replica incarnations of a durable run
//    the boundary-CRC divergence audit must stay zero: recovering from
//    disk must never revive a diverged lineage (finalize()).
//
// The oracle is fed the same applied/outcome streams as the KvOracle (the
// campaign fans one set of service observers out to both), plus explicit
// notes from the fault injector: which disks were made unsafe, when nodes
// crashed/restarted, and when a whole-cluster recovery completed. After a
// cluster recovery it tells the KvOracle where the surviving history ends
// via note_lineage_rollback().
//
// Like every oracle here it never throws; violations accumulate and the
// campaign attaches seed + schedule.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "check/kv_oracle.hpp"
#include "check/oracle.hpp"
#include "kv/service.hpp"

namespace accelring::check {

class DurabilityOracle {
 public:
  DurabilityOracle() = default;

  /// Size the oracle for `service` and remember it (machine versions are
  /// read from it at crash/restart/recovery time). Does not claim any
  /// observer slot — feed on_applied/on_outcome directly.
  void bind(kv::KvService& service);

  // Event feeds (same streams the KvOracle sees).
  void on_applied(int node, int shard, const kv::AppliedOp& applied,
                  Nanos at);
  void on_outcome(int node, const kv::Frontend::Outcome& outcome);

  /// `node`'s disk is no longer trusted (lying write cache, injected IO
  /// errors, bit rot): its applies stop raising the safe-acked floor and
  /// its recovery is only checked for the prefix property, not equality.
  /// Sticky until the node's next note_restart (a fresh incarnation
  /// recovered whatever was durable; the fault window is over).
  void note_disk_unsafe(int node, const std::string& why);

  /// `node` is about to crash (call before SimCluster::crash_node resolves
  /// its un-fsynced disk state): captures the per-shard applied versions
  /// the recovery will be judged against.
  void note_crash(int node);

  /// `node` just came back (call after the service's on_restart, before the
  /// simulation resumes): checks its disk-recovered versions against the
  /// crash snapshot, then clears the node's unsafe mark.
  void note_restart(int node);

  /// A whole-cluster power loss has been fully restored (every node
  /// restarted): computes the recovery basis B per shard, checks
  /// acked-write durability, counts excused losses, and rolls the KvOracle
  /// (when given) back to the surviving history.
  void note_cluster_recovery(KvOracle* kv);

  /// End of run: lineage-integrity check (total divergence must be zero).
  void finalize();

  [[nodiscard]] bool ok() const { return violations_.empty(); }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::string report() const;
  /// Recovery checks performed (restarts + cluster recoveries), for test
  /// sanity: a durable scenario that never exercised recovery proves
  /// nothing.
  [[nodiscard]] uint64_t checks() const { return checks_; }
  /// Acked versions that were lost but excused (acked only via unsafe
  /// disks).
  [[nodiscard]] uint64_t excused_losses() const { return excused_; }

 private:
  void fail(std::string what);

  kv::KvService* service_ = nullptr;
  int nodes_ = 0;
  int shards_ = 0;
  /// Per shard: highest version applied at any node whose disk was safe at
  /// the time — the floor a cluster-wide recovery must reach.
  std::vector<uint64_t> safe_floor_;
  /// Per shard: highest version any node applied — the ceiling no recovery
  /// may exceed.
  std::vector<uint64_t> max_applied_;
  /// Per shard: highest successfully acked mutation version (for the
  /// excused-loss count).
  std::vector<uint64_t> acked_floor_;
  /// Per node: disk currently unsafe (see note_disk_unsafe).
  std::vector<bool> unsafe_;
  /// Per (node, shard): applied version at the node's last crash
  /// (-1 = node not currently crashed).
  std::vector<std::vector<int64_t>> at_crash_;
  /// Whether the node was unsafe when it crashed (the flag that matters for
  /// the equality check at restart).
  std::vector<bool> unsafe_at_crash_;

  std::vector<Violation> violations_;
  uint64_t suppressed_ = 0;
  uint64_t checks_ = 0;
  uint64_t excused_ = 0;
};

}  // namespace accelring::check
