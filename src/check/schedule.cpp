#include "check/schedule.hpp"

#include <sstream>

#include "util/rng.hpp"

namespace accelring::check {
namespace {

using util::Rng;

/// A fault time inside the active window [horizon/10, horizon * 7/10] (so
/// the tail of the horizon still carries faulted traffic before the drain).
Nanos fault_time(Rng& rng, Nanos horizon) {
  const Nanos lo = horizon / 10;
  const Nanos hi = horizon * 7 / 10;
  return rng.range(lo, hi);
}

/// A crash / restart victim. Node 0 is excluded: it creates the pre-agreed
/// static start ring (epoch 1), and a cold restart of creator `i` can
/// legitimately recreate ring id (1, i) — excluding node 0 keeps ring ids
/// unique per run so the oracles' cross-node checks stay strict.
int victim(Rng& rng, int nodes) {
  return static_cast<int>(rng.range(1, nodes - 1));
}

Schedule loss_bursts(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"loss_bursts", {}};
  const int bursts = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLossBurst;
    e.at = fault_time(rng, horizon);
    e.rate = 0.05 + rng.uniform() * 0.35;
    e.duration = util::msec(rng.range(5, 40));
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule token_drops(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"token_drops", {}};
  const int drops = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < drops; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kTokenDrop;
    e.at = fault_time(rng, horizon);
    e.count = static_cast<uint32_t>(rng.range(1, 5));
    s.events.push_back(std::move(e));
  }
  return s;
}

/// Split off a random non-empty strict subset of the nodes.
std::vector<int> random_group(Rng& rng, int nodes) {
  std::vector<int> group;
  const int take = static_cast<int>(rng.range(1, nodes - 1));
  // Reservoir-free pick: walk nodes, take until quota met.
  for (int n = 0; n < nodes && static_cast<int>(group.size()) < take; ++n) {
    const int left = nodes - n;
    const int need = take - static_cast<int>(group.size());
    if (rng.below(static_cast<uint64_t>(left)) <
        static_cast<uint64_t>(need)) {
      group.push_back(n);
    }
  }
  return group;
}

Schedule make_partition(uint64_t seed, int nodes, Nanos horizon,
                        bool delayed_heal) {
  Rng rng(seed);
  Schedule s{delayed_heal ? "partition_delayed_heal" : "partition", {}};
  FaultEvent cut;
  cut.kind = FaultKind::kPartition;
  cut.at = fault_time(rng, horizon);
  cut.group = random_group(rng, nodes);
  FaultEvent heal;
  heal.kind = FaultKind::kHeal;
  heal.at = delayed_heal
                ? horizon - horizon / 10  // heal only just before the drain
                : std::min<Nanos>(cut.at + util::msec(rng.range(30, 80)),
                                  horizon);
  s.events.push_back(std::move(cut));
  s.events.push_back(std::move(heal));
  return s;
}

Schedule partition(uint64_t seed, int nodes, Nanos horizon) {
  return make_partition(seed, nodes, horizon, /*delayed_heal=*/false);
}

Schedule partition_delayed_heal(uint64_t seed, int nodes, Nanos horizon) {
  return make_partition(seed, nodes, horizon, /*delayed_heal=*/true);
}

Schedule crash(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"crash", {}};
  FaultEvent e;
  e.kind = FaultKind::kCrash;
  e.at = fault_time(rng, horizon);
  e.node = victim(rng, nodes);
  s.events.push_back(std::move(e));
  return s;
}

Schedule crash_restart(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"crash_restart", {}};
  FaultEvent down;
  down.kind = FaultKind::kCrash;
  down.at = fault_time(rng, horizon);
  down.node = victim(rng, nodes);
  FaultEvent up;
  up.kind = FaultKind::kRestart;
  up.node = down.node;
  up.at = std::min<Nanos>(down.at + util::msec(rng.range(20, 80)), horizon);
  s.events.push_back(std::move(down));
  s.events.push_back(std::move(up));
  return s;
}

Schedule latency_shift(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"latency_shift", {}};
  const int shifts = static_cast<int>(rng.range(1, 2));
  for (int i = 0; i < shifts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLatencyShift;
    e.at = fault_time(rng, horizon);
    e.extra_latency = util::msec(rng.range(1, 8));
    e.duration = util::msec(rng.range(20, 60));
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule overload(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"overload", {}};
  const int bursts = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kOverload;
    e.at = fault_time(rng, horizon);
    e.node = static_cast<int>(rng.range(0, nodes - 1));
    e.count = static_cast<uint32_t>(rng.range(200, 600));
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule reconnect_storm(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"reconnect_storm", {}};
  // Any node may be the victim, node 0 included: the persisted epoch store
  // guarantees a cold restart never recreates a ring id, so the oracles'
  // strict cross-node checks hold even for the static-start creator.
  const int victims = static_cast<int>(rng.range(1, 2));
  for (int i = 0; i < victims; ++i) {
    FaultEvent down;
    down.kind = FaultKind::kCrash;
    down.at = fault_time(rng, horizon);
    down.node = static_cast<int>(rng.range(0, nodes - 1));
    FaultEvent up;
    up.kind = FaultKind::kRestart;
    up.node = down.node;
    up.at = std::min<Nanos>(down.at + util::msec(rng.range(20, 60)), horizon);
    s.events.push_back(std::move(down));
    s.events.push_back(std::move(up));
  }
  return s;
}

Schedule straggler_cpu(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"straggler_cpu", {}};
  // One member turns gray: every instruction costs 4-12x. The gray-failure
  // detector should quarantine it; the oracles verify nobody healthy is
  // touched and the ring keeps delivering.
  FaultEvent slow;
  slow.kind = FaultKind::kCpuMultiplier;
  slow.at = fault_time(rng, horizon);
  slow.node = victim(rng, nodes);
  slow.rate = 4.0 + rng.uniform() * 8.0;
  s.events.push_back(std::move(slow));
  return s;
}

Schedule lossy_nic(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"lossy_nic", {}};
  // One member's receive path degrades: frames from every sender toward it
  // drop with probability 0.1-0.35 (an ingress NIC fault, invisible to the
  // symmetric loss model). The victim keeps requesting retransmissions every
  // rotation, which is exactly the signature the detector watches.
  FaultEvent loss;
  loss.kind = FaultKind::kLinkLoss;
  loss.at = fault_time(rng, horizon);
  loss.node = victim(rng, nodes);
  loss.peer = -1;  // every sender -> victim
  loss.rate = 0.10 + rng.uniform() * 0.25;
  s.events.push_back(std::move(loss));
  return s;
}

Schedule flapping_link(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"flapping_link", {}};
  // One directed link flaps down/up 3-6 times. Each down period is short
  // enough that token-loss recovery usually rides it out; the campaign
  // verifies ordering safety holds through the churn either way.
  const int node = victim(rng, nodes);
  const int peer = (node + 1 + static_cast<int>(rng.range(
                        0, nodes - 2))) % nodes;
  const int flaps = static_cast<int>(rng.range(3, 6));
  for (int i = 0; i < flaps; ++i) {
    FaultEvent down;
    down.kind = FaultKind::kLinkDown;
    down.at = fault_time(rng, horizon);
    down.node = node;
    down.peer = peer;
    down.duration = util::msec(rng.range(2, 12));
    s.events.push_back(std::move(down));
  }
  return s;
}

Schedule reorder_duplicate(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"reorder_duplicate", {}};
  {
    FaultEvent e;
    e.kind = FaultKind::kReorder;
    e.at = fault_time(rng, horizon);
    e.rate = 0.05 + rng.uniform() * 0.20;
    e.extra_latency = util::usec(rng.range(50, 400));
    e.duration = util::msec(rng.range(20, 60));
    s.events.push_back(std::move(e));
  }
  if (rng.chance(0.7)) {
    FaultEvent e;
    e.kind = FaultKind::kDuplicate;
    e.at = fault_time(rng, horizon);
    e.rate = 0.05 + rng.uniform() * 0.15;
    e.duration = util::msec(rng.range(20, 60));
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule mixed(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"mixed", {}};
  {
    FaultEvent e;
    e.kind = FaultKind::kLossBurst;
    e.at = fault_time(rng, horizon);
    e.rate = 0.05 + rng.uniform() * 0.25;
    e.duration = util::msec(rng.range(5, 25));
    s.events.push_back(std::move(e));
  }
  {
    FaultEvent e;
    e.kind = FaultKind::kTokenDrop;
    e.at = fault_time(rng, horizon);
    e.count = static_cast<uint32_t>(rng.range(1, 3));
    s.events.push_back(std::move(e));
  }
  const int node = victim(rng, nodes);
  {
    FaultEvent e;
    e.kind = FaultKind::kCrash;
    e.at = fault_time(rng, horizon);
    e.node = node;
    s.events.push_back(std::move(e));
  }
  if (rng.chance(0.5)) {
    FaultEvent e;
    e.kind = FaultKind::kRestart;
    e.node = node;
    // Restart may land before the crash; the runner skips it then, which is
    // exactly the droppable-event property shrinking relies on.
    e.at = fault_time(rng, horizon);
    s.events.push_back(std::move(e));
  }
  return s;
}

Schedule kv_state_transfer_crash(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_state_transfer_crash", {}};
  // A member crashes and cold-restarts, forcing a chunked state transfer;
  // node 0 — the lowest veteran, hence the transfer sender — then crashes
  // right after the restart, with good odds of dying mid-transfer. Both
  // victims may restart (the epoch store keeps ring ids unique even for the
  // static-start creator, the reconnect_storm precedent).
  FaultEvent down;
  down.kind = FaultKind::kCrash;
  down.at = fault_time(rng, horizon);
  down.node = victim(rng, nodes);
  FaultEvent up;
  up.kind = FaultKind::kRestart;
  up.node = down.node;
  up.at = std::min<Nanos>(down.at + util::msec(rng.range(20, 60)), horizon);
  FaultEvent sender_down;
  sender_down.kind = FaultKind::kCrash;
  sender_down.node = 0;
  sender_down.at =
      std::min<Nanos>(up.at + util::msec(rng.range(0, 10)), horizon);
  s.events.push_back(std::move(down));
  s.events.push_back(std::move(up));
  s.events.push_back(std::move(sender_down));
  if (rng.chance(0.7)) {
    FaultEvent sender_up;
    sender_up.kind = FaultKind::kRestart;
    sender_up.node = 0;
    sender_up.at = std::min<Nanos>(
        s.events.back().at + util::msec(rng.range(20, 50)), horizon);
    s.events.push_back(std::move(sender_up));
  }
  return s;
}

Schedule kv_lease_holder_crash(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"kv_lease_holder_crash", {}};
  // Node 0 is the designated leaseholder of shard 0 in the initial view:
  // kill it while it serves lease reads. The survivors must revoke on the
  // view change, the successor's lease must wait out the guard, and the
  // oracle's exclusivity check must stay clean throughout.
  FaultEvent down;
  down.kind = FaultKind::kCrash;
  down.at = fault_time(rng, horizon);
  down.node = 0;
  const Nanos down_at = down.at;
  s.events.push_back(std::move(down));
  if (rng.chance(0.5)) {
    FaultEvent up;
    up.kind = FaultKind::kRestart;
    up.node = 0;
    up.at = std::min<Nanos>(down_at + util::msec(rng.range(30, 90)), horizon);
    s.events.push_back(std::move(up));
  }
  return s;
}

// --- WAN / correlated-fault scenarios (campaign_wan_topology) --------------

/// Random loss bursts, but on the 3-DC WAN topology: the retransmission and
/// failure-detection machinery rides them out across real link delay.
Schedule wan_loss_bursts(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"wan_loss_bursts", {}};
  const int bursts = static_cast<int>(rng.range(1, 3));
  for (int i = 0; i < bursts; ++i) {
    FaultEvent e;
    e.kind = FaultKind::kLossBurst;
    e.at = fault_time(rng, horizon);
    e.rate = 0.05 + rng.uniform() * 0.25;
    e.duration = util::msec(rng.range(5, 40));
    s.events.push_back(std::move(e));
  }
  return s;
}

/// Two deliberately *overlapping* latency shifts on the WAN topology. The
/// fabric composes shifts additively on top of the per-link WAN propagation
/// (add_extra_latency); the overlap is the regression surface for the old
/// overwrite bug, where the second onset erased the first and the first
/// expiry erased the second.
Schedule wan_latency_surge(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"wan_latency_surge", {}};
  FaultEvent first;
  first.kind = FaultKind::kLatencyShift;
  first.at = fault_time(rng, horizon);
  first.extra_latency = util::msec(rng.range(1, 5));
  first.duration = util::msec(rng.range(40, 80));
  FaultEvent second;
  second.kind = FaultKind::kLatencyShift;
  second.at = std::min<Nanos>(first.at + first.duration / 2, horizon);
  second.extra_latency = util::msec(rng.range(1, 4));
  second.duration = util::msec(rng.range(30, 60));
  s.events.push_back(std::move(first));
  s.events.push_back(std::move(second));
  return s;
}

/// Pick one (dc, rack) power domain of the campaign topology. Deterministic
/// for a given (seed, nodes): the racks come from the topology (fixed) and
/// the index from the schedule rng.
std::vector<int> pick_rack(Rng& rng, int nodes) {
  const std::vector<std::vector<int>> racks =
      campaign_wan_topology(nodes).racks();
  std::vector<int> rack = racks[rng.below(racks.size())];
  // Never power off the whole cluster: keep at most nodes-2 victims so a
  // majority-ish remainder can keep a ring alive.
  while (static_cast<int>(rack.size()) > nodes - 2) rack.pop_back();
  return rack;
}

/// Rack power loss: every host in one rack crashes at the same instant, and
/// power returns 40-90 ms later (cold restarts through the epoch store).
Schedule rack_power(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"rack_power", {}};
  FaultEvent off;
  off.kind = FaultKind::kRackPower;
  off.at = fault_time(rng, horizon);
  off.group = pick_rack(rng, nodes);
  FaultEvent on;
  on.kind = FaultKind::kRackRestore;
  on.group = off.group;
  on.at = std::min<Nanos>(off.at + util::msec(rng.range(40, 90)), horizon);
  s.events.push_back(std::move(off));
  s.events.push_back(std::move(on));
  return s;
}

/// Switch brownout: one DC's switch degrades every port — elevated loss and
/// forwarding latency for a bounded window, then recovers.
Schedule switch_brownout(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"switch_brownout", {}};
  const int dcs = campaign_wan_topology(nodes).num_dcs;
  FaultEvent e;
  e.kind = FaultKind::kSwitchBrownout;
  e.at = fault_time(rng, horizon);
  e.node = static_cast<int>(rng.below(static_cast<uint64_t>(dcs)));
  e.rate = 0.05 + rng.uniform() * 0.10;
  e.extra_latency = util::msec(rng.range(1, 4));
  e.duration = util::msec(rng.range(30, 80));
  s.events.push_back(std::move(e));
  return s;
}

/// DC flap: one WAN link cycles down/up several times (routing is static, so
/// each down window black-holes that inter-DC path).
Schedule dc_flap(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"dc_flap", {}};
  const simnet::Topology topo = campaign_wan_topology(nodes);
  const simnet::WanLinkParams& link =
      topo.wan_links[rng.below(topo.wan_links.size())];
  const int flaps = static_cast<int>(rng.range(2, 4));
  for (int i = 0; i < flaps; ++i) {
    FaultEvent down;
    down.kind = FaultKind::kWanDown;
    down.at = fault_time(rng, horizon);
    down.node = link.dc_a;
    down.peer = link.dc_b;
    down.duration = util::msec(rng.range(4, 12));
    s.events.push_back(std::move(down));
  }
  return s;
}

/// The full KV stack across datacenters with a rack losing power mid-run:
/// leases, sessions, and state transfer all cross WAN links while a
/// correlated crash group (possibly including the leaseholder) cycles.
Schedule kv_wan_rack_power(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_wan_rack_power", {}};
  FaultEvent off;
  off.kind = FaultKind::kRackPower;
  off.at = fault_time(rng, horizon);
  off.group = pick_rack(rng, nodes);
  FaultEvent on;
  on.kind = FaultKind::kRackRestore;
  on.group = off.group;
  on.at = std::min<Nanos>(off.at + util::msec(rng.range(40, 80)), horizon);
  s.events.push_back(std::move(off));
  s.events.push_back(std::move(on));
  return s;
}

// --- storage-fault scenarios (durable KV runs; see docs/ROBUSTNESS.md) -----

/// Whole-cluster power loss with honest disks: every node crashes at the
/// same instant and power returns 40-90 ms later. The WAL is fsynced before
/// every apply, so the DurabilityOracle demands *exact* recovery — every
/// node comes back at precisely the version it had applied.
Schedule kv_blackout(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"kv_blackout", {}};
  FaultEvent off;
  off.kind = FaultKind::kPowerLossAll;
  off.at = fault_time(rng, horizon);
  FaultEvent on;
  on.kind = FaultKind::kPowerRestoreAll;
  on.at = std::min<Nanos>(off.at + util::msec(rng.range(40, 90)), horizon);
  s.events.push_back(std::move(off));
  s.events.push_back(std::move(on));
  return s;
}

/// Blackout with a lying write cache on a minority: their un-fsynced WAL
/// suffixes die torn (or flush-reordered) at the power loss. The desync
/// windows open strictly before the blackout and no other fault runs in
/// between, so no membership churn (epoch mints) lands on a lying disk.
/// Acked writes durable only on the liars are legitimately lost (the
/// oracle's *excused* count); anything a safe node applied must survive.
Schedule kv_blackout_torn(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_blackout_torn", {}};
  // 1-2 lying disks, never node 0, always a minority.
  const int max_liars = std::max(1, std::min(2, nodes - 2));
  const int want = 1 + static_cast<int>(rng.below(
                           static_cast<uint64_t>(max_liars)));
  std::vector<int> liars;
  while (static_cast<int>(liars.size()) < want) {
    const int v = victim(rng, nodes);
    bool dup = false;
    for (const int l : liars) dup = dup || l == v;
    if (!dup) liars.push_back(v);
  }
  for (const int l : liars) {
    FaultEvent lie;
    lie.kind = FaultKind::kDiskDesync;
    lie.at = rng.range(horizon / 10, horizon * 4 / 10);
    lie.node = l;
    lie.count = 1 + static_cast<uint32_t>(rng.below(2));  // torn / reorder
    s.events.push_back(std::move(lie));
  }
  FaultEvent off;
  off.kind = FaultKind::kPowerLossAll;
  off.at = horizon / 2 + rng.range(0, horizon / 5);
  FaultEvent on;
  on.kind = FaultKind::kPowerRestoreAll;
  on.at = std::min<Nanos>(off.at + util::msec(rng.range(40, 90)), horizon);
  s.events.push_back(std::move(off));
  s.events.push_back(std::move(on));
  return s;
}

/// Durable bit rot: flip a few bits in one node's shard files (WAL or
/// checkpoint — never the epoch file), then crash and cold-restart that
/// node. Recovery must *reject* the corrupt tail (CRCs), fall back to the
/// longest valid prefix, and let peer state transfer close the rest; the
/// rot pairs with a single-node restart, never a blackout, so the truth
/// always survives on the majority.
Schedule kv_disk_bitrot(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_disk_bitrot", {}};
  FaultEvent rot;
  rot.kind = FaultKind::kDiskBitRot;
  rot.at = fault_time(rng, horizon);
  rot.node = victim(rng, nodes);
  rot.count = 1 + static_cast<uint32_t>(rng.below(8));
  FaultEvent down;
  down.kind = FaultKind::kCrash;
  down.node = rot.node;
  down.at = std::min<Nanos>(rot.at + util::msec(rng.range(5, 30)), horizon);
  FaultEvent up;
  up.kind = FaultKind::kRestart;
  up.node = rot.node;
  up.at = std::min<Nanos>(down.at + util::msec(rng.range(20, 60)), horizon);
  s.events.push_back(std::move(rot));
  s.events.push_back(std::move(down));
  s.events.push_back(std::move(up));
  return s;
}

/// Disk stress: one node rides an ENOSPC window and an IO-stall burst, then
/// crashes and (usually) restarts. Failed WAL appends latch the store
/// broken until the next checkpoint heals it, so the victim may recover
/// behind its applied position — the oracle only demands the prefix
/// property there, and peers carry it forward.
Schedule kv_disk_stress(uint64_t seed, int nodes, Nanos horizon) {
  Rng rng(seed);
  Schedule s{"kv_disk_stress", {}};
  const int node = victim(rng, nodes);
  FaultEvent full;
  full.kind = FaultKind::kDiskFull;
  full.at = fault_time(rng, horizon);
  full.node = node;
  full.duration = util::msec(rng.range(10, 40));
  s.events.push_back(std::move(full));
  FaultEvent stall;
  stall.kind = FaultKind::kDiskStall;
  stall.at = fault_time(rng, horizon);
  stall.node = node;
  stall.count = static_cast<uint32_t>(rng.range(5, 30));
  s.events.push_back(std::move(stall));
  FaultEvent down;
  down.kind = FaultKind::kCrash;
  down.node = node;
  down.at = fault_time(rng, horizon);
  s.events.push_back(std::move(down));
  if (rng.chance(0.8)) {
    FaultEvent up;
    up.kind = FaultKind::kRestart;
    up.node = node;
    up.at = std::min<Nanos>(s.events.back().at + util::msec(rng.range(20, 60)),
                            horizon);
    s.events.push_back(std::move(up));
  }
  return s;
}

// --- live-migration scenarios (elastic multiring; see docs/MULTIRING.md) ---
//
// Ring indices in these events are schedule-time placeholders: the campaign
// runner resolves them against the run's ring count K (-1 = last ring,
// others modulo K), so one schedule replays at any K in the sweep. Every
// event is independently droppable: a kMigrate whose plan turns out empty
// (adding an already-active ring, moving a span onto itself) degrades to a
// no-op inside RingSet::start_migration.

/// Scale-out: the last ring starts offline (owning no hash space), then a
/// live migration brings it in mid-run while keyed traffic flows, with a
/// loss burst riding the handoff window.
Schedule ring_add_under_load(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"ring_add_under_load", {}};
  FaultEvent offline;
  offline.kind = FaultKind::kRingOffline;
  offline.at = 0;
  offline.node = -1;  // last ring
  s.events.push_back(std::move(offline));
  FaultEvent add;
  add.kind = FaultKind::kMigrate;
  add.at = fault_time(rng, horizon);
  add.count = 1;   // mode: add ring
  add.peer = -1;   // the offline last ring
  s.events.push_back(std::move(add));
  if (rng.chance(0.6)) {
    FaultEvent loss;
    loss.kind = FaultKind::kLossBurst;
    loss.at = fault_time(rng, horizon);
    loss.rate = 0.05 + rng.uniform() * 0.20;
    loss.duration = util::msec(rng.range(5, 25));
    s.events.push_back(std::move(loss));
  }
  return s;
}

/// Scale-in: one ring is drained out of the ownership map mid-run — every
/// arc it owned migrates away under load, and the emptied ring keeps
/// participating in the merge (skips only).
Schedule ring_remove_under_load(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"ring_remove_under_load", {}};
  FaultEvent rm;
  rm.kind = FaultKind::kMigrate;
  rm.at = fault_time(rng, horizon);
  rm.count = 2;  // mode: remove ring
  rm.node = static_cast<int>(rng.below(8));  // resolved modulo K at run time
  s.events.push_back(std::move(rm));
  if (rng.chance(0.6)) {
    FaultEvent loss;
    loss.kind = FaultKind::kLossBurst;
    loss.at = fault_time(rng, horizon);
    loss.rate = 0.05 + rng.uniform() * 0.20;
    loss.duration = util::msec(rng.range(5, 25));
    s.events.push_back(std::move(loss));
  }
  return s;
}

/// A partition cuts the cluster early, heals, and a span migration starts
/// right behind the heal — the freeze/drain/activate markers order through
/// whatever retransmission and view-repair backlog the heal left behind.
/// With the heal dropped (shrinking), the migration starts *during* the
/// partition and must safely stall rather than hand off.
Schedule migration_during_partition_heal(uint64_t seed, int nodes,
                                         Nanos horizon) {
  Rng rng(seed);
  Schedule s{"migration_during_partition_heal", {}};
  FaultEvent cut;
  cut.kind = FaultKind::kPartition;
  cut.at = rng.range(horizon / 10, horizon * 3 / 10);
  cut.group = random_group(rng, nodes);
  FaultEvent heal;
  heal.kind = FaultKind::kHeal;
  heal.at = std::min<Nanos>(cut.at + util::msec(rng.range(20, 50)), horizon);
  FaultEvent move;
  move.kind = FaultKind::kMigrate;
  move.at = std::min<Nanos>(heal.at + util::msec(rng.range(5, 15)), horizon);
  move.count = 3;  // mode: move fraction
  move.node = static_cast<int>(rng.below(4));
  move.peer = move.node + 1 + static_cast<int>(rng.below(3));
  move.rate = 0.25 + rng.uniform() * 0.35;
  s.events.push_back(std::move(cut));
  s.events.push_back(std::move(heal));
  s.events.push_back(std::move(move));
  return s;
}

/// Zipf-skewed keys concentrate traffic on one hot ring; mid-run a
/// rebalance migrates a slice of the hottest ring's span to the
/// least-loaded ring while the skewed load keeps hammering the moving keys.
Schedule hot_shard_zipf_rebalance(uint64_t seed, int nodes, Nanos horizon) {
  (void)nodes;
  Rng rng(seed);
  Schedule s{"hot_shard_zipf_rebalance", {}};
  const int rounds = static_cast<int>(rng.range(1, 2));
  for (int i = 0; i < rounds; ++i) {
    FaultEvent rb;
    rb.kind = FaultKind::kMigrate;
    rb.at = fault_time(rng, horizon);
    rb.count = 4;  // mode: rebalance hottest -> least-loaded
    rb.rate = 0.30 + rng.uniform() * 0.40;
    s.events.push_back(std::move(rb));
  }
  return s;
}

}  // namespace

simnet::Topology campaign_wan_topology(int nodes) {
  const int dcs = std::min(3, std::max(1, nodes - 1));
  return simnet::make_wan_topology(nodes, dcs, util::msec(3),
                                   /*wan_bps=*/1e9, /*full_mesh=*/true,
                                   /*rack_size=*/2);
}

const char* fault_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kLossBurst:
      return "loss_burst";
    case FaultKind::kTokenDrop:
      return "token_drop";
    case FaultKind::kPartition:
      return "partition";
    case FaultKind::kHeal:
      return "heal";
    case FaultKind::kCrash:
      return "crash";
    case FaultKind::kRestart:
      return "restart";
    case FaultKind::kLatencyShift:
      return "latency_shift";
    case FaultKind::kOverload:
      return "overload";
    case FaultKind::kCpuMultiplier:
      return "cpu_multiplier";
    case FaultKind::kLinkLoss:
      return "link_loss";
    case FaultKind::kLinkDown:
      return "link_down";
    case FaultKind::kReorder:
      return "reorder";
    case FaultKind::kDuplicate:
      return "duplicate";
    case FaultKind::kRackPower:
      return "rack_power";
    case FaultKind::kRackRestore:
      return "rack_restore";
    case FaultKind::kSwitchBrownout:
      return "switch_brownout";
    case FaultKind::kWanDown:
      return "wan_down";
    case FaultKind::kPowerLossAll:
      return "power_loss_all";
    case FaultKind::kPowerRestoreAll:
      return "power_restore_all";
    case FaultKind::kDiskDesync:
      return "disk_desync";
    case FaultKind::kDiskBitRot:
      return "disk_bitrot";
    case FaultKind::kDiskFull:
      return "disk_full";
    case FaultKind::kDiskStall:
      return "disk_stall";
    case FaultKind::kRingOffline:
      return "ring_offline";
    case FaultKind::kMigrate:
      return "migrate";
  }
  return "?";
}

namespace {
const char* migrate_mode_name(uint32_t mode) {
  switch (mode) {
    case 1:
      return "add_ring";
    case 2:
      return "remove_ring";
    case 3:
      return "move_fraction";
    case 4:
      return "rebalance";
    default:
      return "?";
  }
}
}  // namespace

std::string describe(const FaultEvent& event) {
  std::ostringstream os;
  os << "t=" << util::to_msec(event.at) << "ms " << fault_name(event.kind);
  switch (event.kind) {
    case FaultKind::kLossBurst:
      os << " rate=" << event.rate << " for " << util::to_msec(event.duration)
         << "ms";
      break;
    case FaultKind::kTokenDrop:
      os << " count=" << event.count;
      break;
    case FaultKind::kPartition: {
      os << " group={";
      for (size_t i = 0; i < event.group.size(); ++i) {
        if (i) os << ",";
        os << event.group[i];
      }
      os << "}";
      break;
    }
    case FaultKind::kHeal:
      break;
    case FaultKind::kCrash:
    case FaultKind::kRestart:
      os << " node=" << event.node;
      break;
    case FaultKind::kLatencyShift:
      os << " extra=" << util::to_msec(event.extra_latency) << "ms for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kOverload:
      os << " node=" << event.node << " count=" << event.count;
      break;
    case FaultKind::kCpuMultiplier:
      os << " node=" << event.node << " x" << event.rate;
      break;
    case FaultKind::kLinkLoss:
      os << " " << event.peer << "->" << event.node << " rate=" << event.rate;
      break;
    case FaultKind::kLinkDown:
      os << " " << event.peer << "->" << event.node << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kReorder:
      os << " rate=" << event.rate << " jitter="
         << util::to_usec(event.extra_latency) << "us for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kDuplicate:
      os << " rate=" << event.rate << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kRackPower:
    case FaultKind::kRackRestore: {
      os << " hosts={";
      for (size_t i = 0; i < event.group.size(); ++i) {
        if (i) os << ",";
        os << event.group[i];
      }
      os << "}";
      break;
    }
    case FaultKind::kSwitchBrownout:
      os << " dc=" << event.node << " rate=" << event.rate << " extra="
         << util::to_msec(event.extra_latency) << "ms for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kWanDown:
      os << " dc" << event.node << "<->dc" << event.peer << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kPowerLossAll:
    case FaultKind::kPowerRestoreAll:
      break;
    case FaultKind::kDiskDesync:
      os << " node=" << event.node
         << " mode=" << (event.count >= 2 ? "reorder" : "torn");
      break;
    case FaultKind::kDiskBitRot:
      os << " node=" << event.node << " bits=" << event.count;
      break;
    case FaultKind::kDiskFull:
      os << " node=" << event.node << " for "
         << util::to_msec(event.duration) << "ms";
      break;
    case FaultKind::kDiskStall:
      os << " node=" << event.node << " ops=" << event.count;
      break;
    case FaultKind::kRingOffline:
      os << " ring=" << (event.node < 0 ? "last" : std::to_string(event.node));
      break;
    case FaultKind::kMigrate:
      os << " mode=" << migrate_mode_name(event.count);
      if (event.count == 1) {
        os << " ring="
           << (event.peer < 0 ? "last" : std::to_string(event.peer));
      } else if (event.count == 2) {
        os << " ring=" << event.node;
      } else if (event.count == 3) {
        os << " " << event.node << "->" << event.peer
           << " frac=" << event.rate;
      } else if (event.count == 4) {
        os << " frac=" << event.rate;
      }
      break;
  }
  return os.str();
}

std::string describe(const Schedule& schedule) {
  std::ostringstream os;
  os << schedule.scenario << " [";
  for (size_t i = 0; i < schedule.events.size(); ++i) {
    if (i) os << "; ";
    os << describe(schedule.events[i]);
  }
  os << "]";
  return os.str();
}

const std::vector<Scenario>& scenarios() {
  static const std::vector<Scenario> kScenarios = {
      {"loss_bursts", loss_bursts, true},
      {"token_drops", token_drops, true},
      {"partition", partition, false},
      {"partition_delayed_heal", partition_delayed_heal, false},
      {"crash", crash, true},
      {"crash_restart", crash_restart, false},
      {"mixed", mixed, false},
      // Appended after the original seven so the (seed, scenario index)
      // schedule derivation of the regression corpus stays stable.
      {"latency_shift", latency_shift, true},
      {"overload", overload, false, Workload::kClients},
      {"reconnect_storm", reconnect_storm, false, Workload::kClients},
      // Gray-failure scenarios (appended, same stability rule as above).
      // Not multiring-safe: a quarantine eviction legitimately changes ring
      // membership, which the merged-prefix oracle must not excuse.
      {"straggler_cpu", straggler_cpu, false},
      {"lossy_nic", lossy_nic, false},
      {"flapping_link", flapping_link, false},
      {"reorder_duplicate", reorder_duplicate, true},
      // KV-service scenarios (appended, same stability rule): the whole KV
      // stack — state transfer, leases, sessions — under its nastiest
      // faults, judged by the KvOracle on top of the protocol oracles.
      {"kv_state_transfer_crash", kv_state_transfer_crash, false,
       Workload::kKv},
      {"kv_lease_holder_crash", kv_lease_holder_crash, false, Workload::kKv},
      // WAN / correlated-fault scenarios (appended, same stability rule):
      // every one runs on campaign_wan_topology with WAN-scaled timeouts.
      // Loss and latency surges are multiring-safe; rack power (restarts),
      // brownout (legitimate quarantines), and flaps (connectivity loss) are
      // single-ring, and the kv variant drives the full KV stack.
      {"wan_loss_bursts", wan_loss_bursts, true, Workload::kRaw, true},
      {"wan_latency_surge", wan_latency_surge, true, Workload::kRaw, true},
      {"rack_power", rack_power, false, Workload::kRaw, true},
      {"switch_brownout", switch_brownout, false, Workload::kRaw, true},
      {"dc_flap", dc_flap, false, Workload::kRaw, true},
      {"kv_wan_rack_power", kv_wan_rack_power, false, Workload::kKv, true},
      // Storage-fault scenarios (appended, same stability rule): the full
      // KV stack with per-node durable stores, power cut mid-run, judged by
      // the DurabilityOracle on top of the KV and protocol oracles.
      {"kv_blackout", kv_blackout, false, Workload::kDurableKv},
      {"kv_blackout_torn", kv_blackout_torn, false, Workload::kDurableKv},
      {"kv_disk_bitrot", kv_disk_bitrot, false, Workload::kDurableKv},
      {"kv_disk_stress", kv_disk_stress, false, Workload::kDurableKv},
      // Live-migration scenarios (appended, same stability rule): keyed
      // workload through the per-node ShardRouters, totally-ordered
      // freeze/drain/activate handoffs, judged by the MergedOracle's handoff
      // audit. Multi-ring only (the campaign sweep skips them at rings ==
      // 1); multiring_safe=true so the sweep reaches them, including the
      // partition one — the merged-prefix oracle's content-order fallback
      // plus the per-node handoff replay stay sound across a split.
      {"ring_add_under_load", ring_add_under_load, true, Workload::kMigration},
      {"ring_remove_under_load", ring_remove_under_load, true,
       Workload::kMigration},
      {"migration_during_partition_heal", migration_during_partition_heal,
       true, Workload::kMigration},
      {"hot_shard_zipf_rebalance", hot_shard_zipf_rebalance, true,
       Workload::kMigrationZipf},
  };
  return kScenarios;
}

const Scenario* find_scenario(const std::string& name) {
  for (const Scenario& s : scenarios()) {
    if (name == s.name) return &s;
  }
  return nullptr;
}

std::vector<Schedule> shrink_candidates(const Schedule& schedule) {
  std::vector<Schedule> out;
  out.reserve(schedule.events.size());
  for (size_t drop = 0; drop < schedule.events.size(); ++drop) {
    Schedule cand;
    cand.scenario = schedule.scenario;
    for (size_t i = 0; i < schedule.events.size(); ++i) {
      if (i != drop) cand.events.push_back(schedule.events[i]);
    }
    out.push_back(std::move(cand));
  }
  return out;
}

}  // namespace accelring::check
