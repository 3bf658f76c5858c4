// The fast fault-injection campaign: every scenario in the catalogue,
// single-ring and K=4 multi-ring, driven across many seeds with the safety
// oracles attached. Also proves the oracles have teeth: hand-crafted bad
// histories trip each check, and a deliberately injected merge-ordering
// mutation is caught and shrunk to a minimal schedule.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "check/campaign.hpp"
#include "check/oracle.hpp"
#include "check/schedule.hpp"
#include "multiring/migration.hpp"

namespace accelring::check {
namespace {

protocol::Delivery make_delivery(protocol::RingId ring, protocol::SeqNum seq,
                                 protocol::ProcessId sender,
                                 std::byte tag = std::byte{0}) {
  protocol::Delivery d;
  d.ring_id = ring;
  d.seq = seq;
  d.sender = sender;
  d.payload = {tag};
  return d;
}

protocol::ConfigurationChange regular(protocol::RingId ring,
                                      std::vector<protocol::ProcessId> members) {
  protocol::ConfigurationChange c;
  c.config.ring_id = ring;
  c.config.members = std::move(members);
  c.transitional = false;
  return c;
}

protocol::ConfigurationChange transitional(
    protocol::RingId ring, std::vector<protocol::ProcessId> members) {
  protocol::ConfigurationChange c = regular(ring, std::move(members));
  c.transitional = true;
  return c;
}

// ---------------------------------------------------------------------------
// Oracle unit checks on hand-crafted histories: each safety property must
// trip on a history violating exactly it.

TEST(OracleTest, CleanHistoryPasses) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) {
    oracle.on_config(n, regular(100, {0, 1}));
    oracle.on_deliver(n, make_delivery(100, 1, 0));
    oracle.on_deliver(n, make_delivery(100, 2, 1));
    oracle.on_deliver(n, make_delivery(100, 3, 0));
  }
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
  EXPECT_EQ(oracle.observed(), 6u);
}

TEST(OracleTest, GapInAgreedOrderIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 3, 0));  // seq 2 missing
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("gap in agreed order"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, SequenceGoingBackwardsIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 2, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("went backwards"), std::string::npos);
}

TEST(OracleTest, DuplicateDeliveryIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 1, 0));  // same message again
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("duplicate delivery"), std::string::npos);
}

TEST(OracleTest, PackedMessagesMayShareSeq) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{1}));
  oracle.on_deliver(0, make_delivery(100, 1, 0, std::byte{2}));  // packed
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(OracleTest, CrossNodeOrderDisagreementIsCaught) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) oracle.on_config(n, regular(100, {0, 1}));
  oracle.on_deliver(0, make_delivery(100, 1, 0));
  oracle.on_deliver(0, make_delivery(100, 2, 1));
  // Node 1 sees different content at the same positions.
  oracle.on_deliver(1, make_delivery(100, 1, 1));
  oracle.on_deliver(1, make_delivery(100, 2, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("different messages"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, DeliveryOutsideConfigurationIsCaught) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.on_deliver(0, make_delivery(999, 1, 0));  // ring never installed
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("under configuration"), std::string::npos);
}

TEST(OracleTest, TransitionalNotSubsetOfOldRegularIsCaught) {
  ClusterOracle oracle(3);
  oracle.on_config(2, regular(100, {1, 2}));
  // Node 0 was never in ring 100, so it cannot survive out of it.
  oracle.on_config(2, transitional(200, {0, 2}));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("not a subset"), std::string::npos);
}

TEST(OracleTest, TransitionalGroupsMustDeliverSameMessages) {
  ClusterOracle oracle(2);
  for (int n = 0; n < 2; ++n) {
    oracle.on_config(n, regular(100, {0, 1}));
    oracle.on_deliver(n, make_delivery(100, 1, 0));
    oracle.on_config(n, transitional(200, {0, 1}));
  }
  oracle.on_deliver(0, make_delivery(100, 3, 1));  // only node 0 gets seq 3
  oracle.on_config(0, regular(200, {0, 1}));
  oracle.on_config(1, regular(200, {0, 1}));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("transitional configuration"),
            std::string::npos)
      << oracle.report();
}

TEST(OracleTest, RegularMembershipDisagreementIsCaught) {
  ClusterOracle oracle(2);
  oracle.on_config(0, regular(100, {0, 1}));
  oracle.on_config(1, regular(100, {1}));  // same ring id, different members
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("different members"), std::string::npos);
}

TEST(OracleTest, SelfDeliveryIsRequiredUnlessCrashed) {
  ClusterOracle oracle(1);
  oracle.on_config(0, regular(100, {0}));
  oracle.note_submit(0, 7);  // payload never comes back
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("its own"), std::string::npos);

  ClusterOracle waived(1);
  waived.on_config(0, regular(100, {0}));
  waived.note_submit(0, 7);
  waived.note_crash(0);
  waived.finalize();
  EXPECT_TRUE(waived.ok()) << waived.report();
}

TEST(OracleTest, MergedStreamDivergenceIsCaught) {
  MergedOracle oracle(2);
  oracle.on_merged(0, 0, make_delivery(100, 1, 0));
  oracle.on_merged(0, 1, make_delivery(101, 1, 0));
  oracle.on_merged(1, 1, make_delivery(101, 1, 0));  // rings swapped
  oracle.on_merged(1, 0, make_delivery(100, 1, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("diverge"), std::string::npos);
}

TEST(OracleTest, MergedPrefixPasses) {
  MergedOracle oracle(2);
  oracle.on_merged(0, 0, make_delivery(100, 1, 0));
  oracle.on_merged(0, 1, make_delivery(101, 1, 0));
  oracle.on_merged(1, 0, make_delivery(100, 1, 0));  // node 1 lags behind
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

// ---------------------------------------------------------------------------
// MergedOracle handoff audit on hand-crafted streams: the clean three-marker
// handoff passes, and each ownership/continuity property trips on a stream
// violating exactly it.

/// Keyed workload payload the audit KeyFn below understands: all deliveries
/// carry one fixed routing key (150, inside the move range used by
/// audit_marker), so ownership is decided purely by marker position.
protocol::Delivery audit_data(protocol::RingId ring, protocol::SeqNum seq,
                              uint32_t submitter, uint32_t index) {
  protocol::Delivery d;
  d.ring_id = ring;
  d.seq = seq;
  d.sender = static_cast<protocol::ProcessId>(submitter);
  d.payload = {std::byte{0x7E}, std::byte{static_cast<uint8_t>(submitter)},
               std::byte{static_cast<uint8_t>(index)}};
  return d;
}

MergedOracle::KeyFn audit_key_fn() {
  return [](const protocol::Delivery& d)
             -> std::optional<MergedOracle::KeyedPayload> {
    if (d.payload.size() != 3 || d.payload[0] != std::byte{0x7E}) {
      return std::nullopt;
    }
    MergedOracle::KeyedPayload kp;
    kp.key = 150;  // inside audit_marker's move range [100, 200]
    kp.submitter = std::to_integer<uint32_t>(d.payload[1]);
    kp.index = std::to_integer<uint32_t>(d.payload[2]);
    return kp;
  };
}

/// A handoff marker for plan version 1 moving range [100, 200] from ring 0
/// to ring 1 (the freeze carries the move list, like the real protocol).
protocol::Delivery audit_marker(multiring::MarkerKind kind, int ring,
                                protocol::SeqNum seq) {
  multiring::MigrationMarker m;
  m.kind = kind;
  m.version = 1;
  m.ring = ring;
  if (kind == multiring::MarkerKind::kFreeze) {
    m.moves = {multiring::MigrationMove{{100, 200}, 0, 1}};
  }
  protocol::Delivery d;
  d.ring_id = static_cast<protocol::RingId>(100 + ring);
  d.seq = seq;
  d.sender = 0;
  d.payload = multiring::make_marker(m);
  return d;
}

TEST(OracleTest, HandoffAuditCleanHandoffPasses) {
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_data(100, 1, 3, 0));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 3));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 1, audit_data(101, 2, 3, 1));
  oracle.finalize();
  EXPECT_TRUE(oracle.ok()) << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesStaleOwnerDelivery) {
  // The off-by-one handoff bug: the source ring delivers a moving key after
  // the destination activated (a message routed with a stale map epoch).
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 2));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 0, audit_data(100, 3, 3, 0));  // ring 0 no longer owns
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("stale-owner delivery"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesHoldWindowDelivery) {
  // Between the source's drain and the destination's activate *nobody* owns
  // the moving range; a delivery there breaks the exclusive handoff.
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 2));
  oracle.on_merged(0, 0, audit_data(100, 3, 3, 0));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("hold window"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesDuplicatedStamp) {
  // A message flushed to both sides of the handoff: same (key, submitter,
  // index) delivered twice — FIFO continuity broken.
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_data(100, 1, 3, 0));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 3));
  oracle.on_merged(0, 1, audit_marker(multiring::MarkerKind::kActivate, 1, 1));
  oracle.on_merged(0, 1, audit_data(101, 2, 3, 0));  // index 0 again
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("duplicated or reordered"), std::string::npos)
      << oracle.report();
}

TEST(OracleTest, HandoffAuditCatchesDrainBeforeFreeze) {
  MergedOracle oracle(1);
  oracle.enable_handoff_audit(audit_key_fn());
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kDrain, 0, 1));
  oracle.on_merged(0, 0, audit_marker(multiring::MarkerKind::kFreeze, 0, 2));
  oracle.finalize();
  ASSERT_FALSE(oracle.ok());
  EXPECT_NE(oracle.report().find("drain marker before its freeze"),
            std::string::npos)
      << oracle.report();
}

// ---------------------------------------------------------------------------
// Schedule DSL.

TEST(ScheduleTest, GeneratorsAreDeterministic) {
  for (const Scenario& sc : scenarios()) {
    const Schedule a = sc.make(42, 5, util::msec(250));
    const Schedule b = sc.make(42, 5, util::msec(250));
    ASSERT_EQ(a.events.size(), b.events.size()) << sc.name;
    EXPECT_EQ(describe(a), describe(b)) << sc.name;
    EXPECT_FALSE(a.events.empty()) << sc.name;
    for (const FaultEvent& e : a.events) {
      EXPECT_GE(e.at, 0) << sc.name;
      EXPECT_LE(e.at, util::msec(250)) << sc.name;
    }
  }
}

TEST(ScheduleTest, ShrinkCandidatesDropOneEventEach) {
  const Schedule s = find_scenario("mixed")->make(7, 5, util::msec(250));
  const auto cands = shrink_candidates(s);
  ASSERT_EQ(cands.size(), s.events.size());
  for (const Schedule& c : cands) {
    EXPECT_EQ(c.events.size(), s.events.size() - 1);
  }
}

// ---------------------------------------------------------------------------
// The fast campaign itself: all scenarios, 20 seeds each, single-ring and
// K=4 multi-ring, zero violations expected.

RunOptions fast_run_options() {
  RunOptions run;
  run.nodes = 5;
  run.horizon = util::msec(250);
  run.drain = util::msec(300);
  return run;
}

TEST(CampaignTest, SingleRingAllScenariosClean) {
  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.seeds_per_scenario = 20;
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  // Migration scenarios need K > 1 rings and are skipped single-ring.
  int single_ring_scenarios = 0;
  for (const Scenario& sc : scenarios()) {
    if (!sc.migration()) ++single_ring_scenarios;
  }
  EXPECT_EQ(result.runs, single_ring_scenarios * opt.seeds_per_scenario);
  EXPECT_GT(result.delivered, 0u);
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
}

TEST(CampaignTest, MultiRingScenariosClean) {
  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.run.rings = 4;
  opt.seeds_per_scenario = 20;
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  int multiring_scenarios = 0;
  for (const Scenario& sc : scenarios()) {
    if (sc.multiring_safe) ++multiring_scenarios;
  }
  EXPECT_EQ(result.runs, multiring_scenarios * opt.seeds_per_scenario);
  EXPECT_GT(result.delivered, 0u);
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
}

// Every seed in tests/seeds/regression.seeds once exposed a real bug; replay
// the whole corpus against every scenario (no sweep seeds on top).
TEST(CampaignTest, RegressionSeedCorpusClean) {
#ifndef ACCELRING_SEED_CORPUS
  GTEST_SKIP() << "corpus path not configured";
#else
  std::vector<uint64_t> corpus;
  std::ifstream in(ACCELRING_SEED_CORPUS);
  ASSERT_TRUE(in.is_open()) << ACCELRING_SEED_CORPUS;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    corpus.push_back(std::strtoull(line.c_str() + start, nullptr, 0));
  }
  ASSERT_FALSE(corpus.empty());

  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.seeds_per_scenario = 0;
  opt.extra_seeds = corpus;
  for (int rings : {1, 4}) {
    opt.run.rings = rings;
    const CampaignResult result = run_campaign(opt);
    EXPECT_EQ(result.failures, 0) << "rings=" << rings;
    for (const FailureCase& fc : result.cases) {
      ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << " rings=" << rings
                    << "\n" << describe(fc.schedule) << "\n" << fc.report;
    }
  }
#endif
}

// The WAN corpus replays only the multi-datacenter scenarios (they carry
// their own seeds file: a WAN seed stresses token rotation over 3 ms links
// and correlated rack/switch/link faults, which the LAN scenarios never
// exercise). Kept separate from regression.seeds so LAN replay time does not
// grow with WAN hardening work.
TEST(CampaignTest, WanSeedCorpusClean) {
#ifndef ACCELRING_WAN_SEED_CORPUS
  GTEST_SKIP() << "wan corpus path not configured";
#else
  std::vector<uint64_t> corpus;
  std::ifstream in(ACCELRING_WAN_SEED_CORPUS);
  ASSERT_TRUE(in.is_open()) << ACCELRING_WAN_SEED_CORPUS;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    corpus.push_back(std::strtoull(line.c_str() + start, nullptr, 0));
  }
  ASSERT_FALSE(corpus.empty());

  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.seeds_per_scenario = 0;
  opt.extra_seeds = corpus;
  for (const Scenario& sc : scenarios()) {
    if (sc.wan) opt.only.push_back(sc.name);
  }
  ASSERT_GE(opt.only.size(), 5u);  // the WAN catalogue
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.runs, static_cast<int>(opt.only.size() * corpus.size()));
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
#endif
}

// The storage corpus replays only the durable-KV scenarios (whole-cluster
// power loss, torn-write/lost-suffix injection, bit rot, ENOSPC/stall):
// each seed drives per-node SimDisk fault schedules plus the
// DurabilityOracle, which the LAN and WAN corpora never exercise. Kept
// separate so durable replay time does not grow the other suites.
TEST(CampaignTest, StorageSeedCorpusClean) {
#ifndef ACCELRING_STORAGE_SEED_CORPUS
  GTEST_SKIP() << "storage corpus path not configured";
#else
  std::vector<uint64_t> corpus;
  std::ifstream in(ACCELRING_STORAGE_SEED_CORPUS);
  ASSERT_TRUE(in.is_open()) << ACCELRING_STORAGE_SEED_CORPUS;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    corpus.push_back(std::strtoull(line.c_str() + start, nullptr, 0));
  }
  ASSERT_FALSE(corpus.empty());

  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.seeds_per_scenario = 0;
  opt.extra_seeds = corpus;
  for (const Scenario& sc : scenarios()) {
    if (sc.workload == Workload::kDurableKv) opt.only.push_back(sc.name);
  }
  ASSERT_GE(opt.only.size(), 4u);  // the durable catalogue
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.runs, static_cast<int>(opt.only.size() * corpus.size()));
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
#endif
}

// The migration corpus replays only the live-migration scenarios (ring
// add/remove under load, migration across a partition heal, hot-shard
// rebalance): each seed drives a totally ordered handoff with the
// MergedOracle's handoff audit and the held-message liveness check attached,
// which no other corpus exercises. K = 4 rings (migration needs K > 1).
TEST(CampaignTest, MigrationSeedCorpusClean) {
#ifndef ACCELRING_MIGRATION_SEED_CORPUS
  GTEST_SKIP() << "migration corpus path not configured";
#else
  std::vector<uint64_t> corpus;
  std::ifstream in(ACCELRING_MIGRATION_SEED_CORPUS);
  ASSERT_TRUE(in.is_open()) << ACCELRING_MIGRATION_SEED_CORPUS;
  std::string line;
  while (std::getline(in, line)) {
    const size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const size_t start = line.find_first_not_of(" \t");
    if (start == std::string::npos) continue;
    corpus.push_back(std::strtoull(line.c_str() + start, nullptr, 0));
  }
  ASSERT_FALSE(corpus.empty());

  CampaignOptions opt;
  opt.run = fast_run_options();
  opt.run.rings = 4;
  opt.seeds_per_scenario = 0;
  opt.extra_seeds = corpus;
  for (const Scenario& sc : scenarios()) {
    if (sc.migration()) opt.only.push_back(sc.name);
  }
  ASSERT_EQ(opt.only.size(), 4u);  // the migration catalogue
  const CampaignResult result = run_campaign(opt);
  EXPECT_EQ(result.failures, 0);
  EXPECT_EQ(result.runs, static_cast<int>(opt.only.size() * corpus.size()));
  for (const FailureCase& fc : result.cases) {
    ADD_FAILURE() << fc.scenario << " seed=" << fc.seed << "\n"
                  << describe(fc.schedule) << "\n"
                  << fc.report;
  }
#endif
}

// The shrinker replays a failing schedule hundreds of times and trusts every
// replay to reproduce the verdict: the same (schedule, seed) must give the
// same run on every runner path — raw submits (with and without a gray
// fault), client fleet, KV, durable KV, WAN, and live migration at K = 4.
TEST(CampaignTest, RunsAreDeterministicOnEveryRunnerPath) {
  const struct {
    const char* scenario;
    int rings;
  } kPaths[] = {
      {"mixed", 1},                  // raw submits, crash + restart
      {"straggler_cpu", 1},          // raw submits, gray fault
      {"overload", 1},               // client fleet
      {"kv_lease_holder_crash", 1},  // KV service
      {"kv_blackout_torn", 1},       // durable KV, storage faults
      {"rack_power", 1},             // WAN topology, correlated crash
      {"ring_add_under_load", 4},    // live migration
  };
  for (const auto& path : kPaths) {
    RunOptions run = fast_run_options();
    run.rings = path.rings;
    const uint64_t seed = 5;
    const Schedule schedule =
        find_scenario(path.scenario)->make(seed, run.nodes, run.horizon);
    const RunResult a = run_schedule(run, schedule, seed);
    const RunResult b = run_schedule(run, schedule, seed);
    SCOPED_TRACE(path.scenario);
    EXPECT_GT(a.delivered, 0u);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.quarantines, b.quarantines);
    EXPECT_EQ(a.readmits, b.readmits);
    EXPECT_EQ(a.false_ejections, b.false_ejections);
    EXPECT_EQ(a.client_delivered, b.client_delivered);
    EXPECT_EQ(a.report, b.report);
  }
}

// Restarts cannot be judged at K > 1 yet (the MergedOracle has no catch-up
// rule for a restarted node's gap). The fault applier must refuse them with
// a violation instead of silently dropping them. The catalogue never gets
// here: its restart scenarios are not multiring_safe.
TEST(CampaignTest, RestartAtMultiRingFailsLoudly) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  for (const FaultKind kind : {FaultKind::kRestart, FaultKind::kRackRestore,
                               FaultKind::kPowerRestoreAll}) {
    FaultEvent down;
    down.kind = FaultKind::kCrash;
    down.at = util::msec(60);
    down.node = 2;
    FaultEvent up;
    up.kind = kind;
    up.at = util::msec(120);
    up.node = 2;
    up.group = {2};
    const Schedule schedule{"hand_written", {down, up}};
    const RunResult res = run_schedule(run, schedule, 3);
    EXPECT_FALSE(res.ok) << fault_name(kind);
    const std::string want =
        std::string(fault_name(kind)) + " unsupported at rings=4";
    EXPECT_NE(res.report.find(want), std::string::npos) << res.report;
  }
}

// The client fleet and the KV stack run on one ring only. At K > 1 the
// runner must refuse their scenarios instead of quietly running raw submits
// (where kOverload would do nothing). The catalogue never gets here: these
// scenarios are not multiring_safe.
TEST(CampaignTest, ClientAndKvWorkloadsAtMultiRingFailLoudly) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  const struct {
    const char* scenario;
    const char* want;
  } kCases[] = {
      {"overload", "client workload unsupported at rings=4"},
      {"kv_lease_holder_crash", "kv workload unsupported at rings=4"},
  };
  for (const auto& c : kCases) {
    const uint64_t seed = 2;
    const Schedule schedule =
        find_scenario(c.scenario)->make(seed, run.nodes, run.horizon);
    const RunResult res = run_schedule(run, schedule, seed);
    EXPECT_FALSE(res.ok) << c.scenario;
    EXPECT_NE(res.report.find(c.want), std::string::npos) << res.report;
  }
}

// ---------------------------------------------------------------------------
// Mutation: an injected merge-ordering bug must be caught by the oracles and
// shrunk to a minimal (<= 5 event) reproducer.

TEST(CampaignTest, InjectedMergeBugIsCaughtAndShrunk) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  run.inject_merge_bug = true;

  const Schedule schedule =
      find_scenario("loss_bursts")->make(11, run.nodes, run.horizon);
  const RunResult bad = run_schedule(run, schedule, 11);
  ASSERT_FALSE(bad.ok) << "mutation not caught by the oracles";
  EXPECT_NE(bad.report.find("diverge"), std::string::npos) << bad.report;

  const Schedule minimal = shrink(run, schedule, 11);
  EXPECT_LE(minimal.events.size(), 5u);
  // The bug is in the merge path, not the schedule: greedy removal should
  // strip every fault event.
  EXPECT_EQ(minimal.events.size(), 0u) << describe(minimal);
  const RunResult still_bad = run_schedule(run, minimal, 11);
  EXPECT_FALSE(still_bad.ok);

  // Same seed and schedule without the mutation: clean.
  run.inject_merge_bug = false;
  const RunResult good = run_schedule(run, schedule, 11);
  EXPECT_TRUE(good.ok) << good.report;
}

// The handoff mutation: node 1 flushes one held moving-key message to the
// *source* ring after the destination activated — the classic stale-map-epoch
// off-by-one in a live migration. The MergedOracle handoff audit must catch
// it, and greedy shrink must converge to a minimal schedule that still
// migrates (drop the migrate event and nothing is ever held, so the mutated
// run is clean).
TEST(CampaignTest, InjectedHandoffBugIsCaughtAndShrunk) {
  RunOptions run = fast_run_options();
  run.rings = 4;
  run.inject_handoff_bug = true;

  const uint64_t seed = 3;
  const Schedule schedule =
      find_scenario("ring_add_under_load")->make(seed, run.nodes, run.horizon);
  const RunResult bad = run_schedule(run, schedule, seed);
  ASSERT_FALSE(bad.ok) << "handoff mutation not caught by the oracles";
  EXPECT_NE(bad.report.find("stale-owner delivery"), std::string::npos)
      << bad.report;

  const Schedule minimal = shrink(run, schedule, seed);
  // The reproducer must keep the events the bug needs — the idle ring and
  // the migration onto it — and shed any incidental loss bursts.
  EXPECT_LE(minimal.events.size(), 2u) << describe(minimal);
  bool has_migrate = false;
  for (const FaultEvent& e : minimal.events) {
    has_migrate = has_migrate || e.kind == FaultKind::kMigrate;
  }
  EXPECT_TRUE(has_migrate) << describe(minimal);
  const RunResult still_bad = run_schedule(run, minimal, seed);
  EXPECT_FALSE(still_bad.ok);

  // Same seed and schedule without the mutation: clean.
  run.inject_handoff_bug = false;
  const RunResult good = run_schedule(run, schedule, seed);
  EXPECT_TRUE(good.ok) << good.report;
}

}  // namespace
}  // namespace accelring::check
