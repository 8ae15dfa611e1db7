// Tests for the chaos campaign engine (src/chaos): seed-deterministic
// schedule generation, normalization, storm correlation, description
// round-trips, the fault-space property tests (trunk outage reroutes over
// a bridge vs partitions an unbridged fabric; node crashes during
// in-flight reliable transfers leave exactly-once intact), the fuzz loop
// on the seeded transport defect, shrinker idempotence, artifact replay
// and the committed example profiles.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/runner.hpp"
#include "chaos/fuzz.hpp"
#include "chaos/generate.hpp"
#include "chaos/profile.hpp"
#include "chaos/schedule.hpp"
#include "chaos/shrink.hpp"
#include "chaos/trial.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "hw/machine.hpp"
#include "mc/scenarios.hpp"

namespace {

using namespace cbsim;

std::string dumped(const chaos::Schedule& s) {
  return desc::dump(chaos::toDesc(s));
}

chaos::Schedule reparsed(const chaos::Schedule& s) {
  const desc::Value v = desc::parse(dumped(s), "inline");
  desc::Reader r(v, "schedule");
  return chaos::scheduleFromDesc(r);
}

/// Every fault class has eligible targets on this machine: two switches
/// joined by one trunk, Cluster nodes on both sides (the message-race
/// ranks land on Cluster nodes, so traffic crosses the trunk), the
/// deep-er NAMs, and optionally a gen-1 style dual-homed bridge node.
hw::MachineConfig twoSwitchWorld(bool bridged) {
  hw::MachineConfig cfg = hw::MachineConfig::deepEr(2, 0);
  cfg.switches.push_back({"cluster-extoll-b", cfg.switches[0].net});
  cfg.trunks.push_back({0, 1, 12.5, sim::SimTime::ns(150)});
  hw::NodeGroupSpec far = cfg.groups[0];
  far.namePrefix = "dn";
  far.switchId = 1;
  cfg.groups.push_back(far);
  if (bridged) {
    hw::NodeGroupSpec br;
    br.kind = hw::NodeKind::Bridge;
    br.count = 1;
    br.namePrefix = "bi";
    br.cpu = hw::MachineConfig::xeonHaswell();
    br.switchId = 0;
    br.mpiSwOverhead = sim::SimTime::ns(400);
    cfg.groups.push_back(br);
  }
  return cfg;
}

chaos::ChaosProfile richProfile() {
  chaos::ChaosProfile p;
  p.horizonSec = 0.05;
  p.endpointRateHz = 200;
  p.trunkRateHz = 120;
  p.switchRateHz = 80;
  p.namRateHz = 80;
  p.crashRateHz = 60;
  p.stormRateHz = 60;
  p.windowMinSec = 0.0005;
  p.windowMaxSec = 0.004;
  p.stormSpanSec = 0.002;
  p.dropProbMax = 0.05;
  p.corruptProbMax = 0.02;
  return p;
}

mc::McScenario raceScenario() {
  mc::McScenario s;
  s.name = "chaos-prop";
  s.family = "message-race";
  s.senders = 3;
  s.messages = 2;
  s.recvWorkUs = 5;
  s.drainSec = 1.0;
  return s;
}

// ---- Generator -----------------------------------------------------------------------

TEST(Generate, SameSeedSameSchedule) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  const chaos::Schedule a = chaos::generateSchedule(p, m, 12345);
  const chaos::Schedule b = chaos::generateSchedule(p, m, 12345);
  EXPECT_EQ(dumped(a), dumped(b));
  EXPECT_FALSE(a.empty());
}

TEST(Generate, DifferentSeedsDifferentSchedules) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  const chaos::Schedule a = chaos::generateSchedule(p, m, 1);
  const chaos::Schedule b = chaos::generateSchedule(p, m, 2);
  EXPECT_NE(dumped(a), dumped(b));
}

TEST(Generate, SchedulesCompileToValidPlansAcrossSeeds) {
  // The generator's normalization promise: every sampled schedule — storms,
  // overlaps and all — compiles to a FaultPlan that validateFor accepts.
  const hw::MachineConfig m = twoSwitchWorld(true);
  const chaos::ChaosProfile p = richProfile();
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    const chaos::Schedule s = chaos::generateSchedule(p, m, seed);
    EXPECT_EQ(s.toPlan().validateFor(m), "") << "seed " << seed;
  }
}

TEST(Generate, StormsShareIdsAndCrashVictimsAreDistinct) {
  const hw::MachineConfig m = twoSwitchWorld(true);
  chaos::ChaosProfile p;
  p.horizonSec = 0.05;
  p.stormRateHz = 400;
  p.windowMinSec = 0.0005;
  p.windowMaxSec = 0.004;
  p.stormSpanSec = 0.002;
  bool sawBurst = false;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    const chaos::Schedule s = chaos::generateSchedule(p, m, seed);
    std::map<int, int> members;
    std::map<int, std::set<int>> crashVictims;
    for (const chaos::FaultEvent& e : s.events) {
      EXPECT_GE(e.storm, 0);  // storm-only profile: nothing arrives alone
      ++members[e.storm];
      if (e.kind == chaos::FaultKind::NodeCrash) {
        // Sampling without replacement: one burst never crashes the same
        // node twice.
        EXPECT_TRUE(crashVictims[e.storm].insert(e.target).second)
            << "seed " << seed << " storm " << e.storm;
      }
    }
    for (const auto& [id, n] : members) sawBurst = sawBurst || n >= 2;
  }
  EXPECT_TRUE(sawBurst);
}

TEST(Generate, RejectsFilterTargetsOffTheMachine) {
  chaos::ChaosProfile p = richProfile();
  p.trunkTargets = {7};  // the two-switch world has exactly one trunk
  EXPECT_THROW(chaos::generateSchedule(p, twoSwitchWorld(true), 1),
               std::invalid_argument);
}

TEST(Profile, ValidateNamesBadFields) {
  chaos::ChaosProfile p = richProfile();
  p.windowMinSec = 0.01;
  p.windowMaxSec = 0.002;
  EXPECT_NE(p.validate(), "");
  EXPECT_EQ(richProfile().validate(), "");
}

// ---- Normalization -------------------------------------------------------------------

TEST(Schedule, NormalizeDropsWindowsBuriedInOutages) {
  chaos::Schedule s;
  s.events.push_back({chaos::FaultKind::TrunkWindow, 0, 0.01, 0.03, 0.0});
  s.events.push_back({chaos::FaultKind::TrunkWindow, 0, 0.015, 0.02, 0.5});
  chaos::normalize(s);
  ASSERT_EQ(s.events.size(), 1u);
  EXPECT_EQ(s.events[0].factor, 0.0);
  EXPECT_EQ(s.toPlan().validateFor(twoSwitchWorld(true)), "");
}

TEST(Schedule, NormalizeSortsDeterministically) {
  chaos::Schedule s;
  s.events.push_back({chaos::FaultKind::SwitchWindow, 1, 0.02, 0.03, 0.0});
  s.events.push_back({chaos::FaultKind::EndpointWindow, 2, 0.01, 0.02, 0.5});
  s.events.push_back({chaos::FaultKind::EndpointWindow, 0, 0.01, 0.02, 0.5});
  chaos::Schedule t = s;
  chaos::normalize(s);
  chaos::normalize(t);
  EXPECT_EQ(dumped(s), dumped(t));
  EXPECT_EQ(s.events[0].fromSec, 0.01);
  EXPECT_EQ(s.events[0].target, 0);
  EXPECT_EQ(s.events[2].kind, chaos::FaultKind::SwitchWindow);
}

// ---- Description round-trips ---------------------------------------------------------

TEST(Desc, ScheduleRoundTripsThroughDesc) {
  const chaos::Schedule s =
      chaos::generateSchedule(richProfile(), twoSwitchWorld(true), 99);
  EXPECT_EQ(dumped(reparsed(s)), dumped(s));
}

TEST(Desc, SpecDumpIsCanonical) {
  const chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  const std::string text = chaos::dumpSpec(spec);
  EXPECT_EQ(chaos::dumpSpec(chaos::chaosSpecFromDescText(text, "inline")),
            text);
}

TEST(Desc, BreakDedupIsNeverSerialized) {
  chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  spec.scenario.breakDedup = true;
  const chaos::ChaosSpec back =
      chaos::chaosSpecFromDescText(chaos::dumpSpec(spec), "inline");
  EXPECT_FALSE(back.scenario.breakDedup);
}

TEST(Desc, ExampleProfilesParseValidateAndGenerate) {
  for (const char* file : {"transport-storm.json", "recovery-loop.json"}) {
    const std::string path =
        std::string(CBSIM_CHAOS_EXAMPLES_DIR) + "/" + file;
    const chaos::ChaosSpec spec =
        chaos::chaosSpecFromDescText(desc::readFile(path), path);
    EXPECT_EQ(spec.profile.validate(), "") << file;
    EXPECT_NO_THROW((void)mc::makeRun(spec.scenario)) << file;
    const hw::MachineConfig m = mc::scenarioWorld(spec.scenario);
    const chaos::Schedule s =
        chaos::generateSchedule(spec.profile, m, chaos::trialSeed(spec, 0));
    EXPECT_EQ(s.toPlan().validateFor(m), "") << file;
    // Canonical-dump round trip, same contract as the builtin campaigns.
    const std::string text = chaos::dumpSpec(spec);
    EXPECT_EQ(chaos::dumpSpec(chaos::chaosSpecFromDescText(text, path)),
              text)
        << file;
    // tests/desc/dumps/chaos-<file> pins what `cbsim chaos --dump` prints.
    EXPECT_EQ(desc::readFile(std::string(CBSIM_DESC_DUMPS_DIR) + "/chaos-" +
                             file),
              text)
        << "stale committed dump; regenerate with: cbsim chaos "
           "--scenario-file examples/chaos/"
        << file << " --dump";
  }
}

// ---- Fault-space properties ----------------------------------------------------------

TEST(ChaosProperty, TrunkOutageDetoursOverBridgeInvariantsHold) {
  // A dead trunk on a bridged fabric is a detour, not a partition: the
  // reliable transport's invariants must hold end to end.
  mc::McScenario s = raceScenario();
  s.machine = twoSwitchWorld(true);
  chaos::Schedule outage;
  outage.events.push_back(
      {chaos::FaultKind::TrunkWindow, 0, 0.0, 1e3, 0.0});
  EXPECT_EQ(chaos::runTrial(s, outage), "");
}

TEST(ChaosProperty, TrunkOutagePartitionsUnbridgedFabric) {
  // The same outage without a bridge strands the cross-switch senders.
  // Once the retransmit budget runs out (~150ms of capped backoff) the
  // transport declares the peer unreachable and tears the job down, which
  // the harness counts as a clean end — so the partition is observed
  // through the drain bound: tighten it below the teardown horizon and
  // the stalled ranks must surface as a drain-bound violation.
  mc::McScenario s = raceScenario();
  s.drainSec = 0.05;
  s.machine = twoSwitchWorld(false);
  chaos::Schedule outage;
  outage.events.push_back(
      {chaos::FaultKind::TrunkWindow, 0, 0.0, 1e3, 0.0});
  const std::string v = chaos::runTrial(s, outage);
  EXPECT_NE(v, "");
  EXPECT_NE(v.find("violation"), std::string::npos) << v;
}

TEST(ChaosProperty, TrunkFlapWithinDrainRecoversByRetransmit) {
  // A *transient* outage on the unbridged fabric is recoverable: the
  // retransmit path redelivers once the trunk is back, and exactly-once /
  // in-order still hold at drain.
  mc::McScenario s = raceScenario();
  s.machine = twoSwitchWorld(false);
  chaos::Schedule flap;
  flap.events.push_back(
      {chaos::FaultKind::TrunkWindow, 0, 0.0, 0.005, 0.0});
  EXPECT_EQ(chaos::runTrial(s, flap), "");
}

TEST(ChaosProperty, NodeCrashDuringTransferKeepsExactlyOnce) {
  // Crash a sender node while its messages are in flight.  The killed job
  // ends the trial cleanly; the invariants are conditional on delivery —
  // whatever did arrive must still be exactly-once and in order.
  mc::McScenario s = raceScenario();
  chaos::Schedule crash;
  chaos::FaultEvent e;
  e.kind = chaos::FaultKind::NodeCrash;
  e.target = 1;
  e.fromSec = 0.0005;
  e.restartSec = 0.01;
  crash.events.push_back(e);
  EXPECT_EQ(chaos::runTrial(s, crash), "");
}

TEST(ChaosProperty, NodeCrashDuringCheckpointRestartStillRecovers) {
  // The recovery loop already absorbs its own scheduled failure; an extra
  // chaos crash with spares available must still end in a completed run
  // with a bit-equal restore.
  mc::McScenario s;
  s.family = "checkpoint-restart";
  s.name = "recovery-prop";
  s.ranks = 2;
  s.steps = 6;
  s.spareNodes = 2;
  s.maxAttempts = 12;
  s.drainSec = 5.0;
  chaos::Schedule crash;
  chaos::FaultEvent e;
  e.kind = chaos::FaultKind::NodeCrash;
  e.target = 1;
  e.fromSec = 0.015;
  e.restartSec = 0.05;
  crash.events.push_back(e);
  EXPECT_EQ(chaos::runTrial(s, crash), "");
}

// ---- Fuzz loop and shrinker ----------------------------------------------------------

TEST(Fuzz, TrialSeedsFollowTheGoldenRatioStride) {
  const chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  EXPECT_EQ(chaos::trialSeed(spec, 0), spec.seed);
  EXPECT_EQ(chaos::trialSeed(spec, 1) - chaos::trialSeed(spec, 0),
            0x9e3779b97f4a7c15ull);
}

TEST(Fuzz, UnmodifiedTransportSurvivesTheDefaultCorpus) {
  const chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  chaos::FuzzOptions opt;
  opt.shrink = false;
  const chaos::FuzzResult r = chaos::fuzz(spec, opt);
  EXPECT_FALSE(r.violation) << r.message;
  EXPECT_EQ(r.trialsRun, spec.trials);
}

TEST(Fuzz, RecoveryLoopLateIoCompletionSeedRunsClean) {
  // Trial 247 of the committed recovery-loop spec crashes a node while a
  // rank waits on a checkpoint transfer; the relaunched rank reuses the
  // dead rank's fiber stack before the transfer lands.  A completion that
  // writes into the new rank's frames segfaults on the fiber backend; the
  // trial must run clean.
  const std::string path =
      std::string(CBSIM_CHAOS_EXAMPLES_DIR) + "/recovery-loop.json";
  chaos::ChaosSpec spec =
      chaos::chaosSpecFromDescText(desc::readFile(path), path);
  spec.seed = 12071461168978180166ull;
  spec.trials = 1;
  chaos::FuzzOptions opt;
  opt.shrink = false;
  const chaos::FuzzResult r = chaos::fuzz(spec, opt);
  EXPECT_FALSE(r.violation) << r.message;
  EXPECT_EQ(r.trialsRun, 1);
}

TEST(Fuzz, FindsShrinksAndReplaysTheSeededDefect) {
  chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  spec.scenario.breakDedup = true;
  const chaos::FuzzResult r = chaos::fuzz(spec);
  ASSERT_TRUE(r.violation);
  EXPECT_EQ(chaos::trialSeed(spec, r.badTrial), r.badSeed);
  EXPECT_NE(r.message, "");
  EXPECT_NE(r.shrunkMessage, "");
  // The acceptance bar: the counterexample shrinks to at most 3 events.
  EXPECT_LE(r.shrunk.events.size(), 3u);
  EXPECT_FALSE(r.shrinkBudgetExhausted);

  // Shrinker idempotence: re-shrinking the minimal schedule is a no-op.
  const chaos::ShrinkResult again =
      chaos::shrinkSchedule(spec.scenario, r.shrunk);
  EXPECT_EQ(dumped(again.schedule), dumped(r.shrunk));
  EXPECT_EQ(again.violation, r.shrunkMessage);

  // The artifact round-trips canonically and replays to the same message
  // (breakDedup is not serialized, so it is restored by hand — the replay
  // contract the CLI's --break-dedup flag implements).
  const chaos::Artifact a = chaos::makeArtifact(spec, r);
  const std::string text = chaos::dumpArtifact(a);
  chaos::Artifact back =
      chaos::artifactFromDoc(desc::parse(text, "inline"), "inline");
  EXPECT_EQ(chaos::dumpArtifact(back), text);
  EXPECT_FALSE(back.scenario.breakDedup);
  EXPECT_EQ(chaos::replayArtifact(back), "");  // clean transport: no repro
  back.scenario.breakDedup = true;
  EXPECT_EQ(chaos::replayArtifact(back), r.shrunkMessage);
}

TEST(Shrink, RefusesACleanSchedule) {
  const mc::McScenario s = raceScenario();
  EXPECT_THROW((void)chaos::shrinkSchedule(s, chaos::Schedule{}),
               std::invalid_argument);
}

// ---- Campaign integration ------------------------------------------------------------

TEST(Campaign, ChaosTinyRunsCleanAndDerives) {
  const campaign::Campaign c = campaign::builtinCampaign("chaos-tiny");
  const campaign::CampaignReport rep = campaign::runCampaign(c);
  EXPECT_EQ(rep.failedCount(), 0);
  ASSERT_EQ(rep.scenarios.size(), 8u);
  EXPECT_EQ(rep.derived.at("violations"), 0.0);
  EXPECT_GT(rep.derived.at("fault_events_total"), 0.0);
  // The repro contract: each trial publishes the seed that rebuilds its
  // schedule via generateSchedule(profile, world, trial_seed).
  const chaos::ChaosSpec spec = campaign::defaultChaosSpec();
  for (int i = 0; i < static_cast<int>(rep.scenarios.size()); ++i) {
    EXPECT_EQ(rep.scenarios[i].values.at("trial_seed"),
              static_cast<double>(chaos::trialSeed(spec, i)));
  }
}

}  // namespace
