// Tests for the scenario-campaign runner: deterministic seeding, report
// byte-identity across worker counts (the world-isolation guarantee the
// whole campaign/ layer rests on — run this under CBSIM_SANITIZE=thread to
// let TSan check the pool), per-scenario error capture, and the report
// writers.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "desc/cache.hpp"
#include "desc/json.hpp"
#include "hw/desc.hpp"
#include "sim/process.hpp"
#include "xpic/config.hpp"

namespace {

using namespace cbsim;
using campaign::Campaign;
using campaign::CampaignReport;
using campaign::RunnerOptions;
using campaign::Scenario;
using campaign::ScenarioContext;
using campaign::Values;

TEST(ScenarioSeed, DeterministicAndNameSensitive) {
  const auto a = campaign::scenarioSeed(1, "fig8/C+B/n8");
  EXPECT_EQ(a, campaign::scenarioSeed(1, "fig8/C+B/n8"));
  EXPECT_NE(a, campaign::scenarioSeed(1, "fig8/C+B/n4"));
  EXPECT_NE(a, campaign::scenarioSeed(2, "fig8/C+B/n8"));
}

TEST(Runner, ResultsStayInDefinitionOrderDespiteLptScheduling) {
  Campaign c;
  c.name = "order";
  for (int i = 0; i < 6; ++i) {
    Scenario s;
    s.name = "s" + std::to_string(i);
    s.costHint = i;  // inverted: the runner starts s5 first
    s.run = [i](ScenarioContext&) { return Values{{"i", double(i)}}; };
    c.scenarios.push_back(std::move(s));
  }
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(3));
  ASSERT_EQ(rep.scenarios.size(), 6u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(rep.scenarios[size_t(i)].name, "s" + std::to_string(i));
    EXPECT_EQ(rep.scenarios[size_t(i)].values.at("i"), i);
  }
}

TEST(Runner, DuplicateScenarioNamesRejected) {
  Campaign c;
  c.name = "dup";
  for (int i = 0; i < 2; ++i) {
    c.scenarios.push_back(
        {"same", 1.0, [](ScenarioContext&) { return Values{}; }});
  }
  EXPECT_THROW((void)campaign::runCampaign(c), std::invalid_argument);
}

TEST(Runner, ScenarioErrorsAreCapturedPerScenario) {
  Campaign c;
  c.name = "err";
  c.scenarios.push_back({"bad", 1.0, [](ScenarioContext&) -> Values {
                           throw std::runtime_error("boom");
                         }});
  c.scenarios.push_back(
      {"good", 1.0, [](ScenarioContext&) { return Values{{"ok", 1.0}}; }});
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(2));
  EXPECT_EQ(rep.failedCount(), 1);
  EXPECT_EQ(rep.scenarios[0].error, "boom");
  EXPECT_TRUE(rep.scenarios[0].values.empty());
  EXPECT_TRUE(rep.scenarios[1].error.empty());
  EXPECT_EQ(rep.scenarios[1].values.at("ok"), 1.0);
  // The report stays serializable and names the failure.
  EXPECT_NE(campaign::toJson(rep).find("\"error\": \"boom\""), std::string::npos);
}

TEST(Runner, JobsZeroMeansHardwareConcurrency) {
  Campaign c;
  c.name = "jobs0";
  c.scenarios.push_back(
      {"one", 1.0, [](ScenarioContext&) { return Values{}; }});
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(0));
  EXPECT_GE(rep.jobsUsed, 1);  // clamped to scenario count
}

TEST(Runner, MetricsSnapshotCarriesPerWorldRegistries) {
  campaign::Fig8Params p;
  p.xpic = xpic::XpicConfig::tiny();
  p.nodeCounts = {1};
  const CampaignReport rep = campaign::runCampaign(fig8Campaign(p));
  ASSERT_EQ(rep.scenarios.size(), 3u);
  for (const auto& s : rep.scenarios) {
    ASSERT_TRUE(s.error.empty()) << s.name << ": " << s.error;
    // Every world carries its own engine counter and rank gauges (rank
    // metric names vary by mode: xpic vs xpic.cluster/xpic.booster jobs).
    EXPECT_GT(s.metrics.at("engine.events_processed"), 0) << s.name;
    const bool hasCompute = std::any_of(
        s.metrics.begin(), s.metrics.end(), [](const auto& kv) {
          return kv.first.find(".compute_sec") != std::string::npos &&
                 kv.second > 0;
        });
    EXPECT_TRUE(hasCompute) << s.name;
  }
  // Isolated worlds of the same size do the same amount of work.
  EXPECT_EQ(rep.scenarios[0].metrics.at("engine.events_processed"),
            rep.scenarios[1].metrics.at("engine.events_processed"));
}

// The headline guarantee: running the same campaign on 1 worker and on 8
// produces byte-identical JSON and CSV reports.  This is simultaneously
// the engine-isolation audit — 8 workers means up to 8 fully independent
// sim::Engine / pmpi::Runtime worlds (each with many rank threads) running
// concurrently; any shared mutable state would show up as a diff here (or
// as a TSan report under CBSIM_SANITIZE=thread).
TEST(Determinism, Fig8TinyReportIdenticalAcrossJobCounts) {
  const Campaign c = campaign::builtinCampaign("fig8-tiny");
  const CampaignReport r1 = campaign::runCampaign(c, campaign::withJobs(1));
  const CampaignReport r8 = campaign::runCampaign(c, campaign::withJobs(8));
  EXPECT_EQ(campaign::toJson(r1), campaign::toJson(r8));
  EXPECT_EQ(campaign::toCsv(r1), campaign::toCsv(r8));
  EXPECT_EQ(r8.jobsUsed, 8);
  EXPECT_EQ(r1.failedCount(), 0);
}

// The C+B interface buffers are allocated once per rank and re-packed in
// place, but the exchange must stay production-sized on the wire: the
// padded interface (XpicConfig::interfaceDoublesPerCell per cell) is what
// makes its transfers rendezvous-sized and what the fabric times.  Pins the
// fig8-tiny C+B worlds' fabric traffic, protocol split and every report
// value, bit for bit, to the values of per-step freshly padded buffers.
TEST(WireTraffic, Fig8TinyClusterBoosterPinned) {
  struct Pin {
    const char* name;
    double messages, bytes, rendezvous, eager;
    Values values;
  };
  const std::vector<Pin> pins = {
      {"fig8/C+B/n1",
       34, 272560, 11, 1,
       {
        {"aux_sec", 0.0005690597499999972}, {"cg_iterations", 15.0},
        {"field_comm_sec", 0.00010336591600000177},
        {"field_energy", 1.311829636983049},
        {"fields_sec", 0.0003662270900000016},
        {"kinetic_energy", 11.255565936141782},
        {"momentum_x", 25.621225862794887},
        {"net_charge", -1.726618847897044e-14},
        {"particle_comm_sec", 0.005508226799999999},
        {"particle_count", 1024.0}, {"particles_sec", 0.002372755516000002},
        {"sync_sec", 0.0021034371379999982}, {"wall_sec", 0.008521748393}}},
      {"fig8/C+B/n8",
       3694, 840236, 80, 3454,
       {
        {"aux_sec", 0.0005690171499999983}, {"cg_iterations", 15.0},
        {"field_comm_sec", 0.00040252611200001023},
        {"field_energy", 1.3118296369830493},
        {"fields_sec", 0.0003655144739999963},
        {"kinetic_energy", 11.255565936141771},
        {"momentum_x", 25.621225862794898},
        {"net_charge", -1.0769163338864018e-14},
        {"particle_comm_sec", 0.00937576708300015}, {"particle_count", 1024.0},
        {"particles_sec", 0.0026963107390000005},
        {"sync_sec", 0.0024197777410000024}, {"wall_sec", 0.012425139901}}},
  };
  const CampaignReport rep = campaign::runCampaign(
      campaign::builtinCampaign("fig8-tiny"), campaign::withJobs(2));
  for (const Pin& pin : pins) {
    const auto it = std::find_if(
        rep.scenarios.begin(), rep.scenarios.end(),
        [&](const campaign::ScenarioResult& s) { return s.name == pin.name; });
    ASSERT_NE(it, rep.scenarios.end()) << pin.name;
    ASSERT_TRUE(it->error.empty()) << pin.name << ": " << it->error;
    EXPECT_EQ(it->metrics.at("fabric.messages"), pin.messages) << pin.name;
    EXPECT_EQ(it->metrics.at("fabric.bytes"), pin.bytes) << pin.name;
    EXPECT_EQ(it->metrics.at("pmpi.sends.rendezvous"), pin.rendezvous)
        << pin.name;
    EXPECT_EQ(it->metrics.at("pmpi.sends.eager"), pin.eager) << pin.name;
    ASSERT_EQ(it->values.size(), pin.values.size()) << pin.name;
    for (const auto& [key, want] : pin.values) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(it->values.at(key)),
                std::bit_cast<std::uint64_t>(want))
          << pin.name << " " << key << ": " << it->values.at(key) << " vs "
          << want;
    }
  }
}

TEST(Determinism, ResilienceReportIdenticalAcrossJobCounts) {
  // Reduced matrix: failure injection, restarts and RNG sampling all
  // inside per-scenario worlds, so worker count must not matter.
  campaign::ResilienceParams p;
  p.mtbfSec = {0.25, 1.0};
  p.steps = 10;
  p.maxAttempts = 20;
  const Campaign c = campaign::resilienceCampaign(p);
  const CampaignReport r1 = campaign::runCampaign(c, campaign::withJobs(1));
  const CampaignReport r6 = campaign::runCampaign(c, campaign::withJobs(6));
  EXPECT_EQ(campaign::toJson(r1), campaign::toJson(r6));
  EXPECT_EQ(campaign::toCsv(r1), campaign::toCsv(r6));
  for (const auto& s : r1.scenarios) {
    EXPECT_TRUE(s.error.empty()) << s.name << ": " << s.error;
    EXPECT_EQ(s.values.at("done"), 1.0) << s.name;
  }
}

TEST(Runner, BatchedDispatchCoversEveryScenarioExactlyOnce) {
  // Many tiny scenarios with mixed (including zero) cost hints: the
  // cost-aware batching must still execute each exactly once and merge
  // the per-worker buffers back into definition order.
  Campaign c;
  c.name = "batch";
  for (int i = 0; i < 41; ++i) {
    Scenario s;
    s.name = "s" + std::to_string(i);
    s.costHint = (i % 7 == 0) ? 0.0 : static_cast<double>(i % 5);
    s.run = [i](ScenarioContext&) { return Values{{"i", double(i)}}; };
    c.scenarios.push_back(std::move(s));
  }
  const CampaignReport rep = campaign::runCampaign(c, campaign::withJobs(5));
  ASSERT_EQ(rep.scenarios.size(), 41u);
  for (int i = 0; i < 41; ++i) {
    EXPECT_EQ(rep.scenarios[size_t(i)].name, "s" + std::to_string(i));
    EXPECT_EQ(rep.scenarios[size_t(i)].values.at("i"), i);
  }
  EXPECT_EQ(rep.failedCount(), 0);
}

TEST(Runner, TraceFileCollisionsAreDisambiguated) {
  namespace fs = std::filesystem;
  // "a/b" and "a_b" sanitize to the same stem; "c" does not collide.
  Campaign c;
  c.name = "tracecol";
  for (const char* name : {"a/b", "a_b", "c"}) {
    Scenario s;
    s.name = name;
    s.run = [](ScenarioContext&) { return Values{{"x", 1.0}}; };
    c.scenarios.push_back(std::move(s));
  }
  const fs::path dir = fs::path(testing::TempDir()) / "cbsim-tracecol";
  fs::remove_all(dir);
  RunnerOptions opts;
  opts.jobs = 2;
  opts.traceDir = dir.string();
  const CampaignReport rep = campaign::runCampaign(c, opts);
  EXPECT_EQ(rep.failedCount(), 0);
  EXPECT_EQ(rep.traceWarningCount(), 0);
  std::vector<std::string> files;
  for (const auto& e : fs::directory_iterator(dir)) {
    files.push_back(e.path().filename().string());
  }
  // One trace per scenario — the colliding pair got distinct hash-suffixed
  // names instead of silently overwriting one file.
  EXPECT_EQ(files.size(), 3u);
  EXPECT_NE(std::find(files.begin(), files.end(), "c.trace.json"),
            files.end());
  // The bare collided stem must not be used by either collider.
  EXPECT_EQ(std::find(files.begin(), files.end(), "a_b.trace.json"),
            files.end());
  fs::remove_all(dir);
}

TEST(Runner, TraceWriteFailureKeepsScenarioResults) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(testing::TempDir()) / "cbsim-tracewarn";
  fs::remove_all(dir);
  // A directory squatting on the scenario's trace-file name makes the
  // post-run ofstream open fail — the completed results must survive.
  fs::create_directories(dir / "x.trace.json");
  Campaign c;
  c.name = "tracewarn";
  c.scenarios.push_back(
      {"x", 1.0, [](ScenarioContext&) { return Values{{"ok", 7.0}}; }});
  RunnerOptions opts;
  opts.traceDir = dir.string();
  const CampaignReport rep = campaign::runCampaign(c, opts);
  ASSERT_EQ(rep.scenarios.size(), 1u);
  EXPECT_TRUE(rep.scenarios[0].error.empty());
  EXPECT_EQ(rep.scenarios[0].values.at("ok"), 7.0);
  EXPECT_FALSE(rep.scenarios[0].traceWarning.empty());
  EXPECT_EQ(rep.failedCount(), 0);
  EXPECT_EQ(rep.traceWarningCount(), 1);
  fs::remove_all(dir);
}

// ---- Preset memo ------------------------------------------------------------

/// Restores the process-wide default backend on scope exit.
struct BackendGuard {
  sim::ProcessBackend saved = sim::defaultProcessBackend();
  ~BackendGuard() { sim::setDefaultProcessBackend(saved); }
};

desc::CacheStats memoStats() {
  desc::CacheStats total;
  for (const desc::CacheInfo& i : desc::constructionCacheInfo()) {
    total.hits += i.stats.hits;
    total.misses += i.stats.misses;
  }
  return total;
}

// The memo must be invisible in the output: byte-identical campaign
// reports from a cold memo (cleared before the run) and a warm one, across
// worker counts and process backends.  Campaign *construction* runs cold
// and warm too (builtinCampaign re-parses the builtin text and presets).
TEST(CampaignCache, Fig8ReportIdenticalColdWarmJobsBackends) {
  BackendGuard backendGuard;
  std::string ref;
  for (const sim::ProcessBackend backend :
       {sim::ProcessBackend::Fiber, sim::ProcessBackend::Thread}) {
    sim::setDefaultProcessBackend(backend);
    for (const int jobs : {1, 2, 8}) {
      for (const bool cold : {true, false}) {
        if (cold) desc::clearConstructionCaches();
        const Campaign c = campaign::builtinCampaign("fig8-tiny");
        const std::string json =
            campaign::toJson(campaign::runCampaign(c, campaign::withJobs(jobs)));
        if (ref.empty()) {
          ref = json;
        } else {
          EXPECT_EQ(json, ref)
              << "backend=" << sim::toString(backend) << " cold=" << cold
              << " jobs=" << jobs;
        }
      }
    }
  }
}

// Same for the resilience family, whose scenarios construct the machine
// inside the sweep (the path that used to re-parse the preset per world).
TEST(CampaignCache, ResilienceReportIdenticalColdWarm) {
  campaign::ResilienceParams p;
  p.mtbfSec = {0.3};
  p.steps = 8;
  std::string ref;
  for (const bool cold : {true, false}) {
    if (cold) desc::clearConstructionCaches();
    const std::string json = campaign::toJson(
        campaign::runCampaign(resilienceCampaign(p), campaign::withJobs(4)));
    if (ref.empty()) {
      ref = json;
    } else {
      EXPECT_EQ(json, ref) << "cold=" << cold;
    }
  }
}

// Concurrent first miss: many threads racing to construct the same preset
// must agree on the result, and afterwards the memo must serve pure hits.
// Run under CBSIM_SANITIZE=thread to let TSan audit the memo locking.
TEST(CampaignCache, ConcurrentFirstMissConverges) {
  desc::clearConstructionCaches();
  constexpr int kThreads = 8;
  std::vector<std::string> dumps(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&dumps, i] {
      const hw::MachineConfig m = hw::machinePreset("deep-er");
      (void)hw::cpuPreset("xeon-phi-knl");
      dumps[size_t(i)] = desc::dump(hw::toDesc(m));
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(dumps[size_t(i)], dumps[0]);

  const desc::CacheStats warm = memoStats();
  EXPECT_GE(warm.misses, 2u);  // deep-er and xeon-phi-knl, plus race losers
  (void)hw::machinePreset("deep-er");
  const desc::CacheStats after = memoStats();
  EXPECT_EQ(after.misses, warm.misses);  // warm lookup builds nothing
  EXPECT_EQ(after.hits, warm.hits + 1);
}

// Callers get copies: editing what a preset accessor returned must never
// reach the memoized object the next caller copies from.
TEST(CampaignCache, EditedCopyLeavesPresetIntact) {
  desc::clearConstructionCaches();
  const std::string cold = desc::dump(hw::toDesc(hw::machinePreset("deep-er")));
  hw::MachineConfig m = hw::MachineConfig::deepEr(3, 0);  // warm hit
  m.name = "edited";
  m.groups.front().count = 1;
  m.groups.front().cpu.cores = 1;
  m.switches.clear();
  EXPECT_EQ(desc::dump(hw::toDesc(hw::machinePreset("deep-er"))), cold);
  EXPECT_GT(memoStats().hits, 0u);
}

TEST(Report, JsonEscapesAndStructure) {
  CampaignReport rep;
  rep.campaign = "quoted \"name\"";
  rep.description = "line1\nline2";
  campaign::ScenarioResult s;
  s.name = "s,with\"csv";
  s.seed = 42;
  s.values["v"] = 0.5;
  rep.scenarios.push_back(s);
  const std::string json = campaign::toJson(rep);
  EXPECT_NE(json.find("quoted \\\"name\\\""), std::string::npos);
  EXPECT_NE(json.find("line1\\nline2"), std::string::npos);
  EXPECT_NE(json.find("\"seed\": 42"), std::string::npos);
  const std::string csv = campaign::toCsv(rep);
  // CSV quoting doubles embedded quotes.
  EXPECT_NE(csv.find("\"s,with\"\"csv\""), std::string::npos);
}

}  // namespace
