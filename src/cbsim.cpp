// cbsim — one driver for the simulator's tools, one subcommand each.
//
//   cbsim campaign --campaign fig8 --jobs 8 --out report.json
//   cbsim campaign --scenario-file examples/desc/table1-fig8.json --validate
//   cbsim campaign --campaign resilience --dump > my-sweep.json
//   cbsim mc --scenario-file examples/mc/drop-retransmit-race.json
//   cbsim chaos --scenario-file examples/chaos/recovery-loop.json
//
// Each subcommand declares its flags in one table and a single parser reads
// them all, so the shared flags (--scenario-file, --validate, --dump,
// --break-dedup, --replay, --help) mean the same thing everywhere.  A numeric
// value must parse whole and lie in its flag's range; the error names the
// flag.  Exit codes, for every subcommand: 0 = clean, 1 = violation or failed
// scenario, 2 = usage or input error.

#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/builtin.hpp"
#include "campaign/desc.hpp"
#include "campaign/report.hpp"
#include "campaign/runner.hpp"
#include "chaos/fuzz.hpp"
#include "desc/json.hpp"
#include "desc/schema.hpp"
#include "mc/desc.hpp"
#include "mc/scenarios.hpp"
#include "mc/trace.hpp"
#include "sim/process.hpp"

namespace {

using namespace cbsim;

// ---- Flag tables and the one parser ---------------------------------------

/// A switch has no value; a numeric flag has a range (hi > 0).
struct Flag {
  const char* name;
  const char* value;  ///< placeholder shown in --help; nullptr = switch
  const char* help;
  std::uint64_t lo = 0;  ///< numeric flags: inclusive range
  std::uint64_t hi = 0;
  const char* word = nullptr;  ///< numeric flags: a word read as 0 ("auto")
};

constexpr std::uint64_t kIntMax = INT_MAX;

const Flag kScenarioFile{"--scenario-file", "FILE", "description file (JSON)"};
const Flag kValidate{"--validate", nullptr,
                     "parse + validate the input, report it, and exit"};
const Flag kDump{"--dump", nullptr, "print the input's canonical form and exit"};
const Flag kBreakDedup{"--break-dedup", nullptr,
                       "enable the seeded transport defect (test-only)"};

struct Args {
  bool help = false;
  std::map<std::string_view, std::string> values;     ///< "" for switches
  std::map<std::string_view, std::uint64_t> numbers;  ///< numeric flags

  [[nodiscard]] bool has(std::string_view flag) const {
    return values.count(flag) != 0;
  }
  [[nodiscard]] std::string text(std::string_view flag) const {
    const auto it = values.find(flag);
    return it == values.end() ? std::string() : it->second;
  }
  /// Overrides `out` with a given numeric flag; its range fits `T`.
  template <class T>
  void setIfGiven(std::string_view flag, T& out) const {
    const auto it = numbers.find(flag);
    if (it != numbers.end()) out = static_cast<T>(it->second);
  }
};

std::uint64_t parseNumber(const Flag& f, const std::string& v) {
  if (f.word != nullptr && v == f.word) return 0;
  std::uint64_t n = 0;
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(v.data(), end, n);
  if (ec == std::errc() && ptr == end && n >= f.lo && n <= f.hi) return n;
  throw std::invalid_argument(
      std::string(f.name) + " expects an integer in [" + std::to_string(f.lo) +
      ", " + std::to_string(f.hi) + "]" +
      (f.word != nullptr ? std::string(" or '") + f.word + "'" : "") +
      ", got '" + v + "'");
}

Args parseArgs(const std::vector<Flag>& flags, int argc, char** argv) {
  Args a;
  for (int i = 2; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      a.help = true;
      return a;
    }
    const Flag* f = nullptr;
    for (const Flag& cand : flags) {
      if (arg == cand.name) f = &cand;
    }
    if (f == nullptr) {
      throw std::invalid_argument("unknown argument '" + std::string(arg) +
                                  "' (see --help)");
    }
    std::string& v = a.values[f->name];
    if (f->value == nullptr) continue;
    if (i + 1 >= argc) {
      throw std::invalid_argument(std::string(f->name) + " needs a value");
    }
    v = argv[++i];
    if (f->hi != 0) a.numbers[f->name] = parseNumber(*f, v);
  }
  return a;
}

std::string requireScenarioFile(const Args& a) {
  const std::string file = a.text("--scenario-file");
  if (file.empty()) throw std::invalid_argument("--scenario-file is required");
  return file;
}

int replayVerdict(const std::string& name, const std::string& violation) {
  if (violation.empty()) {
    std::printf("replay %s: schedule is clean on this binary\n", name.c_str());
    return 0;
  }
  std::printf("replay %s: VIOLATION: %s\n", name.c_str(), violation.c_str());
  return 1;
}

std::ofstream openOutput(const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot open " + path);
  return out;
}

// ---- cbsim campaign ---------------------------------------------------------

int runCampaignCmd(const Args& a, const std::string& /*prog*/) {
  if (a.has("--list")) {
    for (const std::string& n : campaign::builtinCampaignNames()) {
      const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
          campaign::builtinCampaignText(n), "builtin:" + n);
      std::printf("%-16s %s\n", n.c_str(), spec.description.c_str());
    }
    return 0;
  }
  if (a.has("--backend")) {
    const std::string b = a.text("--backend");
    if (b != "fiber" && b != "thread") {
      throw std::invalid_argument("--backend expects fiber|thread, got '" + b +
                                  "'");
    }
    sim::setDefaultProcessBackend(b == "fiber" ? sim::ProcessBackend::Fiber
                                               : sim::ProcessBackend::Thread);
  }
  const std::string name = a.text("--campaign");
  const std::string file = a.text("--scenario-file");
  if (name.empty() == file.empty()) {
    throw std::invalid_argument(
        "exactly one of --campaign or --scenario-file is required");
  }
  // A builtin is an embedded description string: one parse path for both.
  const std::string origin = name.empty() ? file : "builtin:" + name;
  const campaign::CampaignSpec spec = campaign::campaignSpecFromDescText(
      name.empty() ? desc::readFile(file)
                   : std::string(campaign::builtinCampaignText(name)),
      origin);
  if (a.has("--dump")) {
    std::fputs(desc::dump(campaign::toDesc(spec)).c_str(), stdout);
    return 0;
  }
  const campaign::Campaign c = campaign::buildCampaign(spec);
  if (a.has("--validate")) {
    std::printf("%s: ok — campaign \"%s\" (%zu scenarios): %s\n", origin.c_str(),
                c.name.c_str(), c.scenarios.size(), c.description.c_str());
    return 0;
  }

  campaign::RunnerOptions opts;
  a.setIfGiven("--jobs", opts.jobs);  // 'auto' = 0 = all hardware threads
  opts.traceDir = a.text("--trace-dir");
  // Open output files before the (potentially minutes-long) run so a bad
  // path fails immediately instead of after the campaign.
  const std::string outPath = a.text("--out");
  const std::string csvPath = a.text("--csv");
  std::ofstream jsonOut, csvOut;
  if (!outPath.empty()) jsonOut = openOutput(outPath);
  if (!csvPath.empty()) csvOut = openOutput(csvPath);

  const campaign::CampaignReport rep = campaign::runCampaign(c, opts);
  campaign::writeJson(rep, outPath.empty() ? std::cout : jsonOut);
  if (!csvPath.empty()) campaign::writeCsv(rep, csvOut);

  // Trace-write failures do not fail scenarios (the simulated results are
  // valid); surface them here so nobody discovers a missing trace file days
  // later.
  for (const campaign::ScenarioResult& s : rep.scenarios) {
    if (!s.traceWarning.empty()) {
      std::fprintf(stderr, "warning: scenario '%s': trace not written: %s\n",
                   s.name.c_str(), s.traceWarning.c_str());
    }
  }
  const double serial = rep.hostScenarioSecSum();
  std::fprintf(stderr,
               "campaign %-12s %3zu scenarios  jobs=%d  backend=%s  wall %.2fs  "
               "(scenario sum %.2fs, speedup %.2fx)  failures=%d\n",
               rep.campaign.c_str(), rep.scenarios.size(), rep.jobsUsed,
               sim::toString(sim::defaultProcessBackend()), rep.hostElapsedSec,
               serial, rep.hostElapsedSec > 0 ? serial / rep.hostElapsedSec : 1.0,
               rep.failedCount());
  return rep.failedCount() == 0 ? 0 : 1;
}

// ---- cbsim mc ---------------------------------------------------------------

int runMcCmd(const Args& a, const std::string& prog) {
  const std::string file = requireScenarioFile(a);
  mc::McScenario s =
      mc::scenarioFromDoc(desc::parse(desc::readFile(file), file), file);
  s.breakDedup = a.has("--break-dedup");
  a.setIfGiven("--max-schedules", s.budget.maxSchedules);
  a.setIfGiven("--max-depth", s.budget.maxDepth);
  if (a.has("--no-sleep-sets")) s.budget.sleepSets = false;

  if (a.has("--dump")) {
    std::fputs(mc::dumpScenario(s).c_str(), stdout);
    return 0;
  }
  if (a.has("--validate")) {
    (void)mc::makeRun(s);  // validates the family-specific parameters too
    std::printf("%s: ok (%s, family %s)\n", file.c_str(), s.name.c_str(),
                s.family.c_str());
    return 0;
  }
  if (a.has("--replay")) {
    const mc::Trace trace = mc::readTraceFile(a.text("--replay"));
    if (trace.scenario != s.name) {
      throw std::invalid_argument("trace was recorded for scenario \"" +
                                  trace.scenario + "\", file describes \"" +
                                  s.name + "\"");
    }
    return replayVerdict(s.name, mc::replay(mc::makeRun(s), trace.choices));
  }

  const mc::ExploreResult res = mc::exploreScenario(s);
  if (!res.violation) {
    std::printf(
        "mc %s: %ld schedule(s) explored clean (%ld pruned as equivalent, %ld "
        "deferred on budget)%s\n",
        s.name.c_str(), res.schedulesRun, res.equivalentPruned,
        res.deferredBranches,
        res.complete() ? "" : " — INCOMPLETE, raise the budget");
    return 0;
  }
  std::string out = a.text("--trace-out");
  if (out.empty()) out = s.name + ".trace.json";
  mc::writeTraceFile(out, {s.name, res.message, res.badSchedule, res.badTrace});
  std::printf("mc %s: VIOLATION after %ld schedule(s): %s\n", s.name.c_str(),
              res.schedulesRun, res.message.c_str());
  std::printf("trace written to %s\n", out.c_str());
  std::printf("repro: %s --scenario-file %s%s --replay %s\n", prog.c_str(),
              file.c_str(), s.breakDedup ? " --break-dedup" : "", out.c_str());
  return 1;
}

// ---- cbsim chaos ------------------------------------------------------------

int runChaosCmd(const Args& a, const std::string& prog) {
  const bool breakDedup = a.has("--break-dedup");
  // Replay is self-contained (the artifact embeds its scenario); it only
  // needs the defect flag back, never the spec file.
  if (a.has("--replay")) {
    chaos::Artifact art = chaos::artifactFromFile(a.text("--replay"));
    art.scenario.breakDedup = breakDedup;
    return replayVerdict(art.name, chaos::replayArtifact(art));
  }
  const std::string file = requireScenarioFile(a);
  chaos::ChaosSpec spec = chaos::chaosSpecFromDescText(desc::readFile(file), file);
  spec.scenario.breakDedup = breakDedup;
  a.setIfGiven("--trials", spec.trials);
  a.setIfGiven("--seed", spec.seed);

  if (a.has("--dump")) {
    std::fputs(chaos::dumpSpec(spec).c_str(), stdout);
    return 0;
  }
  if (a.has("--validate")) {
    // makeRun checks the family parameters, generateSchedule the profile's
    // target filters against the scenario's machine.
    (void)mc::makeRun(spec.scenario);
    (void)chaos::generateSchedule(spec.profile, mc::scenarioWorld(spec.scenario),
                                  chaos::trialSeed(spec, 0));
    std::printf("%s: ok (%s, %d trial(s), scenario %s)\n", file.c_str(),
                spec.name.c_str(), spec.trials, spec.scenario.name.c_str());
    return 0;
  }

  chaos::FuzzOptions opt;
  opt.shrink = !a.has("--no-shrink");
  a.setIfGiven("--max-shrink-runs", opt.maxShrinkRuns);
  const chaos::FuzzResult res = chaos::fuzz(spec, opt);
  if (!res.violation) {
    std::printf("chaos %s: %d trial(s) clean\n", spec.name.c_str(), res.trialsRun);
    return 0;
  }
  std::printf("chaos %s: VIOLATION at trial %d (seed %llu): %s\n",
              spec.name.c_str(), res.badTrial,
              static_cast<unsigned long long>(res.badSeed), res.message.c_str());
  std::printf("shrunk to %zu event(s) in %d run(s)%s: %s\n",
              res.shrunk.events.size(), res.shrinkRuns,
              res.shrinkBudgetExhausted ? " (budget exhausted)" : "",
              res.shrunkMessage.c_str());
  std::string out = a.text("--artifact-out");
  if (out.empty()) out = spec.name + ".artifact.json";
  openOutput(out) << chaos::dumpArtifact(chaos::makeArtifact(spec, res));
  std::printf("artifact written to %s\n", out.c_str());
  std::printf("repro: %s%s --replay %s\n", prog.c_str(),
              breakDedup ? " --break-dedup" : "", out.c_str());
  return 1;
}

// ---- Subcommand table -------------------------------------------------------

struct Subcommand {
  const char* name;
  const char* synopsis;
  const char* summary;
  std::vector<Flag> flags;
  int (*run)(const Args&, const std::string& prog);
};

const std::vector<Subcommand>& subcommands() {
  static const std::vector<Subcommand> kCommands = {
      {"campaign", "(--campaign NAME | --scenario-file FILE) [options] | --list",
       "Run a scenario campaign on a worker pool.  The report is byte-identical\n"
       "for any --jobs and either --backend; host timing goes to stderr.",
       {{"--campaign", "NAME", "built-in campaign (see --list)"},
        {"--scenario-file", "FILE", "campaign description (JSON; see --dump)"},
        kValidate,
        kDump,
        {"--list", nullptr, "list built-in campaigns and exit"},
        {"--jobs", "N|auto", "workers (default 1; 'auto' = all hardware threads)",
         1, kIntMax, "auto"},
        {"--backend", "B", "fiber | thread (default: fiber where available)"},
        {"--out", "FILE", "JSON report path (default: stdout)"},
        {"--csv", "FILE", "also write a flat CSV report"},
        {"--trace-dir", "DIR", "write one Chrome trace JSON per scenario"}},
       runCampaignCmd},
      {"mc", "--scenario-file FILE [options]",
       "Explore every schedule of a small world up to equivalence and check its\n"
       "invariants (examples/mc/).  A violation writes a replayable trace.",
       {kScenarioFile,
        kValidate,
        kDump,
        {"--max-schedules", "N", "override the schedule budget", 1, LONG_MAX},
        {"--max-depth", "N", "override the branching depth", 1, kIntMax},
        {"--no-sleep-sets", nullptr, "exhaustive enumeration (no pruning)"},
        kBreakDedup,
        {"--trace-out", "PATH", "violating trace (default <name>.trace.json)"},
        {"--replay", "PATH", "re-run a trace's schedule instead of exploring"}},
       runMcCmd},
      {"chaos", "(--scenario-file FILE | --replay PATH) [options]",
       "Fuzz seed-deterministic fault schedules against a scenario's invariants\n"
       "(examples/chaos/).  A violation is shrunk to a replayable artifact.",
       {kScenarioFile,
        kValidate,
        kDump,
        {"--trials", "N", "override the spec's trial budget", 1, kIntMax},
        {"--seed", "S", "override the spec's base seed", 0, UINT64_MAX},
        kBreakDedup,
        {"--no-shrink", nullptr, "keep the first failing schedule as-is"},
        {"--max-shrink-runs", "N", "shrink oracle-run budget (default 400)", 1,
         kIntMax},
        {"--artifact-out", "PATH", "counterexample (default <name>.artifact.json)"},
        {"--replay", "PATH", "re-run one artifact instead of fuzzing"}},
       runChaosCmd},
  };
  return kCommands;
}

constexpr const char* kExitCodes =
    "exit codes: 0 = clean, 1 = violation or failed scenario, 2 = usage/input "
    "error\n";

int topUsage(const char* argv0, int code) {
  std::FILE* out = code == 0 ? stdout : stderr;
  std::fprintf(out, "usage: %s <subcommand> [options]\n\n", argv0);
  for (const Subcommand& c : subcommands()) {
    std::fprintf(out, "  %-10s %s\n", c.name, c.synopsis);
  }
  std::fprintf(out, "\nrun '%s <subcommand> --help' for its options.\n%s", argv0,
               kExitCodes);
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return topUsage(argv[0], 2);
  const std::string_view sub = argv[1];
  if (sub == "--help" || sub == "-h") return topUsage(argv[0], 0);
  for (const Subcommand& cmd : subcommands()) {
    if (sub != cmd.name) continue;
    const std::string prog = std::string(argv[0]) + " " + cmd.name;
    try {
      const Args a = parseArgs(cmd.flags, argc, argv);
      if (!a.help) return cmd.run(a, prog);
      std::printf("usage: %s %s\n\n%s\n\n", prog.c_str(), cmd.synopsis,
                  cmd.summary);
      for (const Flag& f : cmd.flags) {
        const std::string left =
            std::string(f.name) + " " + (f.value != nullptr ? f.value : "");
        std::printf("  %-22s %s\n", left.c_str(), f.help);
      }
      std::printf("  %-22s %s\n\n%s", "--help, -h", "this text", kExitCodes);
      return 0;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", prog.c_str(), e.what());
      return 2;
    }
  }
  std::fprintf(stderr, "%s: unknown subcommand '%s'\n", argv[0], argv[1]);
  return topUsage(argv[0], 2);
}
